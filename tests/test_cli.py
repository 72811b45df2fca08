import json
import os
import subprocess
import sys

import numpy as np
import pytest

import viscodual.cli
from viscodual import (
    ScalarCreep,
    ScalarRelaxation,
    check_limit_identities,
    check_wellformed,
    dualize,
    duality_residual,
    parse_material,
    serialize_material,
)
from viscodual.cli import run


@pytest.fixture
def solid_file(tmp_path):
    k = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
    path = tmp_path / "solid.json"
    path.write_text(serialize_material(k))
    return path


@pytest.fixture
def matrix_file(tmp_path):
    text = json.dumps({
        "kind": "relaxation", "dimension": "matrix6",
        "equilibrium": [float(x) for x in np.eye(6).ravel()],
        "modes": [{"rate": 1.0,
                   "weight": [float(x) for x in (2.0 * np.eye(6)).ravel()]}],
    })
    path = tmp_path / "matrix.json"
    path.write_text(text)
    return path


class TestDualizeCommand:
    def test_writes_dual_kernel(self, solid_file, tmp_path):
        out = tmp_path / "dual.json"
        assert run(["dualize", str(solid_file), "-o", str(out)]) == 0
        dual = parse_material(out.read_text())
        assert isinstance(dual, ScalarCreep)
        assert dual.instantaneous == pytest.approx(0.5)

    def test_stdout_when_no_output(self, solid_file, capsys):
        assert run(["dualize", str(solid_file)]) == 0
        captured = capsys.readouterr()
        assert '"kind": "creep"' in captured.out

    def test_matrix_input(self, matrix_file, tmp_path):
        out = tmp_path / "dual.json"
        assert run(["dualize", str(matrix_file), "-o", str(out)]) == 0
        dual = parse_material(out.read_text())
        assert dual.modes[0][0] == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["dualize", str(tmp_path / "nope.json")]) == 2

    def test_invalid_material_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "relaxation", "dimension": "scalar",'
                        ' "modes": [{"rate": -1.0, "weight": 1.0}]}')
        assert run(["dualize", str(path)]) == 1

    def test_linear_algebra_failure_is_numeric_failure(self, solid_file,
                                                        monkeypatch, capsys):
        # LinAlgError subclasses ValueError but must not exit as validation
        def singular(kernel):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(viscodual.cli, "dualize", singular)
        assert run(["dualize", str(solid_file)]) == 3
        assert "numeric failure" in capsys.readouterr().err


class TestCheckCommand:
    def test_single_kernel_passes(self, solid_file, capsys):
        assert run(["check", str(solid_file)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_dual_pair_passes(self, solid_file, tmp_path, capsys):
        k = parse_material(solid_file.read_text())
        dual_path = tmp_path / "dual.json"
        dual_path.write_text(serialize_material(dualize(k)))
        assert run(["check", str(solid_file),
                    "--against", str(dual_path)]) == 0
        out = capsys.readouterr().out
        assert "duality-residual" in out

    def test_order_of_pair_does_not_matter(self, solid_file, tmp_path):
        k = parse_material(solid_file.read_text())
        dual_path = tmp_path / "dual.json"
        dual_path.write_text(serialize_material(dualize(k)))
        assert run(["check", str(dual_path),
                    "--against", str(solid_file)]) == 0

    def test_wrong_pair_fails(self, solid_file, tmp_path, capsys):
        wrong = ScalarCreep.make(instantaneous=2.0, modes=[(0.3, 0.1)])
        wrong_path = tmp_path / "wrong.json"
        wrong_path.write_text(serialize_material(wrong))
        assert run(["check", str(solid_file),
                    "--against", str(wrong_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_maxwell_pair_passes(self, tmp_path, capsys):
        # one Maxwell element: its dual h = 1 + t has no modes
        kpath = tmp_path / "maxwell.json"
        kpath.write_text(json.dumps({"kind": "relaxation",
                                     "dimension": "scalar",
                                     "modes": [{"rate": 1, "weight": 1}]}))
        dual_path = tmp_path / "dual.json"
        assert run(["dualize", str(kpath), "-o", str(dual_path)]) == 0
        assert run(["check", str(kpath), "--against", str(dual_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_two_relaxations_rejected(self, solid_file):
        assert run(["check", str(solid_file),
                    "--against", str(solid_file)]) == 1

    def test_json_format(self, solid_file, capsys):
        assert run(["check", str(solid_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "rates-positive" in payload["checks"]

    @pytest.mark.parametrize("fixture", ["solid_file", "matrix_file"])
    def test_json_pair_output_is_the_entry_table(self, fixture, tmp_path,
                                                 capsys, request):
        # byte for byte what the command printed when it assembled the
        # table by hand from the same entries
        path = request.getfixturevalue(fixture)
        kernel = parse_material(path.read_text())
        dual = dualize(kernel)
        dual_path = tmp_path / "dual.json"
        dual_path.write_text(serialize_material(dual))
        assert run(["check", str(path), "--against", str(dual_path),
                    "--format", "json"]) == 0
        out = capsys.readouterr().out

        tol = 1e-9 if isinstance(kernel, ScalarRelaxation) else 1e-7
        residual = float(duality_residual(kernel, dual))
        entries = [(e.name, e.passed, e.residual, e.tolerance) for e in (
            check_wellformed(kernel).entries + check_wellformed(dual).entries)]
        entries.append(("duality-residual", residual <= tol, residual, tol))
        entries += [(e.name, e.passed, e.residual, e.tolerance)
                    for e in check_limit_identities(kernel, dual).entries]
        table = {name: {"passed": passed, "residual": value,
                        "tolerance": limit}
                 for name, passed, value, limit in entries}
        ok = all(passed for _, passed, _, _ in entries)
        assert out == json.dumps({"ok": ok, "checks": table}, indent=2) + "\n"

    def test_tol_option_can_force_failure(self, solid_file, tmp_path):
        k = parse_material(solid_file.read_text())
        dual_path = tmp_path / "dual.json"
        dual_path.write_text(serialize_material(dualize(k)))
        assert run(["check", str(solid_file), "--against", str(dual_path),
                    "--tol", "1e-30"]) == 1


class TestSampleCommand:
    def test_csv_written(self, solid_file, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["sample", str(solid_file), "--t0", "0", "--t1", "5",
                    "--n", "11", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 12

    def test_log_spacing_zero_start_rejected(self, solid_file):
        assert run(["sample", str(solid_file), "--t0", "0", "--t1", "5",
                    "--n", "11", "--log"]) == 1

    @pytest.mark.parametrize("bounds", [["--t0", "0", "--t1", "inf"],
                                        ["--t0", "1", "--t1", "inf", "--log"],
                                        ["--t0", "nan", "--t1", "1"]])
    def test_non_finite_bounds_rejected(self, solid_file, bounds, capsys):
        assert run(["sample", str(solid_file), "--n", "3", *bounds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "t_end < inf" in captured.err


class TestLimitsCommand:
    def test_text_output(self, solid_file, capsys):
        assert run(["limits", str(solid_file)]) == 0
        out = capsys.readouterr().out
        assert "value_at_zero: 2.0" in out
        assert "value_at_infinity: 1.0" in out

    def test_json_unbounded_rendered_as_inf(self, tmp_path, capsys):
        fluid = ScalarCreep.make(fluidity=1.0)
        path = tmp_path / "fluid.json"
        path.write_text(serialize_material(fluid))
        assert run(["limits", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_at_infinity"] == "inf"


class TestRespondCommand:
    def test_step_history(self, solid_file, tmp_path, capsys):
        history = tmp_path / "step.json"
        history.write_text(json.dumps({
            "kind": "strain",
            "breakpoints": [{"t": 0.0, "value": 0.0},
                            {"t": 2.0, "value": 0.0}],
            "initial_jump": 1.0,
        }))
        assert run(["respond", str(solid_file), str(history),
                    "--n", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,value"
        t, v = (float(x) for x in lines[1].split(","))
        assert t == 0.0 and v == pytest.approx(2.0)

    def test_impulse_comment_for_dirac_kernel(self, tmp_path, capsys):
        k = ScalarRelaxation.make(newtonian=2.0, modes=[(1.0, 1.0)])
        kpath = tmp_path / "dirac.json"
        kpath.write_text(serialize_material(k))
        history = tmp_path / "step.json"
        history.write_text(json.dumps({
            "kind": "strain",
            "breakpoints": [{"t": 0.0, "value": 0.0}],
            "initial_jump": 1.0,
        }))
        assert run(["respond", str(kpath), str(history)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# impulse,t=0")

    def test_stress_history_needs_creep_kernel(self, solid_file, tmp_path):
        history = tmp_path / "stress.json"
        history.write_text(json.dumps({
            "kind": "stress",
            "breakpoints": [{"t": 0.0, "value": 0.0}],
            "initial_jump": 1.0,
        }))
        assert run(["respond", str(solid_file), str(history)]) == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_n_below_one_rejected(self, solid_file, tmp_path, count,
                                   capsys):
        history = tmp_path / "ramp.json"
        history.write_text(json.dumps({
            "kind": "strain",
            "breakpoints": [{"t": 0.0, "value": 0.0},
                            {"t": 2.0, "value": 1.0}],
        }))
        assert run(["respond", str(solid_file), str(history),
                    "--n", count]) == 1
        assert "--n must be at least 1" in capsys.readouterr().err

    def test_bad_history_kind(self, solid_file, tmp_path):
        history = tmp_path / "bad.json"
        history.write_text(json.dumps({"kind": "velocity",
                                       "breakpoints": [{"t": 0, "value": 0}]}))
        assert run(["respond", str(solid_file), str(history)]) == 1

    @pytest.mark.parametrize("doc", [
        [{"t": 0.0, "value": 0.0}],
        {"kind": "strain", "breakpoints": [1, 2]},
        {"kind": "strain", "breakpoints": [{"t": 0.0, "value": 0.0}],
         "initial_jump": "z"},
    ], ids=["list", "number-breakpoints", "text-jump"])
    def test_malformed_history_is_validation_error(self, solid_file, tmp_path,
                                                   doc, capsys):
        history = tmp_path / "bad.json"
        history.write_text(json.dumps(doc))
        assert run(["respond", str(solid_file), str(history)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestEigenstressCommand:
    def test_assembles_relaxation(self, tmp_path, capsys):
        doc = {
            "vectors": [[1.0, 0, 0, 0, 0, 0]],
            "spectra": [[{"rate": 2.0, "coefficient": 0.5}]],
            "mass": 4.0,
        }
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(doc))
        assert run(["eigenstress", str(path)]) == 0
        kernel = parse_material(capsys.readouterr().out)
        assert kernel.modes[0][0] == 2.0
        assert np.asarray(kernel.modes[0][1])[0, 0] == pytest.approx(2.0)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"vectors": [[1, 0, 0, 0, 0, 0]]}))
        assert run(["eigenstress", str(path)]) == 1


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["transmogrify", "x.json"]) == 2

    def test_malformed_json_history_is_usage_error(self, solid_file,
                                                   tmp_path):
        history = tmp_path / "broken.json"
        history.write_text("{not json")
        assert run(["respond", str(solid_file), str(history)]) == 2


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; the package runs on numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscodual.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, viscodual.cli; sys.exit('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0
