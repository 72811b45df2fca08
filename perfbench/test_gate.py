"""The gate must reject corrupted outputs, and the harness must count them.

    python3 -m pytest perfbench/test_gate.py

Run from the root of a source checkout.
"""

import copy
import dataclasses
import json

import run  # sets the thread variables and the import path
import corpus
import gate
import numpy as np
import pytest

run.sys.path.insert(0, run.SRC)
import viscodual as vd  # noqa: E402
import viscodual.cli  # noqa: E402,F401

SCALAR = {"kind": "relaxation", "dimension": "scalar", "dirac": 0.3,
          "equilibrium": 1.0,
          "modes": [{"rate": 0.5, "weight": 2.0}, {"rate": 4.0, "weight": 1.0},
                    {"rate": 30.0, "weight": 0.7}]}


def matrix_doc():
    bank = corpus.load_bank()
    return corpus.banked_draw(np.random.default_rng(0), bank, "matrix6", "creep", 3,
                              ("full", "singular"))


def dual_doc(doc):
    return json.loads(vd.serialize_material(vd.dualize(vd.parse_material(json.dumps(doc)))))


def ok(doc, dual):
    return gate.dual_ok(doc, json.dumps(dual))


@pytest.mark.parametrize("make", [lambda: SCALAR, matrix_doc], ids=["scalar", "matrix6"])
@pytest.mark.parametrize("field", ["rate", "weight"])
def test_corrupted_dual_is_rejected(make, field):
    doc = make()
    dual = dual_doc(doc)
    assert ok(doc, dual)
    bad = copy.deepcopy(dual)
    mode = bad["modes"][len(bad["modes"]) // 2]
    mode[field] = (np.asarray(mode[field]) * 1.01).tolist()
    assert not ok(doc, bad)


def test_wrong_kind_is_rejected():
    assert not ok(SCALAR, SCALAR)
    assert not gate.dual_ok(SCALAR, "{not json")


def test_corrupted_respond_and_sample_rows_are_rejected(tmp_path):
    data = corpus.generate("scalar-fits", 0)
    item = data["respond"][0]
    kernel, history, out = (tmp_path / "k.json", tmp_path / "h.json", tmp_path / "o.csv")
    kernel.write_text(json.dumps(item["kernel"]))
    history.write_text(json.dumps(item["history"]))
    assert vd.cli.run(["respond", str(kernel), str(history), "--n", str(item["rows"]),
                       "-o", str(out)]) == 0
    text = out.read_text()
    rows = [3, item["rows"] // 2, item["rows"] - 1]
    assert gate.respond_error(item, text, rows) <= gate.RESPOND_TOL
    lines = text.splitlines()
    index = next(i for i, x in enumerate(lines) if x.startswith("t,")) + 1 + rows[1]
    t, value = lines[index].split(",")
    lines[index] = f"{t},{float(value) * 1.001!r}"
    assert gate.respond_error(item, "\n".join(lines), rows) > gate.RESPOND_TOL

    item = data["sample"][0]
    kernel.write_text(json.dumps(item["kernel"]))
    assert vd.cli.run(["sample", str(kernel), "--t0", repr(item["t0"]), "--t1",
                       repr(item["t1"]), "--n", str(item["rows"]), "-o", str(out)]
                      + (["--log"] if item["log"] else [])) == 0
    text = out.read_text()
    assert gate.sample_error(item, text) <= gate.SAMPLE_TOL
    lines = text.splitlines()
    t, value = lines[7].split(",")
    lines[7] = f"{t},{float(value) * (1 + 1e-8)!r}"
    assert gate.sample_error(item, "\n".join(lines)) > gate.SAMPLE_TOL


def test_harness_counts_wrong_duals_without_aborting(monkeypatch):
    original = vd.dualize

    def corrupted(kernel):
        dual = original(kernel)
        if not dual.modes:
            return dual
        rate, weight = dual.modes[0]
        return dataclasses.replace(dual, modes=((rate * 1.01, weight),) + dual.modes[1:])

    bench = run.Bench("scalar-fits", 0, tracing=False)
    monkeypatch.setattr(vd, "dualize", corrupted)
    try:
        bench.measure(1.0)
    finally:
        bench.close()
    convert = bench.passes["convert"]
    assert convert.attempted > 0
    assert 0 < convert.wrong < convert.attempted
