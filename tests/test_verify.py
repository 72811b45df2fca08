import numpy as np
import pytest
from scipy.integrate import quad

from viscodual import (
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    StrainHistory,
    check_limit_identities,
    check_wellformed,
    convolution_value,
    default_time_grid,
    duality_residual,
    dualize,
    eval_creep,
    eval_relaxation,
    respond,
    respond_creep,
)

from kernel_corpus import (
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
)
from loop_oracles import loop_matrix_limit_checks, loop_scalar_limit_checks


class TestCheckWellformed:
    def test_valid_corpus_passes(self):
        rng = np.random.default_rng(41)
        makers = [random_scalar_relaxation, random_scalar_creep,
                  random_matrix_relaxation, random_matrix_creep]
        for maker in makers:
            for _ in range(10):
                report = check_wellformed(maker(rng))
                assert report.ok, [e for e in report.entries if not e.passed]

    def test_negative_weight_flagged(self):
        # bypass canonicalization to probe the checker itself
        k = ScalarRelaxation(newtonian=0.0, equilibrium=1.0,
                             modes=((1.0, -0.5),))
        report = check_wellformed(k)
        assert not report.ok
        assert not report.entry("weights-positive").passed

    def test_unsorted_rates_flagged(self):
        k = ScalarCreep(instantaneous=1.0, fluidity=0.0,
                        modes=((2.0, 1.0), (1.0, 1.0)))
        report = check_wellformed(k)
        assert not report.entry("rates-sorted-distinct").passed

    def test_indefinite_matrix_weight_flagged(self):
        w = np.diag([1.0, 1, 1, 1, 1, -1.0])
        k = MatrixRelaxation(newtonian=np.zeros((6, 6)),
                             equilibrium=np.eye(6), modes=((1.0, w),))
        report = check_wellformed(k)
        assert not report.entry("weights-psd").passed

    def test_alternation_entries_present(self):
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        report = check_wellformed(k)
        for order in range(4):
            assert report.entry(f"sampled-alternation-order-{order}").passed

    def test_kernels_without_modes_pass(self):
        # a creep line has exact-zero higher derivatives; a Maxwell dual
        for kernel in (ScalarCreep.make(1.0, 1.0),
                       MatrixCreep.make(np.eye(6), np.eye(6)),
                       dualize(ScalarRelaxation.make(modes=[(1.0, 1.0)]))):
            report = check_wellformed(kernel)
            assert report.ok, [e for e in report.entries if not e.passed]

    def test_far_apart_rates_do_not_overflow(self):
        # r^3 of the fastest mode would overflow; a RuntimeWarning fails
        for kernel in (ScalarRelaxation.make(1.0, 1.0, [(1e-200, 1.0),
                                                        (1e200, 1.0)]),
                       MatrixCreep.make(np.eye(6), None,
                                        [(1e-200, np.eye(6)),
                                         (1e250, np.eye(6))])):
            assert check_wellformed(kernel).ok

    def test_report_entry_lookup(self):
        k = ScalarCreep.make(instantaneous=1.0)
        report = check_wellformed(k)
        with pytest.raises(KeyError):
            report.entry("no-such-check")
        d = report.as_dict()
        assert all(v["passed"] for v in d.values())


def quad_convolution(relaxation, creep, t):
    """Quadrature oracle for (R * C)(t); Dirac part added in closed form."""
    value, _ = quad(
        lambda u: eval_relaxation(relaxation, u) * eval_creep(creep, t - u),
        0.0, t, limit=200)
    return value + relaxation.newtonian * eval_creep(creep, t)


class TestConvolutionValue:
    def test_matches_quadrature_scalar(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            r = random_scalar_relaxation(rng)
            c = random_scalar_creep(rng)
            for t in [0.3, 1.7, 9.0]:
                assert convolution_value(r, c, t) == pytest.approx(
                    quad_convolution(r, c, t), rel=1e-8)

    def test_matches_quadrature_matrix_entry(self):
        rng = np.random.default_rng(43)
        r = random_matrix_relaxation(rng, n_max=2)
        c = random_matrix_creep(rng, n_max=2)
        t = 1.3
        value = convolution_value(r, c, t)
        for (i, j) in [(0, 0), (2, 4), (5, 5)]:
            oracle, _ = quad(
                lambda u: float(
                    (eval_relaxation(r, u) @ eval_creep(c, t - u))[i, j]),
                0.0, t, limit=200)
            oracle += float((np.asarray(r.newtonian) @ eval_creep(c, t))[i, j])
            assert value[i, j] == pytest.approx(oracle, rel=1e-7, abs=1e-9)

    def test_equal_rate_branch_continuous(self):
        r = ScalarRelaxation.make(modes=[(1.0, 1.0)])
        c_a = ScalarCreep.make(instantaneous=1.0, modes=[(1.0, 0.5)])
        c_b = ScalarCreep.make(instantaneous=1.0, modes=[(1.0 + 1e-11, 0.5)])
        t = 2.0
        assert convolution_value(r, c_a, t) == pytest.approx(
            convolution_value(r, c_b, t), rel=1e-9)

    def test_mixed_kinds_rejected(self):
        r = ScalarRelaxation.make(equilibrium=1.0)
        c = MatrixCreep.make(instantaneous=np.eye(6))
        with pytest.raises(TypeError):
            convolution_value(r, c, 1.0)


class TestDualityResidual:
    def test_dual_pairs_have_tiny_residual(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            r = random_scalar_relaxation(rng)
            assert duality_residual(r, dualize(r)) < 1e-10

    def test_matrix_dual_pairs(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            r = random_matrix_relaxation(rng)
            assert duality_residual(r, dualize(r)) < 1e-8

    def test_mismatched_pair_detected(self):
        r = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        wrong = ScalarCreep.make(instantaneous=1.0, modes=[(0.5, 0.3)])
        assert duality_residual(r, wrong) > 1e-2

    def test_default_grid_spans_rates(self):
        r = ScalarRelaxation.make(modes=[(10.0, 1.0)])
        c = dualize(r)
        grid = default_time_grid(r, c)
        assert len(grid) == 33
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e2)

    def test_default_grid_reaches_slowest_mode(self):
        r = ScalarRelaxation.make(modes=[(1e-4, 1.0), (10.0, 1.0)])
        c = dualize(r)
        slowest = min(rate for k in (r, c) for rate, _ in k.modes)
        grid = default_time_grid(r, c)
        assert grid[0] == pytest.approx(1e-3 / 10.0)
        assert grid[-1] == pytest.approx(1e3 / slowest)
        decades = np.log10(grid[-1] / grid[0])
        assert len(grid) - 1 >= 16.0 / 3.0 * decades

    def test_wide_pair_missing_its_slowest_mode_detected(self):
        r = ScalarRelaxation.make(modes=[(10.0 ** k, 1.0)
                                         for k in range(-8, 9)])
        c = dualize(r)
        assert duality_residual(r, c) < 1e-12
        wrong = ScalarCreep.make(c.instantaneous, c.fluidity, c.modes[1:])
        assert duality_residual(r, wrong) > 0.1


class TestLimitIdentities:
    def test_scalar_solid_pair(self):
        r = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        report = check_limit_identities(r, dualize(r))
        assert report.ok
        assert report.entry("long-time-reciprocity").passed
        assert report.entry("fluidity-vanishes").passed

    def test_scalar_fluid_pair(self):
        r = ScalarRelaxation.make(modes=[(1.0, 1.0), (3.0, 1.0)])
        report = check_limit_identities(r, dualize(r))
        assert report.ok
        assert report.entry("fluid-dual-has-fluidity").passed

    def test_scalar_dirac_pair(self):
        r = ScalarRelaxation.make(newtonian=1.0, modes=[(1.0, 1.0)])
        report = check_limit_identities(r, dualize(r))
        assert report.ok
        assert report.entry("creep-starts-at-zero").passed
        assert report.entry("newtonian-slope-reciprocity").passed

    def test_matrix_pairs(self):
        rng = np.random.default_rng(46)
        for _ in range(8):
            r = random_matrix_relaxation(rng)
            report = check_limit_identities(r, dualize(r))
            assert report.ok, [e for e in report.entries if not e.passed]

    def test_merged_body_matches_former_bodies(self):
        # right duals of all four kinds, plus one tampered dual per size
        rng = np.random.default_rng(48)
        pairs = []
        for maker in (random_scalar_relaxation, random_scalar_creep,
                      random_matrix_relaxation, random_matrix_creep):
            for _ in range(12):
                k = maker(rng)
                pairs.append((k, dualize(k)) if k.relaxation
                             else (dualize(k), k))
        for r in (ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)]),
                  MatrixRelaxation.make(equilibrium=np.eye(6),
                                        modes=[(1.0, 2.0 * np.eye(6))])):
            c = dualize(r)
            pairs.append((r, type(c).make(1.01 * np.asarray(c.instantaneous),
                                          c.fluidity, c.modes)))
        gained = {"scalar": 0, "matrix": 0}
        for r, c in pairs:
            scalar = np.ndim(r.newtonian) == 0
            former = (loop_scalar_limit_checks if scalar
                      else loop_matrix_limit_checks)(r, c)
            merged = check_limit_identities(r, c)
            assert merged.ok == former.ok
            for e in former.entries:
                assert merged.entry(e.name).passed == e.passed
                assert abs(merged.entry(e.name).residual - e.residual) <= 1e-12
            added = ({e.name for e in merged.entries}
                     - {e.name for e in former.entries})
            if scalar:
                expected = {"equilibrium-vanishes"} if c.fluidity > 0 else set()
            else:
                expected = (set() if np.any(r.equilibrium)
                            else {"fluid-dual-has-fluidity"})
            assert added == expected
            gained["scalar" if scalar else "matrix"] += bool(added)
        assert not check_limit_identities(*pairs[-2]).ok
        assert not check_limit_identities(*pairs[-1]).ok
        assert min(gained.values()) > 0

    def test_linalg_count_per_matrix_pair(self, monkeypatch):
        # one batched norm and one batched eigvalsh, however many modes
        rng = np.random.default_rng(49)
        r = random_matrix_relaxation(rng)
        c = dualize(r)
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("norm", "eigvalsh", "eigh", "eig", "eigvals", "svd",
                     "solve", "inv", "cholesky", "det", "qr", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name,
                                counted(name, getattr(np.linalg, name)))
        assert check_limit_identities(r, c).ok
        assert len(calls) <= 2, calls

    def test_violated_identity_detected(self):
        r = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        c = dualize(r)
        tampered = ScalarCreep.make(instantaneous=c.instantaneous * 1.01,
                                    modes=c.modes)
        assert not check_limit_identities(r, tampered).ok


class TestStrainHistory:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            StrainHistory((1.0, 2.0), (0.0, 1.0))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            StrainHistory((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))

    def test_value_count_must_match(self):
        with pytest.raises(ValueError):
            StrainHistory((0.0, 1.0), (0.0,))

    def test_rate_beyond_last_breakpoint_is_zero(self):
        h = StrainHistory((0.0, 1.0), (0.0, 2.0))
        assert h.rate_at(0.5) == pytest.approx(2.0)
        assert h.rate_at(3.0) == 0.0


class TestRespond:
    def test_step_strain_reproduces_relaxation(self):
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[(2.0, 3.0)])
        history = StrainHistory((0.0,), (0.0,), initial_jump=1.0)
        times = [0.0, 0.5, 2.0, 10.0]
        series = respond(k, history, times)
        for t, v in zip(series.times, series.values):
            assert v == pytest.approx(eval_relaxation(k, t), rel=1e-12)
        assert series.impulses == ()

    def test_dirac_step_emits_impulse(self):
        k = ScalarRelaxation.make(newtonian=2.0, modes=[(1.0, 1.0)])
        history = StrainHistory((0.0,), (0.0,), initial_jump=3.0)
        series = respond(k, history, [1.0])
        assert series.impulses == ((0.0, 6.0),)

    def test_ramp_strain_matches_quadrature(self):
        k = ScalarRelaxation.make(newtonian=0.5, equilibrium=1.0,
                                  modes=[(1.0, 2.0)])
        T = 4.0
        history = StrainHistory((0.0, T), (0.0, T))   # unit strain rate
        times = [0.7, 2.5, 3.9]
        series = respond(k, history, times)
        for t, v in zip(series.times, series.values):
            oracle, _ = quad(lambda u: eval_relaxation(k, u), 0.0, t)
            assert v == pytest.approx(oracle + k.newtonian, rel=1e-10)

    def test_rate_drops_after_ramp_ends(self):
        k = ScalarRelaxation.make(newtonian=1.0, equilibrium=1.0)
        history = StrainHistory((0.0, 1.0), (0.0, 1.0))
        series = respond(k, history, [0.5, 2.0])
        # dirac term present while ramping, absent once the history is flat
        assert series.values[0] == pytest.approx(1.0 * 0.5 + 1.0)
        assert series.values[1] == pytest.approx(1.0)

    def test_matrix_step(self):
        rng = np.random.default_rng(47)
        k = random_matrix_relaxation(rng, n_max=2)
        jump = np.array([1.0, 0, 0, 0.5, 0, 0])
        history = StrainHistory((0.0,), (np.zeros(6),), initial_jump=jump)
        series = respond(k, history, [1.1])
        np.testing.assert_allclose(series.values[0],
                                   eval_relaxation(k, 1.1) @ jump, rtol=1e-12)

    def test_creep_step_reproduces_creep(self):
        k = ScalarCreep.make(instantaneous=0.5, fluidity=0.25,
                             modes=[(1.0, 1.0)])
        history = StrainHistory((0.0,), (0.0,), initial_jump=1.0)
        series = respond_creep(k, history, [0.0, 1.0, 5.0])
        for t, v in zip(series.times, series.values):
            assert v == pytest.approx(eval_creep(k, t), rel=1e-12)

    def test_kernel_kind_enforced(self):
        c = ScalarCreep.make(instantaneous=1.0)
        history = StrainHistory((0.0,), (0.0,), initial_jump=1.0)
        with pytest.raises(TypeError):
            respond(c, history, [1.0])
        r = ScalarRelaxation.make(equilibrium=1.0)
        with pytest.raises(TypeError):
            respond_creep(r, history, [1.0])

    def test_dimension_mismatch_rejected(self):
        r = ScalarRelaxation.make(equilibrium=1.0)
        history = StrainHistory((0.0,), (np.zeros(6),),
                                initial_jump=np.ones(6))
        with pytest.raises(ValueError):
            respond(r, history, [1.0])
