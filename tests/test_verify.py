import numpy as np
import pytest
from scipy.integrate import quad

import viscodual.cli
import viscodual.verify
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
from viscodual.kernels import TOL_PSD, matrix_norm, psd_flags
from viscodual.verify import _peak_candidates

from kernel_corpus import (
    _coefficients,
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
)
from loop_oracles import (
    eigvalsh_psd_flags,
    full_grid_residual,
    loop_matrix_limit_checks,
    loop_scalar_limit_checks,
)


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

    @pytest.mark.parametrize("times, values, jump", [
        ((0.0, 1.0, 2.0), (0.0, float("nan"), 1.0), None),
        ((0.0, 1.0), (0.0, 1.0), float("inf")),
        ((0.0, 1.0, float("inf")), (0.0, 1.0, 2.0), None),
    ], ids=["nan-value", "infinite-jump", "infinite-last-time"])
    def test_non_finite_history_rejected(self, times, values, jump):
        with pytest.raises(ValueError, match="finite"):
            StrainHistory(times, values, initial_jump=jump)

    def test_rate_beyond_last_breakpoint_is_zero(self):
        h = StrainHistory((0.0, 1.0), (0.0, 2.0))
        assert h.rate_at(0.5) == pytest.approx(2.0)
        assert h.rate_at(3.0) == 0.0

    def test_slopes_are_computed_once(self):
        h = StrainHistory((0.0, 1.0, 3.0), (0.0, 2.0, 1.0))
        assert h.slopes is h.slopes
        np.testing.assert_array_equal(h.slopes, [2.0, -0.5])
        assert not h.slopes.flags.writeable
        assert h.rate_at(2.0) == -0.5


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


def _outcome(residual, relaxation, creep):
    """A residual as a float hex, or the name of the error it raised."""
    try:
        return float(residual(relaxation, creep)).hex()
    except np.linalg.LinAlgError as exc:
        return type(exc).__name__


def _scaled(kernel, factor):
    """The kernel with every coefficient times ``factor``."""
    first, second = _coefficients(kernel)
    return type(kernel).make(factor * first, factor * second,
                             [(r, factor * w) for r, w in kernel.modes])


def _slower_first_rate(kernel):
    (rate, weight), *rest = kernel.modes
    return type(kernel).make(*_coefficients(kernel),
                             [(1.01 * rate, weight)] + rest)


def _matrix_pairs():
    """6x6 dual pairs of the corpus, relaxation first, and each pair with
    one rate of the dual times 1.01."""
    rng = np.random.default_rng(52)
    pairs = []
    for maker in (random_matrix_relaxation, random_matrix_creep):
        for _ in range(6):
            k = maker(rng)
            d = dualize(k)
            pairs.append((k, d) if k.relaxation else (d, k))
            if d.modes:
                wrong = _slower_first_rate(d)
                pairs.append((k, wrong) if k.relaxation else (wrong, k))
    return pairs


class TestPrunedResidual:
    """The 6x6 residual takes singular values only where it can peak, and
    equals, bit for bit, the residual of the whole grid."""

    @pytest.mark.parametrize("factor", [1.0, 2.0 ** -1000, 2.0 ** 1000])
    def test_equals_full_grid(self, factor):
        for r, c in _matrix_pairs():
            pair = _scaled(r, factor), _scaled(c, 1.0 / factor)
            assert (_outcome(duality_residual, *pair)
                    == _outcome(full_grid_residual, *pair))

    def test_nan_weight_fails_the_check(self, monkeypatch):
        r = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        c = dualize(r)
        (rate, _), = c.modes
        bad = ScalarCreep(c.instantaneous, c.fluidity, ((rate, np.nan),))
        assert np.isnan(duality_residual(r, bad))
        assert np.isnan(full_grid_residual(r, bad))
        kernels = {"relaxation.json": r, "creep.json": bad}
        monkeypatch.setattr(viscodual.cli, "_read", lambda path: path)
        monkeypatch.setattr(viscodual.cli, "parse_material", kernels.get)
        assert viscodual.cli.run(
            ["check", "relaxation.json", "--against", "creep.json"]) == 1
        # a 6x6 NaN reaches the singular-value call either way
        m = MatrixRelaxation.make(equilibrium=np.eye(6),
                                  modes=[(1.0, np.eye(6))])
        d = dualize(m)
        (rate, weight), = d.modes
        weight = np.array(weight)
        weight[1, 2] = np.nan
        bad = MatrixCreep(d.instantaneous, d.fluidity, ((rate, weight),))
        assert (_outcome(duality_residual, m, bad)
                == _outcome(full_grid_residual, m, bad) == "LinAlgError")

    def test_exact_mode_free_pair_and_empty_grid(self):
        r = MatrixRelaxation.make(equilibrium=np.eye(6))
        c = MatrixCreep.make(instantaneous=np.eye(6))
        assert duality_residual(r, c) == full_grid_residual(r, c) == 0.0
        assert duality_residual(*_matrix_pairs()[0], grid=[]) == 0.0

    def test_singular_values_only_where_the_residual_can_peak(
            self, monkeypatch):
        # these 24 pairs hand 220 of their 1090 grid times (20 %) to the
        # singular-value call; the bound is a quarter
        sizes = []

        def counting(stack):
            sizes.append(len(stack))
            return matrix_norm(stack)

        monkeypatch.setattr(viscodual.verify, "matrix_norm", counting)
        pairs = _matrix_pairs()
        times = sum(len(default_time_grid(r, c)) for r, c in pairs)
        for r, c in pairs:
            duality_residual(r, c)
        assert len(sizes) == len(pairs)
        assert sum(sizes) <= times / 4, (sum(sizes), times)
        # the limit identities take the norm of each misfit they report
        for r, c in pairs:
            sizes.clear()
            report = check_limit_identities(r, c)
            assert sizes == [sum(e.name.endswith("-reciprocity")
                                 for e in report.entries)]

    @pytest.mark.parametrize("log2_ratio", [0, -1070, 1100])
    def test_candidates_on_stacks_with_ties_and_non_finite_entries(
            self, log2_ratio):
        # rank-1 matrices, whose Frobenius norm is their norm, half of them
        # one column, whose column norm is too, at ratios an ulp or so
        # apart; zero matrices, and one NaN or infinite entry; ratios of
        # norm to weight near 1, subnormal, or beyond the float range,
        # where every matrix is taken
        rng = np.random.default_rng(53)
        for case in range(100):
            u, v = rng.normal(size=(2, 40, 6, 1))
            if case % 2:
                v = np.eye(6)[rng.integers(0, 6, 40), :, None]
            stack = u @ np.swapaxes(v, -1, -2)
            stack /= matrix_norm(stack)[:, None, None]
            stack *= (1.0 + rng.integers(0, 3, 40) * 2.0 ** -52)[:, None, None]
            stack[rng.integers(0, 40, 5)] = 0.0
            if case % 3:
                bad = (np.nan, np.inf)[case % 3 - 1]
                stack[rng.integers(0, 40), 2, 3] = bad
            exponent = float(rng.integers(-200, 200))
            weight = np.full(40, 2.0 ** (exponent - log2_ratio / 2))
            stack *= 2.0 ** (exponent + log2_ratio / 2)
            with np.errstate(over="ignore"):
                take = _peak_candidates(stack, weight)
            assert take[np.isnan(stack).any(axis=(1, 2))].all()
            if np.isnan(stack).any():   # the singular values raise
                continue
            with np.errstate(over="ignore"):
                full = matrix_norm(stack) / weight
                got = np.max(matrix_norm(stack[take]) / weight[take],
                             initial=0.0)
            if log2_ratio == 0 and np.isfinite(stack).all():
                assert not take[np.all(stack == 0.0, axis=(1, 2))].any()
            assert take[~np.isfinite(full)].all()
            assert float(got).hex() == float(np.max(full)).hex()

    def test_candidates_at_ratios_with_subnormal_squares(self):
        # ratios of norm to weight near 2^-537 square to a few bits, which
        # leave the bounds no margin, so every matrix is taken
        rng = np.random.default_rng(54)
        for _ in range(3000):
            d, n = rng.integers(2, 7), rng.integers(2, 6)
            stack = rng.normal(size=(n, d, d)) * 2.0 ** -537
            stack[:, :, 1:] *= rng.integers(0, 2)   # or one column
            weight = np.full(n, 2.0 ** float(rng.integers(-3, 5)))
            take = _peak_candidates(stack, weight)
            got = np.max(matrix_norm(stack[take]) / weight[take])
            assert (float(got).hex()
                    == float(np.max(matrix_norm(stack) / weight)).hex())


class TestPsdFlagsOf1x1:
    def test_eigenvalue_read_off_the_entry_as_eigvalsh_gives_it(self):
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0,
                           1e300, -1e300, 5e-324, -3.5, 2.0, 1e-12])
        stack = values[:, None, None]
        # eigvalsh returns a 1x1 matrix's entry, to the bit
        np.testing.assert_array_equal(
            np.linalg.eigvalsh(stack)[:, 0].view(np.uint64),
            values.view(np.uint64))
        for tol in (TOL_PSD, np.geomspace(1e-12, 1.0, values.size)):
            with np.errstate(invalid="ignore"):   # inf - inf in the symmetry
                got = psd_flags(stack, tol)
                expected = eigvalsh_psd_flags(stack, tol)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()
