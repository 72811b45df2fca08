import collections

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import viscodual
from viscodual import (
    MatrixCreep,
    MatrixRelaxation,
    NumericsError,
    ScalarCreep,
    ScalarRelaxation,
    laplace_times_p,
    serialize_material,
)
from viscodual.cli import run
from viscodual.kernels import matrix_norm, psd_flags
from viscodual.rational import (
    TOL_CLUSTER,
    TOL_NULLSPACE,
    CbfImage,
    _image_nullspace,
    _least_weight_eig,
    _nullspace_residues,
    _refine_roots,
    cbf_as_rational,
    cbf_image,
    decompose_inverse,
    image_pencil_roots,
    interlaced_roots,
    stieltjes_partial_fractions,
)

from kernel_corpus import (
    image_numerator,
    image_value,
    kernel_scale,
    pole_resolution,
    random_gram,
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
    rate_set,
)
from loop_oracles import constant_by_subtraction


class TestScalarRationalForms:
    def test_standard_solid_numerator(self):
        # f = 1 + exp(-t): p ftilde = 1 + p/(p + 1) = (2p + 1)/(p + 1)
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        dirac, constant, rates, weights = cbf_as_rational(k)
        assert (dirac, constant) == (0.0, 1.0)
        assert rates.tolist() == [1.0] and weights.tolist() == [1.0]
        assert image_numerator(k) == pytest.approx([1.0, 2.0])

    def test_rational_image_matches_mode_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            k = random_scalar_relaxation(rng)
            image = cbf_as_rational(k)
            for p in 10.0 ** rng.uniform(-2, 2, size=5):
                assert image_value(image, p) == pytest.approx(
                    laplace_times_p(k, p), rel=1e-11)

    def test_creep_rational_image(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            k = random_scalar_creep(rng)
            image = cbf_as_rational(k)
            for p in 10.0 ** rng.uniform(-2, 2, size=5):
                assert image_value(image, p) / p == pytest.approx(
                    laplace_times_p(k, p), rel=1e-11)


def companion_root_oracle(kernel):
    """Real negative roots of the expanded numerator via numpy's companion
    solver."""
    roots = np.roots(image_numerator(kernel)[::-1])
    roots = roots[np.abs(roots.imag) < 1e-9 * (1 + np.abs(roots))]
    out = sorted(-r.real for r in roots if r.real < 0)
    return [s for s in out if s > 1e-13]


class TestInterlacedRoots:
    def test_root_count_law(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            k = random_scalar_relaxation(rng)
            roots = interlaced_roots(*cbf_as_rational(k))
            n = len(k.modes)
            expected = n - (1 if k.equilibrium == 0 else 0) \
                + (1 if k.newtonian > 0 else 0)
            assert len(roots) == expected

    def test_roots_interlace_rates(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            k = random_scalar_relaxation(rng)
            if len(k.modes) < 2:
                continue
            roots = interlaced_roots(*cbf_as_rational(k)).tolist()
            rates = [r for r, _ in k.modes]
            merged = sorted(roots + rates)
            # strictly alternating: no two roots without a rate between them
            for x, y in zip(merged, merged[1:]):
                assert (x in roots) != (y in roots)

    def test_matches_companion_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(150):
            k = random_scalar_relaxation(rng)
            roots = interlaced_roots(*cbf_as_rational(k))
            oracle = companion_root_oracle(k)
            assert len(roots) == len(oracle)
            for a, b in zip(sorted(roots), oracle):
                assert a == pytest.approx(b, rel=1e-9)

    def test_creep_roots_follow_the_same_law(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            k = random_scalar_creep(rng)
            roots = interlaced_roots(*cbf_as_rational(k))
            assert len(roots) == len(k.modes) - (k.fluidity == 0) \
                + (k.instantaneous > 0)
            oracle = companion_root_oracle(k)
            assert len(roots) == len(oracle)
            for a, b in zip(sorted(roots), oracle):
                assert a == pytest.approx(b, rel=1e-9)

    def test_non_finite_image_raises(self):
        rates, weights = np.array([1.0, 3.0]), np.array([1.0, 2.0])
        with pytest.raises(NumericsError, match="NaN"):
            interlaced_roots(np.nan, 1.0, rates, weights)
        # a kernel built around make's validation never gives a dual
        k = ScalarRelaxation(0.0, 1.0, ((1.0, 1.0), (3.0, np.nan)))
        with pytest.raises(NumericsError, match="NaN"):
            viscodual.dualize(k)


def _mp_secular(X, Y, rates, weights):
    """Roots of ``U(-s)`` and masses ``1/U'(-s)`` at 40 digits, found apart
    from :func:`interlaced_roots`: each bracket is halved in mpmath to
    relative width 1e-12, then polished by ``mpmath.findroot``."""
    with mpmath.workdps(40):
        X, Y = mpmath.mpf(X), mpmath.mpf(Y)
        pairs = [(mpmath.mpf(t), mpmath.mpf(w))
                 for t, w in zip(rates, weights)]

        def value(s):
            return -X * s + Y + mpmath.fsum(w * s / (s - t) for t, w in pairs)

        def slope(s):
            return X + mpmath.fsum(w * t / (t - s) ** 2 for t, w in pairs)

        ends = [mpmath.mpf(0)] + [t for t, _ in pairs]
        brackets = list(zip(ends, ends[1:]))[0 if Y > 0 else 1:]
        if X > 0:
            total = mpmath.fsum(w for _, w in pairs)
            brackets.append((ends[-1], 2 * max(ends[-1], (Y + 2 * total) / X)))
        roots = []
        for a, b in brackets:
            lo, hi = a, b
            while hi - lo > mpmath.mpf(10) ** -12 * hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if value(mid) > 0 else (lo, mid)
            s = mpmath.findroot(value, (lo, hi), solver="secant")
            assert a < s < b
            roots.append(s)
        return (np.array([float(s) for s in roots]),
                np.array([float(1 / slope(s)) for s in roots]))


def _decade_image(seed, decades, constant):
    """``(X, Y, rates, weights)`` of a Prony fit with one jittered rate per
    decade over ``decades`` decades around 1, weights in [0.2, 5]."""
    rng = np.random.default_rng(seed)
    rates = 10.0 ** (-decades / 2.0 + np.arange(decades + 1)
                     + rng.uniform(-0.25, 0.25, size=decades + 1))
    return 0.0, constant, rates, rng.uniform(0.2, 5.0, size=decades + 1)


_NARROW_RATES = np.array([0.02, 0.3, 1.0, 7.0, 60.0])
_NARROW_WEIGHTS = np.array([1.5, 0.4, 2.0, 0.9, 3.0])


def _counting_evaluations(monkeypatch):
    """Wrap the evaluator of the root iteration; returns the list of the
    points it is called at, one entry per call."""
    calls = []
    evaluate = viscodual.rational._secular_terms

    def counting(*args):
        calls.append(args[-1])
        return evaluate(*args)

    monkeypatch.setattr(viscodual.rational, "_secular_terms", counting)
    return calls


class TestSecularIteration:
    """The rational-interpolation root iteration against a 40-digit oracle."""

    @pytest.mark.parametrize("image", [
        _decade_image(1, 20, 0.0), _decade_image(2, 20, 1.3),
        _decade_image(3, 30, 0.0), _decade_image(4, 30, 0.7),
        (0.0, 0.0, 10.0 ** np.arange(-8.0, 9.0), np.ones(17)),
        (0.0, 1.0, 10.0 ** np.arange(-8.0, 9.0), np.ones(17)),
        # narrow spectra start from the arrowhead's eigenvalues, in both
        # of its shapes (X = 0 and X > 0)
        _decade_image(5, 4, 0.0), _decade_image(6, 4, 1.3),
        (0.7, 0.0, _NARROW_RATES, _NARROW_WEIGHTS),
        (2.5, 1.1, _NARROW_RATES, _NARROW_WEIGHTS),
    ], ids=["20-fluid", "20-solid", "30-fluid", "30-solid",
            "17-equal-fluid", "17-equal-solid", "4-fluid", "4-solid",
            "4-dirac-fluid", "4-dirac-solid"])
    def test_wide_spectra_against_high_precision(self, image):
        roots = interlaced_roots(*image)
        _, _, masses = stieltjes_partial_fractions(*image, roots)
        oracle_roots, oracle_masses = _mp_secular(*image)
        assert roots.shape == oracle_roots.shape
        assert np.max(np.abs(roots - oracle_roots) / oracle_roots) <= 1e-14
        assert np.max(np.abs(masses - oracle_masses) / oracle_masses) <= 1e-12

    @pytest.mark.parametrize("image", [
        (0.0, 1.0, [1.0, 1.0 + 1e-11], [1.0, 1.0]),
        (1.0, 1.0, [1.0, 1.0 + 1e-11, 3.0], [1.0, 2.0, 1.0]),
        # both roots lie 1e-12 from the rate 1
        (0.0, 1.0, [1.0, 2.0], [2e-24, 1.0]),
    ], ids=["close-rates", "close-rates-inside", "roots-at-a-rate"])
    def test_adversarial_brackets(self, image):
        X, Y, rates, weights = image
        roots = interlaced_roots(X, Y, np.array(rates), np.array(weights))
        oracle, _ = _mp_secular(*image)
        assert roots.shape == oracle.shape
        assert np.max(np.abs(roots - oracle) / oracle) <= 1e-14
        # strictly interlaced
        merged = np.sort(np.concatenate([roots, rates]))
        assert np.all(np.diff(merged) > 0.0)

    @pytest.mark.parametrize("X, Y, weights", [
        (0.0, 1.0, [1.0, 1e-20]), (1.0, 1.0, [1.0, 1e-20])])
    def test_root_closer_to_a_rate_than_an_ulp(self, X, Y, weights):
        # the root next to the rate 2 lies about 1e-20 below it: the model
        # step rounds onto the rate, and the bracket closes in below it
        rates = np.array([1.0, 2.0])
        roots = interlaced_roots(X, Y, rates, np.array(weights))
        assert roots.size == 2 + (X > 0.0)
        [root] = roots[(roots > 1.0) & (roots < 2.0)]
        assert 2.0 - root <= 1e-14 * 2.0
        merged = np.sort(np.concatenate([roots, rates]))
        assert np.all(np.diff(merged) > 0.0)

    @settings(deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           decades=st.floats(-100.0, 100.0),
           relaxation=st.booleans())
    def test_roots_follow_the_time_unit(self, seed, decades, relaxation):
        # rates c t and dirac X/c give U(-s/c) for U(-s): every root is
        # scaled by c, over two hundred decades of c
        c = 10.0 ** decades
        rng = np.random.default_rng(seed)
        make = random_scalar_relaxation if relaxation else random_scalar_creep
        X, Y, rates, weights = cbf_as_rational(make(rng, n_max=12))
        roots = interlaced_roots(X, Y, rates, weights)
        scaled = interlaced_roots(X / c, Y, c * rates, weights)
        np.testing.assert_allclose(scaled, c * roots, rtol=1e-14, atol=0.0)

    def test_evaluations_per_call(self, monkeypatch):
        # a timing-free guard: a fall-back to bisection (about 50
        # evaluations per call) fails here on any host
        calls = _counting_evaluations(monkeypatch)
        rng = np.random.default_rng(41)
        counts = []
        for i in range(400):
            make = random_scalar_relaxation if i % 2 else random_scalar_creep
            image = cbf_as_rational(make(rng, n_max=12))
            calls.clear()
            if interlaced_roots(*image).size:
                counts.append(len(calls))
        assert len(counts) >= 300
        assert np.median(counts) <= 2
        assert max(counts) <= 3

    def test_arrowhead_start_only_on_narrow_spans(self, monkeypatch):
        # one symmetric eigensolve starts a 4-decade spectrum; at 30
        # decades its rounding would exceed the slowest root, so the
        # brackets start from their midpoints instead
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        interlaced_roots(*_decade_image(1, 4, 0.0))
        assert calls == [(5, 5)]
        calls.clear()
        interlaced_roots(*_decade_image(3, 30, 0.0))
        assert calls == []

    @pytest.mark.parametrize("weight", [1e-13, 1e-10, 1e-6])
    def test_pole_of_tiny_weight(self, weight, monkeypatch):
        # the two lowest roots lie about sqrt(weight)/sqrt(20) either side
        # of the rate 1, whose weight is tiny; a model pole at 1 fitted to
        # the slope of the weight-1 pole at 2 only halves the distance to
        # the root per step, so the roots are taken about the rate
        # (_about_rates) at the two tiny weights, and iterate from the
        # arrowhead's starts, next to them, at 1e-6
        k = ScalarRelaxation.make(equilibrium=1.0,
                                  modes=[(1.0, weight), (2.0, 1.0)])
        calls = _counting_evaluations(monkeypatch)
        roots = np.array([s for s, _ in viscodual.dualize(k).modes])
        assert len(calls) <= 8
        X, Y, rates, weights = cbf_as_rational(k)
        oracle, _ = _mp_secular(float(X), float(Y), rates, weights)
        assert roots.shape == oracle.shape == (2,)
        assert np.max(np.abs(roots - oracle) / oracle) <= 1e-15

    def test_nan_raises_at_once(self, monkeypatch):
        calls = _counting_evaluations(monkeypatch)
        with pytest.raises(NumericsError, match="NaN"):
            interlaced_roots(np.nan, 1.0, np.array([1.0, 3.0]),
                             np.array([1.0, 2.0]))
        assert 1 <= len(calls) <= 2


class TestScalarPartialFractions:
    def test_standard_solid_decomposition(self):
        # reciprocal of (2p+1)/(p+1): constant 1/2, mode (1/2, 1/4)
        image = (0.0, 1.0, np.array([1.0]), np.array([1.0]))
        roots = interlaced_roots(*image)
        constant, zero_mass, masses = stieltjes_partial_fractions(
            *image, roots)
        assert constant == pytest.approx(0.5)
        assert zero_mass == 0.0
        assert roots.tolist() == pytest.approx([0.5])
        assert masses.tolist() == pytest.approx([0.25])

    def test_zero_mass_when_numerator_vanishes_at_origin(self):
        # maxwell: U = p/(p + 1) -> 1/p + 1 (fluidity 1, instantaneous 1)
        image = (0.0, 0.0, np.array([1.0]), np.array([1.0]))
        roots = interlaced_roots(*image)
        assert roots.size == 0
        constant, zero_mass, masses = stieltjes_partial_fractions(
            *image, roots)
        assert constant == pytest.approx(1.0)
        assert zero_mass == pytest.approx(1.0)
        assert masses.size == 0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(26)
        for make in [random_scalar_relaxation] * 60 + [random_scalar_creep] * 60:
            image = cbf_as_rational(make(rng))
            roots = interlaced_roots(*image)
            constant, zero_mass, masses = stieltjes_partial_fractions(
                *image, roots)
            for p in 10.0 ** rng.uniform(-2, 2, size=4):
                inverse = constant + zero_mass / p + np.sum(
                    masses / (p + roots))
                assert inverse * image_value(image, p) == pytest.approx(
                    1.0, rel=1e-9)

    def test_non_positive_mass_raises(self):
        # a negative weight breaks the Stieltjes structure
        image = (0.0, 2.0, np.array([1.0]), np.array([-1.0]))
        with pytest.raises(NumericsError, match="finite and positive"):
            stieltjes_partial_fractions(*image, np.array([0.5]))


class TestCbfImage:
    def test_relaxation_image_matches_laplace(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            k = random_matrix_relaxation(rng)
            image = cbf_image(k)
            for p in 10.0 ** rng.uniform(-1, 1, size=3):
                np.testing.assert_allclose(
                    image(p), laplace_times_p(k, p),
                    rtol=1e-12, atol=1e-14 * kernel_scale(k))

    def test_creep_image_is_p_squared_transform(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            k = random_matrix_creep(rng)
            image = cbf_image(k)
            for p in 10.0 ** rng.uniform(-1, 1, size=3):
                np.testing.assert_allclose(
                    image(p) / p, laplace_times_p(k, p),
                    rtol=1e-12, atol=1e-14 * kernel_scale(k))

    def test_derivative_by_finite_difference(self):
        rng = np.random.default_rng(29)
        k = random_matrix_relaxation(rng)
        image = cbf_image(k)
        p, h = 1.3, 1e-6
        approx = (image(p + h) - image(p - h)) / (2 * h)
        np.testing.assert_allclose(image.derivative(p), approx,
                                   rtol=1e-7, atol=1e-7 * kernel_scale(k))


class TestStackedImage:
    """Vector arguments give the same values as one point at a time."""

    def test_vector_evaluation_matches_pointwise(self):
        rng = np.random.default_rng(32)
        for make in [random_matrix_relaxation, random_matrix_creep] * 4:
            image = cbf_image(make(rng))
            assert isinstance(image, CbfImage)
            assert image.weights.shape == (image.rates.size, 6, 6)
            # both half-axes, off the poles of U
            s = np.concatenate([10.0 ** rng.uniform(-2, 2, size=6),
                                -10.0 ** rng.uniform(-2, 2, size=6)])
            values, slopes = image(-s), image.derivative(-s)
            assert values.shape == slopes.shape == (s.size, 6, 6)
            for x, value, slope in zip(s, values, slopes):
                np.testing.assert_allclose(
                    value, image(-x), rtol=1e-12,
                    atol=1e-14 * np.max(np.abs(value)))
                np.testing.assert_allclose(
                    slope, image.derivative(-x), rtol=1e-12,
                    atol=1e-14 * np.max(np.abs(slope)))
            # the magnitude is finite on a source rate too
            s = np.append(s, image.rates)
            sizes = image.magnitude(s)
            assert sizes.shape == s.shape
            for x, size in zip(s, sizes):
                assert size == pytest.approx(image.magnitude(x), rel=1e-13)
                assert size == pytest.approx(_reference_magnitude(image, x),
                                             rel=1e-13)

    def test_norms_are_spectral_norms_of_the_data(self):
        rng = np.random.default_rng(33)
        image = cbf_image(random_matrix_relaxation(rng))
        expected = [np.linalg.norm(m, 2) for m in
                    [image.dirac, image.constant, *image.weights]]
        np.testing.assert_allclose(image.norms, expected, rtol=1e-14)


def _reference_refine(image, s):
    """Newton polish of one candidate, as one loop per candidate."""
    for _ in range(3):
        u, _, vt = np.linalg.svd(image(-s))
        uu, vv = u[:, -1], vt[-1, :]
        slope = -float(uu @ image.derivative(-s) @ vv)
        if slope == 0.0:
            break
        step = float(uu @ image(-s) @ vv) / slope
        if abs(step) > 0.1 * s:
            break
        s = s - step
    return s


def _reference_magnitude(image, s):
    out = (np.linalg.norm(image.dirac, 2) * s
           + np.linalg.norm(image.constant, 2))
    for t, z in zip(image.rates, image.weights):
        out += np.linalg.norm(z, 2) * (abs(s / (t - s)) if t != s else 1.0)
    return max(out, 1e-300)


def _reference_poles(image, candidates):
    """Polish, cluster and nullspace test one point at a time."""
    clusters = []
    for s in sorted(_reference_refine(image, c) for c in candidates):
        if clusters and s - clusters[-1][-1] <= TOL_CLUSTER * s:
            clusters[-1].append(s)
        else:
            clusters.append([s])
    out = []
    for group in clusters:
        s = float(np.mean(group))
        sv = np.linalg.svd(image(-s), compute_uv=False)
        cutoff = TOL_NULLSPACE * _reference_magnitude(image, s)
        dimension = int(np.sum(sv <= cutoff))
        if dimension:
            out.append((s, dimension))
    return out


class TestBatchedRefinement:
    """The batched polish against a loop-based reference."""

    @staticmethod
    def _compare(kernel, monkeypatch, slack=0.0):
        """Poles as close to the reference's as ``pytest.approx(rel=1e-12)``
        asks, plus ``slack`` times their rounding resolution
        (:func:`pole_resolution`)."""
        image = cbf_image(kernel)

        def tolerance(s):
            strict = max(1e-12 * abs(s), 1e-12)
            if not slack:
                return strict
            return strict + slack * pole_resolution(image, s)

        seen = []

        def recording(image, s):
            seen.append(np.array(s))
            return _refine_roots(image, s)

        monkeypatch.setattr(viscodual.rational, "_refine_roots", recording)
        got = image_pencil_roots(image)
        reference = _reference_poles(image, seen[0])
        assert len(got) == len(reference)
        for (s, basis), (s_ref, dimension) in zip(got, reference):
            assert abs(s - s_ref) <= tolerance(s_ref)
            assert basis.shape == (6, dimension)
        # the polish alone, candidate by candidate
        polished = _refine_roots(image, seen[0]).roots
        for c, s in zip(seen[0], polished):
            s_ref = _reference_refine(image, c)
            assert abs(s - s_ref) <= tolerance(s_ref)
        return got

    def test_random_kernels(self, monkeypatch):
        rng = np.random.default_rng(34)
        for make in [random_matrix_relaxation, random_matrix_creep] * 5:
            self._compare(make(rng), monkeypatch)

    def test_kernel_corpus_against_svd_reference(self, monkeypatch):
        # the symmetric eigensolves of the polish, the nullspace test and
        # the norms against the singular-value reference, on zero,
        # singular and full Dirac parts.  A fast pole on a nearly singular
        # X is fixed by rounding only to well above 1e-12 s, and both
        # polishes wander within that (3 of these 1902 poles lie beyond
        # 1e-12 s, by at most 0.15 resolutions)
        rng = np.random.default_rng(42)
        singular = 0
        for make in [random_matrix_relaxation, random_matrix_creep] * 100:
            k = make(rng)
            self._compare(k, monkeypatch, slack=4.0)
            image = cbf_image(k)
            data = np.array([image.dirac, image.constant, *image.weights])
            expected = [np.linalg.norm(m, 2) for m in data]
            np.testing.assert_allclose(image.norms, expected, rtol=1e-14)
            np.testing.assert_allclose(psd_flags(data)[2], expected,
                                       rtol=1e-14)
            singular += 0 < image.dirac_eigs.size < 6
        assert singular >= 30

    def test_rank_deficient_weights(self, monkeypatch):
        rng = np.random.default_rng(35)
        k = MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(0.5, random_gram(rng, 2)), (2.0, random_gram(rng, 1)),
                   (9.0, random_gram(rng, 3))])
        self._compare(k, monkeypatch)
        # a threefold pole from one rank-3 weight on a scalar background
        k = MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(2.0, np.diag([1.0, 1, 1, 0, 0, 0]))])
        [(_, basis)] = self._compare(k, monkeypatch)
        assert basis.shape == (6, 3)

    def test_near_singular_weight(self, monkeypatch):
        k = MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(2.0, np.diag([1.0, 1, 1, 1, 1, 1e-6]))])
        roots = self._compare(k, monkeypatch)
        assert any(abs(s - 2.0) < 1e-3 for s, _ in roots)

    def test_stop_rules(self):
        # far from any root the first Newton step is longer than s/10,
        # so the candidate is returned unchanged, as the loop does
        image = cbf_image(MatrixRelaxation.make(
            equilibrium=np.eye(6), modes=[(1.0, np.eye(6))]))
        start = np.array([0.5, 5.0, 40.0])
        polished = _refine_roots(image, start).roots
        for c, s in zip(start, polished):
            assert s == _reference_refine(image, c)

    def test_never_on_a_rate(self, monkeypatch):
        # a candidate on a rate is neither evaluated nor moved, and counts
        # as unconverged; a Newton step onto a rate is not taken
        image = cbf_image(MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(1.0, np.diag([1.0, 0, 0, 0, 0, 0])),
                   (2.0, np.diag([0.0, 1, 1, 1, 1, 1]))]))
        points = []
        call = CbfImage.__call__

        def recording(self, p):
            points.append(np.array(p))
            return call(self, p)

        monkeypatch.setattr(CbfImage, "__call__", recording)
        polish = _refine_roots(image, [0.5, 1.0, 2.0, 1.0 + 2.0 ** -40])
        assert not image.on_rate(-np.concatenate(points)).any()
        assert polish.roots[1:3].tolist() == [1.0, 2.0]
        assert polish.converged.tolist() == [True, False, False, True]
        # 1 + 2^-40 is a root of the second block, 1 - s/(2 - s): its step,
        # of about 2^-40, would land on the rate 1 and is not taken
        assert polish.roots[3] == 1.0 + 2.0 ** -40


def test_linalg_calls_of_a_conversion(monkeypatch):
    # every numpy.linalg call of a 6x6 conversion: no SVD, and the same
    # calls for one mode as for eight modes and 48 poles, but for the
    # polish, which takes one eigh per Newton iteration (at most 3)
    rng = np.random.default_rng(36)
    large = MatrixRelaxation.make(
        equilibrium=random_gram(rng, 6),
        modes=[(r, random_gram(rng, 6)) for r in np.geomspace(0.1, 100, 8)])
    small = MatrixRelaxation.make(equilibrium=random_gram(rng, 6),
                                  modes=[(1.0, random_gram(rng, 6))])
    calls = []
    sixes = collections.Counter()   # the 6x6 matrices given to eigensolves

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            shape = np.shape(args[0])
            if name in ("eigh", "eigvalsh") and shape[-2:] == (6, 6):
                sixes[name] += int(np.prod(shape[:-2]))
            return original(*args, **kwargs)
        return wrapper

    for name in np.linalg.__all__:
        function = getattr(np.linalg, name)
        if callable(function) and not isinstance(function, type):
            monkeypatch.setattr(np.linalg, name, counted(name, function))
    counts, decomposed = [], []
    for k, poles in [(small, 6), (large, 48)]:
        calls.clear()
        sixes.clear()
        assert len(viscodual.dualize(k).modes) == poles
        counts.append(collections.Counter(calls))
        decomposed.append(sixes.total())
    for count in counts:
        assert "svd" not in count and count["eigh"] >= 3
    assert abs(counts[0]["eigh"] - counts[1]["eigh"]) <= 3
    assert counts[0] - collections.Counter(eigh=counts[0]["eigh"]) == \
        counts[1] - collections.Counter(eigh=counts[1]["eigh"])
    # each added pole adds at most two 6x6 eigensolves (its polish pass and
    # the dual's validation in make), each added mode two (its eigh in
    # CbfImage and a point of the pole-count certificate), and a few
    # candidates take a second polish pass
    assert decomposed[1] - decomposed[0] <= 2 * (48 - 6) + 2 * (8 - 1) + 4


def _qz_pencil_poles(image):
    """Poles from general QZ on the full pencil: the reference search.

    The pencil ``mm z = p ww z`` holds ``X`` on the right-hand side as it
    is, so no direction of ``X`` is eliminated.  Factors, splinter cut,
    polish, clustering and nullspace test are those of
    ``image_pencil_roots``; only the eigensolve differs, and the nullspace
    is always tested at the cluster means.  Returns
    ``(location, nullspace width)`` pairs.
    """
    factor, ranks = image.weight_factors
    block_rates = np.repeat(image.rates, ranks)
    block = factor * np.sqrt(block_rates)
    dim = 6 + block_rates.size
    mm = np.zeros((dim, dim))
    ww = np.zeros((dim, dim))
    mm[:6, :6] = image.constant + image.weights.sum(axis=0)
    mm[:6, 6:] = -block
    mm[6:, :6] = -block.T
    mm[6:, 6:] = np.diag(block_rates)
    ww[:6, :6] = -image.dirac
    ww[6:, 6:] = -np.eye(dim - 6)

    rate_scale = image.rates.max()
    eigvals = scipy.linalg.eigvals(mm, ww)
    eigvals = eigvals[np.isfinite(eigvals)]
    eigvals = eigvals[np.abs(eigvals) <= 1e12 * rate_scale]
    eigvals = eigvals[eigvals.real < 0.0]
    assert np.all(np.abs(eigvals.imag)
                  <= 1e-6 * np.maximum(np.abs(eigvals), rate_scale))
    candidates = -eigvals.real
    candidates = candidates[candidates > image.zero_pole_floor]
    candidates = np.sort(_refine_roots(image, candidates).roots)
    if not candidates.size:
        return []
    starts = np.flatnonzero(np.concatenate(
        [[True], np.diff(candidates) > TOL_CLUSTER * candidates[1:]]))
    means = np.add.reduceat(candidates, starts) / np.diff(
        np.append(starts, candidates.size))
    return [(float(s), basis.shape[1]) for s, basis
            in zip(means, _image_nullspace(image, means)) if basis.shape[1]]


def _dirac_part(rng, pattern):
    if pattern == "zero":
        return np.zeros((6, 6))
    if pattern == "conditioned":
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        m = (q * np.geomspace(1.0, 1e-4, 6)) @ q.T
        return 0.5 * (m + m.T)
    return random_gram(rng, 6 if pattern == "full" else int(pattern))


class TestSymmetricPencilAgainstQZ:
    """The reduced symmetric eigensolve finds what general QZ finds."""

    @pytest.mark.parametrize("dirac", ["zero", "1", "2", "3", "4", "5",
                                       "conditioned", "full"])
    def test_same_poles_as_qz(self, dirac):
        rng = np.random.default_rng([38, len(dirac), ord(dirac[0])])
        compared = 0
        while compared < 12:
            # every other kernel has only rank-deficient weights; the
            # equilibrium is zero, singular or full
            top = 7 if compared % 2 else 4
            modes = [(r, random_gram(rng, int(rng.integers(1, top))))
                     for r in rate_set(rng, int(rng.integers(1, 6)))]
            k = MatrixRelaxation.make(
                newtonian=_dirac_part(rng, dirac),
                equilibrium=random_gram(rng, compared % 3 * 3),
                modes=modes)
            if not k.satisfies_positivity():
                continue
            image = cbf_image(k)
            got = image_pencil_roots(image)
            expected = _qz_pencil_poles(image)
            assert [b.shape[1] for _, b in got] == [d for _, d in expected]
            np.testing.assert_allclose([s for s, _ in got],
                                       [s for s, _ in expected], rtol=1e-9)
            compared += 1

    def test_dirac_split(self):
        rng = np.random.default_rng(39)
        for rank in range(7):
            image = cbf_image(MatrixRelaxation.make(
                newtonian=random_gram(rng, rank), equilibrium=np.eye(6)))
            q1, q0 = image.dirac_range, image.dirac_null
            assert q1.shape == (6, rank) and q0.shape == (6, 6 - rank)
            basis = np.hstack([q1, q0])
            np.testing.assert_allclose(basis.T @ basis, np.eye(6),
                                       atol=1e-14)
            size = max(image.norms[0], 1e-300)
            np.testing.assert_allclose(q1.T @ image.dirac @ q1,
                                       np.diag(image.dirac_eigs),
                                       atol=1e-13 * size)
            assert np.linalg.norm(image.dirac @ q0) <= 1e-10 * size


class TestImagePencil:
    def test_diagonal_embedding_matches_scalar_roots(self):
        # G_k = g_k I embeds the scalar problem sixfold
        k_scalar = ScalarRelaxation.make(
            equilibrium=1.0, modes=[(1.0, 1.0), (3.0, 2.0)])
        expected = interlaced_roots(*cbf_as_rational(k_scalar))
        k = MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(1.0, np.eye(6)), (3.0, 2.0 * np.eye(6))])
        eigs = image_pencil_roots(cbf_image(k))
        assert len(eigs) == len(expected)
        for (s, basis), ref in zip(eigs, sorted(expected)):
            assert s == pytest.approx(ref, rel=1e-10)
            assert basis.shape[1] == 6

    def test_rank_deficient_weight_gives_partial_multiplicity(self):
        # rank-deficient weight: the only root is at 1.0 with multiplicity 3
        # (directions outside the weight's range contribute none), and no
        # artifact survives at the source rate 2.0
        g = np.diag([1.0, 1, 1, 0, 0, 0.0])
        k = MatrixRelaxation.make(equilibrium=np.eye(6), modes=[(2.0, g)])
        roots = image_pencil_roots(cbf_image(k))
        assert len(roots) == 1
        s, basis = roots[0]
        assert s == pytest.approx(1.0, rel=1e-10)
        assert basis.shape[1] == 3

    def test_near_singular_weight_keeps_close_pole(self):
        # a weight with one tiny eigenvalue puts a genuine pole with a tiny
        # residue just below the source rate; it must not be filtered out
        g = np.diag([1.0, 1, 1, 1, 1, 1e-6])
        k = MatrixRelaxation.make(equilibrium=np.eye(6), modes=[(2.0, g)])
        roots = image_pencil_roots(cbf_image(k))
        assert len(roots) == 2
        close = [s for s, _ in roots if abs(s - 2.0) < 1e-3]
        assert len(close) == 1
        # scalar root of 1 + w p/(p+2) at w = 1e-6: s = 2/(1+w)
        assert close[0] == pytest.approx(2.0 / (1.0 + 1e-6), rel=1e-9)

    def test_decomposition_reconstructs_inverse(self):
        rng = np.random.default_rng(30)
        for _ in range(8):
            k = random_matrix_relaxation(rng, n_max=3)
            image = cbf_image(k)
            parts = decompose_inverse(image)
            for p in [0.37, 1.9, 11.0]:
                direct = np.linalg.inv(image(p))
                recon = parts.constant + parts.zero_mass / p
                for s, w in parts.modes:
                    recon = recon + np.asarray(w) / (p + s)
                np.testing.assert_allclose(recon, direct, rtol=1e-8,
                                           atol=1e-8 * kernel_scale(k))

    def test_wide_rate_spread_stays_accurate(self):
        # poles spanning five decades; expanded monomial coefficients would
        # lose most of their precision here
        k = MatrixRelaxation.make(
            newtonian=np.diag([1e-4, 1, 1, 1, 1, 1.0]),
            modes=[(0.3, np.eye(6)), (40.0, 2.0 * np.eye(6))])
        image = cbf_image(k)
        parts = decompose_inverse(image)
        for p in [0.05, 1.0, 300.0]:
            direct = np.linalg.inv(image(p))
            recon = parts.constant + parts.zero_mass / p
            for s, w in parts.modes:
                recon = recon + np.asarray(w) / (p + s)
            np.testing.assert_allclose(recon, direct, rtol=1e-8, atol=1e-10)

    def test_nonsingular_point_has_no_nullspace(self):
        k = MatrixRelaxation.make(equilibrium=np.eye(6),
                                  modes=[(1.0, np.eye(6))])
        [basis] = _image_nullspace(cbf_image(k), [5.0])
        assert basis.shape == (6, 0)

    @pytest.mark.parametrize("shape", [(6, 1), (6, 3), (6, 6)])
    def test_indefinite_residue_is_a_numeric_failure(self, shape):
        # a core B'U'B, for a basis B of this shape, with an eigenvalue
        # below -1e-6 of the scale: the residue's spectrum says so, and the
        # decomposition raises
        basis = np.eye(6)[:, :shape[1]]
        slope = np.diag([-2.0, 1, 1, 1, 1, 1])
        residues, low, norms = _nullspace_residues(
            [basis, basis[:, ::-1]], np.array([slope, slope]))
        np.testing.assert_array_equal(low, -0.5)
        assert norms.max() == (0.5 if shape[1] == 1 else 1.0)
        with pytest.raises(NumericsError, match="indefinite"):
            _least_weight_eig(low, float(norms.max()))
        # the negative part is left out of the residue
        assert np.linalg.eigvalsh(residues)[:, 0].min() >= -1e-16

    def test_residue_from_the_core_spectrum(self):
        # (BQ) diag(1/mu) (BQ)' with mu, Q = eigh(B'U'B) is B (B'U'B)^-1 B',
        # and its eigenvalues are the 1/mu and zeros
        rng = np.random.default_rng(37)
        for width in range(7):
            basis = np.linalg.qr(rng.normal(size=(6, 6)))[0][:, :width]
            slope = random_gram(rng, 6)
            [residue], low, norms = _nullspace_residues([basis], slope[None])
            core = basis.T @ slope @ basis
            expected = basis @ np.linalg.solve(core, basis.T)
            np.testing.assert_allclose(residue, expected, rtol=0,
                                       atol=1e-13 * max(norms[0], 1e-300))
            eigs = np.linalg.eigvalsh(expected)
            assert norms[0] == pytest.approx(np.abs(eigs).max(), rel=1e-12)
            assert low[0] == (0.0 if width < 6 else pytest.approx(
                eigs[0], rel=1e-12))

    def test_residues_are_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            k = random_matrix_creep(rng, n_max=3)
            parts = decompose_inverse(cbf_image(k))
            assert parts.min_weight_eig >= -1e-8
            for _, w in parts.modes:
                w = np.asarray(w)
                # clipping reconstructs through an eigendecomposition, so a
                # rounding-level negative eigenvalue can survive
                floor = -1e-14 * max(1.0, np.linalg.norm(w, 2))
                assert np.linalg.eigvalsh(w)[0] >= floor


def _mp_matrix_parts(image):
    """``U(p)^-1`` of a 6x6 image at 30 digits, started from the poles of
    :func:`decompose_inverse`.

    Returns ``(pole, constant, zero_mass, zero_width)``.  ``pole`` takes a
    float pole ``s`` to ``(root, width, residue)``: ``root`` is
    ``mpmath.findroot`` on the eigenvalue of ``U(-s)`` of least
    ``|lambda|`` (``mpmath.eigsy``), ``width`` counts the eigenvalues there
    below ``1e-15`` of the largest, and the residue is
    ``B (B' U'(-s) B)^-1 B'`` on their eigenvectors ``B``.  The constant is
    ``Q0 (Q0' (Y + sum Z) Q0)^-1 Q0'`` and the zero mass
    ``B0 (B0' U'(0) B0)^-1 B0'`` over the nullspaces ``Q0`` of ``X`` and
    ``B0`` of ``Y``, of width ``zero_width``.  Matrices come back as float
    arrays.
    """
    mp = mpmath.mp

    def entries(a):
        return [mp.mpf(v) for v in np.ravel(a).tolist()]

    def build(first, factors):
        # first + sum_k factors[k] Z_k, entry by entry
        return mp.matrix([[first[6 * i + j] + mp.fdot(z[6 * i + j], factors)
                           for j in range(6)] for i in range(6)])

    def inverse_on_null(m, core):
        """``B (B' core B)^-1 B'`` over the near-null eigenvectors ``B`` of
        ``m``, with their number."""
        e, q = mp.eigsy(m)
        top = max(abs(v) for v in e)
        cols = [c for c in range(6) if abs(e[c]) <= 1e-15 * top]
        if not cols:
            return np.zeros((6, 6)), 0
        b = mp.matrix([[q[r, c] for c in cols] for r in range(6)])
        out = b * mp.inverse(b.T * core * b) * b.T
        return np.array(out.tolist(), dtype=float), len(cols)

    with mp.workdps(30):
        x, y = entries(image.dirac), entries(image.constant)
        rates = entries(image.rates)
        z = [entries(column)
             for column in np.reshape(image.weights, (-1, 36)).T]
        none = [mp.mpf(0)] * len(rates)

        def u(s):
            return build([b - a * s for a, b in zip(x, y)],
                         [s / (s - t) for t in rates])

        def slope(s):
            return build(x, [t / (t - s) ** 2 for t in rates])

        def least(s):
            return min(mp.eigsy(u(s), eigvals_only=True), key=abs)

        def pole(s):
            with mp.workdps(30):
                s = mp.mpf(s)
                root = mp.findroot(least, (s, s * (1 + mp.mpf(1e-12))),
                                   tol=mp.mpf(10) ** -20, verify=False)
                residue, width = inverse_on_null(u(root), slope(root))
                return float(root), width, residue

        constant = inverse_on_null(build(x, none),
                                   build(y, [1] * len(rates)))[0]
        zero_mass, zero_width = inverse_on_null(build(y, none),
                                                slope(mp.mpf(0)))
        return pole, constant, zero_mass, zero_width


def _oracle_kernel(name):
    rng = np.random.default_rng([44, len(name)])
    if name == "one-mixed-mode":
        return MatrixRelaxation.make(equilibrium=random_gram(rng, 6),
                                     modes=[(1.0, random_gram(rng, 3))])
    if name == "eight-mixed-modes":
        return MatrixCreep.make(
            instantaneous=random_gram(rng, 6),
            modes=[(r, random_gram(rng, int(rng.integers(1, 7))))
                   for r in rate_set(rng, 8)])
    if name == "twenty-full-rank-modes":
        return MatrixRelaxation.make(
            equilibrium=random_gram(rng, 6),
            modes=[(r, random_gram(rng, 6)) for r in rate_set(rng, 20)])
    if name == "singular-dirac":   # the constant of U^-1 on the null of X
        return MatrixRelaxation.make(
            newtonian=np.diag([2.0, 1.0, 0.5, 0.0, 0.0, 0.0]),
            equilibrium=random_gram(rng, 6),
            modes=[(r, random_gram(rng, 2)) for r in rate_set(rng, 3)])
    if name == "singular-equilibrium":   # the zero mass on the null of Y
        return MatrixRelaxation.make(
            newtonian=random_gram(rng, 6),
            equilibrium=np.diag([1.0, 3.0, 0.0, 2.0, 0.0, 0.0]),
            modes=[(r, random_gram(rng, 2)) for r in rate_set(rng, 3)])
    # ten decades, one mode per decade
    return MatrixRelaxation.make(
        equilibrium=random_gram(rng, 6),
        modes=[(10.0 ** e * rng.uniform(1, 2), random_gram(rng, int(r)))
               for e, r in zip(range(-5, 6), rng.integers(1, 7, size=11))])


@pytest.mark.parametrize("name", [
    "one-mixed-mode", "eight-mixed-modes", "twenty-full-rank-modes",
    "singular-dirac", "singular-equilibrium", "ten-decades"])
def test_matrix_parts_against_high_precision(name):
    # every pole within 1e-12 (relative) of a 30-digit root of U(-s), and
    # every weight within 1e-10 of the largest of the 30-digit residue; the
    # roots are distinct, and their multiplicities with the zero mass's
    # count every pole, rank X + sum rank Z_k
    kernel = _oracle_kernel(name)
    image = cbf_image(kernel)
    parts = decompose_inverse(image)
    pole, constant, zero_mass, zero_width = _mp_matrix_parts(image)
    largest = max(np.linalg.norm(m, 2)
                  for m in [parts.zero_mass] + [w for _, w in parts.modes])
    roots, count = [], zero_width
    for s, weight in parts.modes:
        root, width, residue = pole(s)
        assert abs(s - root) <= 1e-12 * root
        np.testing.assert_allclose(weight, residue, rtol=0,
                                   atol=1e-10 * largest)
        roots.append(root)
        count += width
    assert np.all(np.diff(roots) > 1e-10 * np.array(roots[1:]))
    assert count == sum(np.linalg.matrix_rank(m) for m in
                        [image.dirac, *image.weights])
    np.testing.assert_allclose(parts.zero_mass, zero_mass, rtol=0,
                               atol=1e-10 * largest)
    np.testing.assert_allclose(parts.constant, constant, rtol=0,
                               atol=1e-10 * np.linalg.norm(constant, 2))
    if name == "singular-dirac":
        assert np.linalg.norm(constant, 2) > 0.1
    if name == "singular-equilibrium":
        assert zero_width == 3


class TestClosedFormConstant:
    def test_matches_subtraction(self):
        # the constant G'G against U(p)^-1 minus the recovered poles, on
        # zero, singular and full Dirac parts
        rng = np.random.default_rng(41)
        singular = 0
        for make in [random_matrix_relaxation, random_matrix_creep] * 30:
            image = cbf_image(make(rng, n_max=6))
            parts = decompose_inverse(image)
            scale = max(matrix_norm(m) for m in [
                parts.constant, parts.zero_mass, *(w for _, w in parts.modes)])
            reference = constant_by_subtraction(
                image, parts.zero_mass, parts.modes, scale)
            assert matrix_norm(parts.constant - reference) <= 1e-10 * scale
            singular += 0 < image.dirac_eigs.size < 6
        assert singular >= 10


def _drop_first_pole(eigs):
    return eigs[1:]


def _shrink_last_basis(eigs):
    s, basis = eigs[-1]
    return eigs[:-1] + [(s, basis[:, 1:])]


class TestPoleCountCertificate:
    """A pole set that misses a pole, or part of one, never becomes a dual."""

    @pytest.mark.parametrize("corrupt", [_drop_first_pole, _shrink_last_basis])
    def test_incomplete_poles_are_a_numeric_failure(self, corrupt, monkeypatch,
                                                    tmp_path):
        k = MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(1.0, np.eye(6)), (3.0, 2.0 * np.eye(6))])
        path = tmp_path / "kernel.json"
        path.write_text(serialize_material(k))
        monkeypatch.setattr(viscodual.rational, "image_pencil_roots",
                            lambda image: corrupt(image_pencil_roots(image)))
        with pytest.raises(NumericsError, match="pole count"):
            viscodual.dualize(k)
        assert run(["dualize", str(path)]) == 3
