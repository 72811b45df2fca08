import numpy as np
import pytest
import scipy.linalg

import viscodual
from viscodual import (
    MatrixRelaxation,
    NumericsError,
    ScalarCreep,
    ScalarRelaxation,
    laplace_times_p,
)
from viscodual.rational import (
    TOL_CLUSTER,
    TOL_NULLSPACE,
    CbfImage,
    _clip_residues,
    _image_nullspace,
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
    random_gram,
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
    rate_set,
)


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
    def _compare(kernel, monkeypatch):
        image = cbf_image(kernel)
        seen = []

        def recording(image, s):
            seen.append(np.array(s))
            return _refine_roots(image, s)

        monkeypatch.setattr(viscodual.rational, "_refine_roots", recording)
        got = image_pencil_roots(image)
        reference = _reference_poles(image, seen[0])
        assert len(got) == len(reference)
        for (s, basis), (s_ref, dimension) in zip(got, reference):
            assert s == pytest.approx(s_ref, rel=1e-12)
            assert basis.shape == (6, dimension)
        # the polish alone, candidate by candidate
        polished = _refine_roots(image, seen[0])
        for c, s in zip(seen[0], polished):
            assert s == pytest.approx(_reference_refine(image, c), rel=1e-12)
        return got

    def test_random_kernels(self, monkeypatch):
        rng = np.random.default_rng(34)
        for make in [random_matrix_relaxation, random_matrix_creep] * 5:
            self._compare(make(rng), monkeypatch)

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
        polished = _refine_roots(image, start)
        for c, s in zip(start, polished):
            assert s == _reference_refine(image, c)


def test_norm_count_is_linear_in_modes(monkeypatch):
    # every spectral norm of a conversion, counted through numpy: the
    # count must not grow with candidates x modes (48 poles here)
    rng = np.random.default_rng(36)
    k = MatrixRelaxation.make(
        equilibrium=random_gram(rng, 6),
        modes=[(r, random_gram(rng, 6)) for r in np.geomspace(0.1, 100, 8)])
    calls = []
    norm = np.linalg.norm

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    dual = viscodual.dualize(k)
    assert len(dual.modes) == 48
    assert len(calls) <= len(k.modes) + 8


def _qz_pencil_poles(image):
    """Poles from general QZ on the full pencil: the reference search.

    The pencil ``mm z = p ww z`` holds ``X`` on the right-hand side as it
    is, so no direction of ``X`` is eliminated.  Factors, splinter cut,
    polish, clustering and nullspace test are those of
    ``image_pencil_roots``; only the eigensolve differs.  Returns
    ``(location, nullspace width)`` pairs.
    """
    w, v = np.linalg.eigh(image.weights)
    keep = w > 1e-14 * np.maximum(w[:, -1:], 1e-300)
    factors = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
    blocks = np.sqrt(image.rates)[:, None, None] * factors
    block = blocks.transpose(1, 0, 2).reshape(6, -1)[:, keep.ravel()]
    block_rates = np.repeat(image.rates, keep.sum(axis=1))
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
    candidates = candidates[candidates > 1e-9 * rate_scale]
    candidates = np.sort(_refine_roots(image, candidates))
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

    @pytest.mark.parametrize("shape", [(6, 6), (2, 6, 6)])
    def test_indefinite_residue_is_a_numeric_failure(self, shape):
        m = np.broadcast_to(np.diag([1.0, 1, 1, 1, 1, -0.5]), shape)
        with pytest.raises(NumericsError, match="indefinite"):
            _clip_residues(m, 1.0)

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
