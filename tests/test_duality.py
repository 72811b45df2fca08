import warnings

import mpmath
import numpy as np
import pytest

from viscodual import (
    InvalidKernel,
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    dualize,
    dualize_creep_to_relaxation,
    dualize_relaxation_to_creep,
    duality_residual,
    laplace_times_p,
    parse_material,
    symmetric6,
)

from kernel_corpus import (
    assert_kernels_close,
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
)


class TestClosedFormPairs:
    def test_maxwell(self):
        # f = exp(-t)  <->  h = 1 + t
        r = ScalarRelaxation.make(modes=[(1.0, 1.0)])
        c = dualize(r)
        assert c.instantaneous == pytest.approx(1.0, abs=1e-12)
        assert c.fluidity == pytest.approx(1.0, abs=1e-12)
        assert c.modes == ()

    def test_maxwell_reverse(self):
        c = ScalarCreep.make(instantaneous=1.0, fluidity=1.0)
        r = dualize(c)
        assert r.newtonian == pytest.approx(0.0, abs=1e-12)
        assert r.equilibrium == pytest.approx(0.0, abs=1e-12)
        assert len(r.modes) == 1
        assert r.modes[0][0] == pytest.approx(1.0, abs=1e-12)
        assert r.modes[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_standard_linear_solid(self):
        # f = 1 + exp(-t)  <->  h = 1 - 0.5 exp(-0.5 t)
        r = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        c = dualize(r)
        assert c.instantaneous == pytest.approx(0.5, abs=1e-12)
        assert c.fluidity == 0.0
        assert c.modes[0][0] == pytest.approx(0.5, abs=1e-12)
        assert c.modes[0][1] == pytest.approx(0.25, abs=1e-12)

    def test_pure_dashpot(self):
        # f = delta  <->  h = t
        r = ScalarRelaxation.make(newtonian=1.0)
        c = dualize(r)
        assert c.instantaneous == 0.0
        assert c.fluidity == pytest.approx(1.0, abs=1e-12)
        assert c.modes == ()

    def test_two_mode_fluid(self):
        # f = exp(-t) + exp(-3t)
        r = ScalarRelaxation.make(modes=[(1.0, 1.0), (3.0, 1.0)])
        c = dualize(r)
        assert c.instantaneous == pytest.approx(0.5, abs=1e-12)
        assert c.fluidity == pytest.approx(0.75, abs=1e-12)
        assert len(c.modes) == 1
        assert c.modes[0][0] == pytest.approx(2.0, abs=1e-12)
        assert c.modes[0][1] == pytest.approx(0.25, abs=1e-12)


class TestScalarRoundTrips:
    def test_random_relaxation_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            r = random_scalar_relaxation(rng)
            back = dualize(dualize(r))
            assert_kernels_close(r, back, 1e-8)

    def test_random_creep_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            c = random_scalar_creep(rng)
            back = dualize(dualize(c))
            assert_kernels_close(c, back, 1e-8)

    def test_laplace_reciprocity(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            r = random_scalar_relaxation(rng)
            c = dualize(r)
            for p in 10.0 ** rng.uniform(-2, 2, size=6):
                product = laplace_times_p(r, p) * laplace_times_p(c, p)
                assert product == pytest.approx(1.0, rel=1e-10)

    def test_solid_maps_to_bounded_creep(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            r = random_scalar_relaxation(rng)
            c = dualize(r)
            if r.equilibrium > 0:
                assert c.fluidity == 0.0
            else:
                assert c.fluidity > 0.0
            if r.newtonian > 0:
                assert c.instantaneous == 0.0
            else:
                assert c.instantaneous > 0.0


class TestMatrixDuality:
    def test_diagonal_embedding_matches_scalar(self):
        r_s = ScalarRelaxation.make(equilibrium=1.0,
                                    modes=[(1.0, 1.0), (3.0, 2.0)])
        c_s = dualize(r_s)
        r_m = MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(1.0, np.eye(6)), (3.0, 2.0 * np.eye(6))])
        c_m = dualize(r_m)
        assert len(c_m.modes) == len(c_s.modes)
        np.testing.assert_allclose(np.asarray(c_m.instantaneous),
                                   c_s.instantaneous * np.eye(6), atol=1e-10)
        for (s_m, h_m), (s_s, h_s) in zip(c_m.modes, c_s.modes):
            assert s_m == pytest.approx(s_s, rel=1e-9)
            np.testing.assert_allclose(np.asarray(h_m), h_s * np.eye(6),
                                       atol=1e-9)

    def test_random_relaxation_round_trip(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            r = random_matrix_relaxation(rng)
            c = dualize(r)
            back = dualize(c)
            assert_kernels_close(r, back, 1e-6)

    def test_random_creep_round_trip(self):
        rng = np.random.default_rng(36)
        for _ in range(15):
            c = random_matrix_creep(rng)
            back = dualize(dualize(c))
            assert_kernels_close(c, back, 1e-6)

    def test_laplace_reciprocity(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            r = random_matrix_relaxation(rng)
            c = dualize(r)
            for p in 10.0 ** rng.uniform(-1.5, 1.5, size=4):
                product = laplace_times_p(r, p) @ laplace_times_p(c, p)
                np.testing.assert_allclose(product, np.eye(6), atol=1e-8)

    def test_positivity_violation_rejected(self):
        g = symmetric6(np.diag([1.0, 1, 1, 1, 1, 0.0]))
        r = MatrixRelaxation.make(equilibrium=g, modes=[(1.0, g)])
        with pytest.raises(InvalidKernel):
            dualize(r)
        c = MatrixCreep.make(instantaneous=g, modes=[(1.0, g)])
        with pytest.raises(InvalidKernel):
            dualize(c)

    def test_dirac_relaxation_gives_zero_instantaneous(self):
        rng = np.random.default_rng(38)
        from kernel_corpus import random_gram
        r = MatrixRelaxation.make(
            newtonian=random_gram(rng, 6),
            modes=[(1.0, random_gram(rng, 6))])
        c = dualize(r)
        assert np.all(np.asarray(c.instantaneous) == 0.0)

    def test_singular_dirac_constant_stays_in_its_nullspace(self):
        # with a singular Dirac part N the instantaneous compliance A of the
        # dual satisfies N A = 0; the short-time duality residual, taken at
        # t ~ 1e-3 / r_max, magnifies any leak of A into the range of N
        rng = np.random.default_rng(40)
        from kernel_corpus import random_gram
        for _ in range(10):
            rates = np.sort(10.0 ** rng.uniform(1.0, 4.0, size=6))
            r = MatrixRelaxation.make(
                newtonian=random_gram(rng, 2),
                equilibrium=random_gram(rng, 6),
                modes=[(t, random_gram(rng, int(rng.integers(1, 7))))
                       for t in rates])
            c = dualize(r)
            n, a = np.asarray(r.newtonian), np.asarray(c.instantaneous)
            assert np.linalg.norm(n @ a, 2) <= 1e-14 * (
                np.linalg.norm(n, 2) * np.linalg.norm(a, 2))
            assert duality_residual(r, c) <= 1e-7

    def test_dispatch_type_error(self):
        with pytest.raises(TypeError):
            dualize("not a kernel")


class TestInvolution:
    def test_specific_directions_agree_with_dispatch(self):
        r = ScalarRelaxation.make(equilibrium=2.0, modes=[(0.5, 1.0)])
        assert dualize_relaxation_to_creep(r) == dualize(r)
        c = dualize(r)
        assert dualize_creep_to_relaxation(c) == dualize(c)


def _mp_image(kernel):
    """Image data ``(X, Y, rates, weights)`` of a scalar kernel as mpf."""
    if isinstance(kernel, ScalarRelaxation):
        dirac, constant = kernel.newtonian, kernel.equilibrium
    else:
        dirac, constant = kernel.instantaneous, kernel.fluidity
    return (mpmath.mpf(dirac), mpmath.mpf(constant),
            [mpmath.mpf(r) for r, _ in kernel.modes],
            [mpmath.mpf(w) for _, w in kernel.modes])


def _mp_roots(kernel):
    """Roots of ``U(-s)`` by plain bisection at 50 digits, one per bracket."""
    dirac, constant, rates, weights = _mp_image(kernel)

    def value(s):
        return -dirac * s + constant + sum(
            w * s / (s - t) for t, w in zip(rates, weights))

    edges = [mpmath.mpf(0)] + rates
    brackets = list(zip(edges, rates))[0 if constant > 0 else 1:]
    if dirac > 0:
        hi = 2 * edges[-1] + 1
        while value(hi) >= 0:
            hi *= 2
        brackets.append((edges[-1], hi))
    roots = []
    for lo, hi in brackets:
        while hi - lo > mpmath.mpf(10) ** -45 * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if value(mid) > 0 else (lo, mid)
        roots.append((lo + hi) / 2)
    return roots


def _mp_laplace_times_p(kernel, p):
    dirac, constant, rates, weights = _mp_image(kernel)
    if isinstance(kernel, ScalarRelaxation):
        return dirac * p + constant + sum(
            w * p / (p + t) for t, w in zip(rates, weights))
    return dirac + constant / p + sum(w / (p + t) for t, w in zip(rates, weights))


def _scalar_kernel(kind, first, second, rates, seed):
    weights = np.random.default_rng(seed).uniform(0.2, 5.0, size=len(rates))
    return kind.make(first, second, list(zip(rates, weights)))


# Dense fits (12 modes within 0.3 decade) lose digits in expanded
# polynomials; 16-decade fits (one mode per decade) lose their slow modes
# when the merge gap is measured against the largest rate.
HARD_SCALAR_KERNELS = {
    "dense-relaxation-solid": (ScalarRelaxation, 0.7, 1.3,
                               np.geomspace(1.0, 10.0 ** 0.3, 12)),
    "dense-creep-fluid": (ScalarCreep, 1.1, 0.4,
                          np.geomspace(3.0, 3.0 * 10.0 ** 0.3, 12)),
    "wide-relaxation-solid": (ScalarRelaxation, 0.0, 1.0,
                              10.0 ** np.arange(-8.0, 9.0)),
    "wide-creep-fluid": (ScalarCreep, 0.5, 0.3,
                         10.0 ** np.arange(-8.0, 9.0)),
}


@pytest.mark.parametrize("name", sorted(HARD_SCALAR_KERNELS))
def test_hard_scalar_spectra_against_high_precision(name):
    kind, first, second, rates = HARD_SCALAR_KERNELS[name]
    k = _scalar_kernel(kind, first, second, rates, seed=len(name))
    assert len(k.modes) == len(rates)   # no distinct rates merged
    dual = dualize(k)
    with mpmath.workdps(50):
        oracle = _mp_roots(k)
        assert len(dual.modes) == len(oracle)
        for (s, _), ref in zip(dual.modes, oracle):
            assert abs(s - ref) <= 1e-12 * ref
        worst = max(abs(_mp_laplace_times_p(k, p) * _mp_laplace_times_p(dual, p) - 1)
                    for p in np.geomspace(1e-3 * rates[0], 1e3 * rates[-1], 60))
    assert worst <= 1e-12


def test_dense_fit_dualizes_without_runtime_warnings():
    # ten creep modes within two decades: expanding the image into
    # polynomials overflowed and printed a RuntimeWarning on every conversion
    doc = (
        '{"kind": "creep", "dimension": "scalar", '
        '"instantaneous": 0.7928379650962721, "fluidity": 0.6550327512211722, '
        '"modes": [{"rate": 37.43020790083283, "weight": 2.523931954874422}, '
        '{"rate": 58.31981065588595, "weight": 4.138932546858394}, '
        '{"rate": 109.92835082996437, "weight": 0.6557967263844087}, '
        '{"rate": 201.91612772063917, "weight": 2.345955499895114}, '
        '{"rate": 323.0129422734771, "weight": 2.160524539071233}, '
        '{"rate": 538.5726214017425, "weight": 2.7107809483892518}, '
        '{"rate": 737.3916461947776, "weight": 3.940220054391154}, '
        '{"rate": 939.6958863380364, "weight": 4.478852218372226}, '
        '{"rate": 1327.3068240874695, "weight": 4.998780847862899}, '
        '{"rate": 2555.008596588301, "weight": 3.8842375202270367}]}')
    k = parse_material(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = dualize(k)
    assert len(r.modes) == 11
    assert duality_residual(r, k) <= 1e-9
