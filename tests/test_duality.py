import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscodual import (
    InvalidKernel,
    MatrixCreep,
    MatrixRelaxation,
    NumericsError,
    ScalarCreep,
    ScalarRelaxation,
    dualize,
    duality_residual,
    laplace_times_p,
    parse_material,
    serialize_material,
    symmetric6,
)
from viscodual.cli import run
from viscodual.kernels import square_image
from viscodual.rational import cbf_image

from kernel_corpus import (
    assert_kernels_close,
    kernel_distance,
    pole_resolution,
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

    @pytest.mark.parametrize("seed", range(8))
    def test_positivity_violation_off_axis_rejected(self, seed):
        # every coefficient, the Dirac part too, misses one direction off
        # the axes: the block of Y + sum Z_k on the nullspace of X is then
        # 1x1 and holds only rounding, of either sign, and must fail (*)
        rotation = np.linalg.qr(
            np.random.default_rng(seed).normal(size=(6, 6)))[0]
        g = rotation @ np.diag([1.0, 1, 1, 1, 1, 0]) @ rotation.T
        r = MatrixRelaxation.make(newtonian=g, equilibrium=g,
                                  modes=[(1.0, g), (3.0, g)])
        with pytest.raises(InvalidKernel, match=r"condition \(\*\)"):
            dualize(r)
        c = MatrixCreep.make(instantaneous=g, fluidity=g,
                             modes=[(1.0, g), (3.0, g)])
        with pytest.raises(InvalidKernel, match=r"condition \(\*\*\)"):
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

    def test_eleven_decades_keep_their_slow_poles(self):
        # eleven decades of rates: the slow poles lie far below 1e-9 r_max,
        # so they survive only if "zero" is measured against r_min
        r = MatrixRelaxation.make(
            modes=[(10.0 ** e, np.eye(6)) for e in range(-5, 6)])
        c = dualize(r)
        assert len(c.modes) == 10
        for p in np.geomspace(1e-8, 1e8, 33):
            np.testing.assert_allclose(
                laplace_times_p(r, p) @ laplace_times_p(c, p), np.eye(6),
                rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("newtonian, equilibrium", [
        ([1] * 6, [1e-10] * 6), ([1] * 6, [1e-8] * 6), ([1] * 6, [1] * 6),
        ([1] * 6, [1e10] * 6),
        ([1] * 6, [1e-10, 1, 1, 1, 1, 1]),
        ([1] * 6, [1e-4, 1e6, 1, 1, 1, 1]),
        ([1, 0, 1, 1, 1, 1], [1e-7, 1e6, 1, 1, 1, 1]),
    ], ids=["iso-1e-10", "iso-1e-8", "iso-1", "iso-1e10", "aniso-10-decades",
            "aniso-1e-4-under-1e6", "singular-X-1e-7-under-1e6"])
    def test_mode_free_kernel_keeps_its_poles(self, newtonian, equilibrium):
        # U(p) = p X + Y, diagonal, has its poles at y/x; with no rate to
        # measure "zero" against, the floor is relative to Y on the range
        # of X over |X|, so slow poles stay modes instead of being taken
        # for a zero mass, however far below the fast ones and the units
        x, y = np.array(newtonian, float), np.array(equilibrium, float)
        poles = np.unique(y[x > 0] / x[x > 0])
        r = MatrixRelaxation.make(newtonian=np.diag(x), equilibrium=np.diag(y))
        c = dualize(r)
        rates = np.sort([rate for rate, _ in c.modes])
        np.testing.assert_allclose(rates, poles, rtol=1e-14, atol=0.0)
        for p in np.geomspace(1e-3 * poles[0], 1e3 * poles[-1], 13):
            np.testing.assert_allclose(
                laplace_times_p(r, p) @ laplace_times_p(c, p), np.eye(6),
                rtol=0.0, atol=1e-12)

    @pytest.mark.xfail(strict=True, raises=NumericsError, reason=(
        "two slow poles closer than 1e-8 |Y|/|X| share one nullspace of "
        "width 2 under a cutoff relative to |Y|, and the pole-count "
        "certificate raises"))
    @pytest.mark.parametrize("equilibrium", [
        [1e-4, 2e-4, 1e6, 1, 1, 1], [1e-10, 1e-9, 1, 1, 1, 1]],
        ids=["1e-4-and-2e-4-under-1e6", "1e-10-and-1e-9"])
    def test_mode_free_kernel_with_close_slow_poles(self, equilibrium):
        y = np.array(equilibrium)
        r = MatrixRelaxation.make(newtonian=np.eye(6),
                                  equilibrium=np.diag(y))
        rates = np.sort([rate for rate, _ in dualize(r).modes])
        np.testing.assert_allclose(rates, np.unique(y), rtol=1e-14, atol=0.0)

    @settings(deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           decades=st.floats(-100.0, 100.0),
           relaxation=st.booleans())
    def test_weight_unit_equivariance(self, seed, decades, relaxation):
        # stress in units 1/c: every coefficient scales by c, so U becomes
        # c U and U^-1 becomes U^-1 / c.  The poles stay where they are (to
        # 1e-9, or to four times the rounding resolution of a fast pole on
        # a nearly singular X) and every coefficient of the dual scales by
        # 1/c, over two hundred decades of c: nothing may compare a norm
        # with an absolute number.
        c = 10.0 ** decades
        rng = np.random.default_rng(seed)
        make = random_matrix_relaxation if relaxation else random_matrix_creep
        k = make(rng)
        X, Y, rates, weights = square_image(k)
        scaled = type(k).make(c * X, c * Y, [(r, c * w) for r, w in
                                             zip(rates, weights)])
        dual, scaled_dual = dualize(k), dualize(scaled)
        X, Y, rates, weights = square_image(scaled_dual)
        restored = type(dual)(c * X, c * Y, tuple(
            (r, c * w) for r, w in zip(rates, weights)))
        assert len(restored.modes) == len(dual.modes)
        image = cbf_image(k)
        for (s, _), (s_ref, _) in zip(restored.modes, dual.modes):
            assert abs(s - s_ref) <= (1e-9 * s_ref
                                      + 4.0 * pole_resolution(image, s_ref))
        assert kernel_distance(restored, dual) <= 1e-8

    @settings(deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           decades=st.floats(-20.0, 20.0),
           relaxation=st.booleans())
    def test_time_unit_equivariance(self, seed, decades, relaxation):
        # time in units c times longer: relaxation rates scale by c and N by
        # 1/c; creep rates, D and H by c.  U becomes U(p/c) (relaxation) or
        # c U(p/c) (creep), so every dual pole scales by c.
        c = 10.0 ** decades
        rng = np.random.default_rng(seed)
        if relaxation:
            k = random_matrix_relaxation(rng)
            scaled = MatrixRelaxation.make(
                newtonian=np.asarray(k.newtonian) / c,
                equilibrium=k.equilibrium,
                modes=[(c * r, g) for r, g in k.modes])
        else:
            k = random_matrix_creep(rng)
            scaled = MatrixCreep.make(
                instantaneous=k.instantaneous,
                fluidity=c * np.asarray(k.fluidity),
                modes=[(c * r, c * np.asarray(h)) for r, h in k.modes])
        poles = np.array([s for s, _ in dualize(k).modes])
        scaled_poles = np.array([s for s, _ in dualize(scaled).modes])
        assert scaled_poles.shape == poles.shape
        np.testing.assert_allclose(scaled_poles, c * poles, rtol=1e-9)

    @pytest.mark.parametrize("c", [1e-12, 1e12, 1e-100, 1e100])
    def test_time_unit_of_a_viscous_kernel(self, c):
        # N is a viscosity (stress times time) and B, G_k are moduli, so in
        # units where N dominates the sum N + B + sum G_k only by its time
        # unit, condition (*) holds all the same, and the dual's poles scale
        # with the time unit
        w = np.random.default_rng(0).normal(size=(6, 6))
        w = w @ w.T

        def kernel(c):
            return MatrixRelaxation.make(
                newtonian=1e12 / c * np.diag([1.0, 1, 1, 0, 0, 0]),
                equilibrium=np.eye(6),
                modes=[(c * 1e-12, w), (c * 1e-11, w / 2)])

        poles = np.array([s for s, _ in dualize(kernel(1.0)).modes])
        scaled = kernel(c)
        dual = dualize(scaled)
        np.testing.assert_allclose([s for s, _ in dual.modes], c * poles,
                                   rtol=1e-9)
        assert _laplace_product_error(scaled, dual) <= 1e-14

    def test_dispatch_type_error(self):
        with pytest.raises(TypeError):
            dualize("not a kernel")


def _laplace_product_error(kernel, dual):
    """Largest entry of ``[p Ktilde(p)] [p Dtilde(p)] - I`` over the span."""
    rates = [r for k in (kernel, dual) for r, _ in k.modes] or [1.0]
    worst = 0.0
    for p in np.geomspace(1e-3 * min(rates), 1e3 * max(rates), 60):
        product = (np.atleast_2d(laplace_times_p(kernel, p))
                   @ np.atleast_2d(laplace_times_p(dual, p)))
        worst = max(worst, np.max(np.abs(product - np.eye(len(product)))))
    return worst


class TestLightModeNextToARate:
    """A weight far below its neighbours puts a pole of ``U^-1`` closer to
    its rate than a float next to the rate resolves; the dual must still
    carry it with the right mass."""

    @pytest.mark.parametrize("weight", [1e-300, 1e-30, 1e-18, 1e-16])
    @pytest.mark.parametrize("neighbour", [
        3.0,          # U(-1) without the light term is 0.5
        2.0,          # ... is 0: two poles straddle the rate 1
        1.0000001])   # ... is -1e7: the pole lies above the rate 1
    @pytest.mark.parametrize("kind", [ScalarRelaxation, ScalarCreep])
    def test_scalar(self, kind, neighbour, weight):
        first, second = (0.0, 1.0) if kind is ScalarRelaxation else (1.0, 0.3)
        k = kind.make(first, second, [(1.0, weight), (neighbour, 1.0)])
        assert _laplace_product_error(k, dualize(k)) <= 1e-14

    @pytest.mark.parametrize("weight", [1e-300, 1e-18, 1e-16, 1e-14])
    @pytest.mark.parametrize("kind", [MatrixRelaxation, MatrixCreep])
    def test_matrix(self, kind, weight):
        w = np.random.default_rng(0).normal(size=(6, 6))
        w = w @ w.T
        first, second = ((None, np.eye(6)) if kind is MatrixRelaxation
                         else (np.eye(6), 0.3 * np.eye(6)))
        k = kind.make(first, second, [(1.0, weight * w), (3.0, w)])
        assert len(k.modes) == 2
        assert _laplace_product_error(k, dualize(k)) <= 1e-14

    def test_matrix_next_to_a_singular_rest(self, tmp_path):
        # U(-1) without the light term is singular on three directions, and
        # the pencil puts a pole candidate on the rate 1, where U(-s) is not
        # defined.  Nothing evaluates U there (a RuntimeWarning is an error
        # here, and eigh of a non-finite U a LinAlgError): the kernel
        # converts right, or fails as a numeric failure with exit 3
        w = np.random.default_rng(0).normal(size=(6, 6))
        k = MatrixRelaxation.make(
            equilibrium=np.eye(6),
            modes=[(1.0, 1e-18 * w @ w.T),
                   (2.0, np.diag([1.0, 1, 1, 0.5, 0.5, 3.0]))])
        path = tmp_path / "kernel.json"
        path.write_text(serialize_material(k))
        try:
            dual = dualize(k)
        except NumericsError:
            assert run(["dualize", str(path)]) == 3
        else:
            assert _laplace_product_error(k, dual) <= 1e-7


class TestScalarWeightUnit:
    @pytest.mark.parametrize("size", [1e-300, 1e-200, 1e200, 1e300])
    @pytest.mark.parametrize("kind", [ScalarRelaxation, ScalarCreep])
    def test_extreme_weights_give_the_right_dual(self, kind, size):
        # the secular iteration squares quantities in weight units: on the
        # unscaled image, weights past about 1e154 overflow it
        k = kind.make(0.0 if kind is ScalarRelaxation else size, size,
                      [(1.0, size), (3.0, 2.0 * size)])
        dual = dualize(k)
        # one pole below each rate, and one above the last with X > 0
        assert len(dual.modes) == (2 if kind is ScalarRelaxation else 3)
        assert _laplace_product_error(k, dual) <= 1e-14

    @settings(deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           power=st.sampled_from([-900, -300, 300, 900]),
           relaxation=st.booleans())
    def test_power_of_two_weights_scale_the_dual_exactly(self, seed, power,
                                                         relaxation):
        # every coefficient times 2^k: the poles are the same bits and
        # every coefficient of the dual is exactly 2^-k times the original
        rng = np.random.default_rng(seed)
        k = (random_scalar_relaxation if relaxation
             else random_scalar_creep)(rng)
        c = 2.0 ** power
        X, Y, rates, weights = square_image(k)
        scaled = type(k).make(c * X[0, 0], c * Y[0, 0],
                              [(r, c * w[0, 0]) for r, w in zip(rates, weights)])
        dual, scaled_dual = square_image(dualize(k)), square_image(
            dualize(scaled))
        np.testing.assert_array_equal(scaled_dual[2], dual[2])
        for i in (0, 1, 3):
            np.testing.assert_array_equal(c * scaled_dual[i], dual[i])

    @settings(deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           decades=st.floats(-100.0, 100.0),
           relaxation=st.booleans())
    def test_weight_unit_equivariance(self, seed, decades, relaxation):
        # every coefficient times any c, which rounds: the poles stay where
        # they are and every part of the dual scales by 1/c, to rounding
        rng = np.random.default_rng(seed)
        k = (random_scalar_relaxation if relaxation
             else random_scalar_creep)(rng)
        c = 10.0 ** decades
        X, Y, rates, weights = square_image(k)
        scaled = type(k).make(c * X[0, 0], c * Y[0, 0],
                              [(r, c * w[0, 0]) for r, w in zip(rates, weights)])
        dual, scaled_dual = square_image(dualize(k)), square_image(
            dualize(scaled))
        np.testing.assert_allclose(scaled_dual[2], dual[2], rtol=1e-14,
                                   atol=0.0)
        for i in (0, 1, 3):
            np.testing.assert_allclose(
                c * scaled_dual[i], dual[i], rtol=0.0,
                atol=1e-13 * np.max(np.abs(dual[i]), initial=0.0))


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
# 18 to 30 decades: a light fast mode is a pole of U^-1 like any other,
# so nothing may drop it by a kernel-wide scale.
for _decades in (18, 20, 30):
    _rates = 10.0 ** np.arange(-_decades / 2, _decades / 2 + 1)
    HARD_SCALAR_KERNELS[f"wide-{_decades}-relaxation-solid"] = (
        ScalarRelaxation, 0.0, 1.0, _rates)
    HARD_SCALAR_KERNELS[f"wide-{_decades}-creep-fluid"] = (
        ScalarCreep, 0.5, 0.3, _rates)


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


@pytest.mark.parametrize("decades", [12, 20, 30])
def test_power_law_fit_keeps_every_pole(decades):
    # the midpoint Prony fit of t^-alpha / Gamma(1 - alpha) at four modes
    # per decade: the spectrum r^(alpha - 1) / (Gamma(alpha) Gamma(1 - alpha))
    # integrated over each cell [e_i, e_i+1], at the cell's geometric
    # midpoint.  Without an equilibrium there is one dual pole at zero and
    # one between each pair of rates.
    alpha = 0.3
    edges = 10.0 ** np.linspace(-decades / 2, decades / 2, 4 * decades + 1)
    weights = np.diff(edges ** alpha) / (
        alpha * math.gamma(alpha) * math.gamma(1.0 - alpha))
    rates = np.sqrt(edges[:-1] * edges[1:])
    k = ScalarRelaxation.make(modes=list(zip(rates, weights)))
    dual = dualize(k)
    assert len(dual.modes) == len(rates) - 1
    assert _laplace_product_error(k, dual) <= 1e-14


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
