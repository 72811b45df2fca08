import numpy as np
import pytest

from viscodual import (
    EigenstressBasis,
    InvalidKernel,
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    UNBOUNDED,
    assemble_eigenstress,
    creep_limits,
    eval_creep,
    eval_relaxation,
    laplace_times_p,
    relaxation_limits,
    symmetric6,
)
from viscodual.kernels import (
    is_psd, matrix_norm, max_rate, psd_flags)
from viscodual.rational import cbf_image

from kernel_corpus import random_gram


def spd(seed, rank=6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, rank))
    return x @ x.T


class TestCanonicalization:
    def test_modes_sorted_by_rate(self):
        k = ScalarRelaxation.make(modes=[(3.0, 1.0), (1.0, 2.0), (2.0, 0.5)])
        assert [r for r, _ in k.modes] == [1.0, 2.0, 3.0]

    def test_near_coincident_rates_merge(self):
        r = 1.0
        k = ScalarRelaxation.make(modes=[(r, 1.0), (r * (1 + 1e-14), 2.0)])
        assert len(k.modes) == 1
        assert k.modes[0][1] == pytest.approx(3.0)

    def test_only_zero_weights_dropped(self):
        # every positive weight is a pole of U^-1 that the dual needs,
        # however light next to the others
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[
            (0.5, 0.0), (1.0, 1e-18), (2.0, 1.0)])
        assert k.modes == ((1.0, 1e-18), (2.0, 1.0))
        w = spd(0)
        m = MatrixRelaxation.make(equilibrium=np.eye(6), modes=[
            (0.5, np.zeros((6, 6))), (1.0, 1e-18 * w), (2.0, w)])
        assert [r for r, _ in m.modes] == [1.0, 2.0]

    def test_zero_kernel_rejected(self):
        with pytest.raises(InvalidKernel):
            ScalarRelaxation.make()
        with pytest.raises(InvalidKernel):
            ScalarCreep.make(modes=[(1.0, 0.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidKernel):
            ScalarCreep.make(modes=[(-1.0, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidKernel):
            ScalarRelaxation.make(modes=[(1.0, -0.5)])
        # validated before anything is summed: a weight larger in magnitude
        # than the rest of the kernel is still reported as negative
        with pytest.raises(InvalidKernel, match="nonnegative"):
            ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, -2.0)])

    def test_indefinite_matrix_weight_rejected(self):
        w = np.diag([1.0, 1, 1, 1, 1, -1.0])
        with pytest.raises(InvalidKernel):
            MatrixRelaxation.make(modes=[(1.0, w)])

    def test_asymmetric_matrix_rejected(self):
        m = np.eye(6)
        m = m + 0.0
        m[0, 1] = 1.0   # m[1, 0] stays 0
        with pytest.raises(InvalidKernel):
            MatrixCreep.make(instantaneous=m)

    def test_matrix_modes_frozen(self):
        k = MatrixRelaxation.make(modes=[(1.0, spd(0))])
        with pytest.raises(ValueError):
            k.modes[0][1][0, 0] = 5.0


class TestSymmetric6:
    def test_rebuilds_exact_symmetry(self):
        rng = np.random.default_rng(1)
        m = spd(1) + 1e-14 * rng.normal(size=(6, 6))
        out = symmetric6(m)
        assert np.array_equal(out, out.T)

    def test_large_asymmetry_fails(self):
        m = spd(2)
        m[0, 5] += 1.0
        with pytest.raises(InvalidKernel):
            symmetric6(m)

    def test_wrong_shape(self):
        with pytest.raises(InvalidKernel):
            symmetric6(np.eye(3))


class TestPsdHelpers:
    def test_is_psd_accepts_gram(self):
        assert is_psd(spd(3, rank=2))

    def test_is_pd_rejects_singular(self):
        _, pd, _ = psd_flags([spd(4, rank=3), spd(4, rank=6)])
        assert pd.tolist() == [False, True]

    @pytest.mark.parametrize("shape", [(6, 6), (1, 6, 6), (10, 6, 6),
                                       (30, 1, 1), (0, 6, 6)])
    def test_matrix_norm_matches_numpy_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        m = rng.normal(size=shape)
        cases = [m, np.zeros(shape)]
        if m.ndim == 3:
            every_third = np.arange(shape[0])[:, None, None] % 3 == 0
            cases.append(np.where(every_third, 0.0, m))
        for case in cases:
            expected = np.linalg.norm(case, 2, axis=(-2, -1))
            got = matrix_norm(case)
            if case.ndim == 2:
                assert type(got) is float
            np.testing.assert_array_equal(got, expected)

    def test_matrix_norm_of_1x1_is_the_singular_value(self):
        rng = np.random.default_rng(1704)
        stack = rng.normal(size=(1000, 1, 1)) \
            * 10.0 ** rng.uniform(-130, 130, size=(1000, 1, 1))
        stack[:3] = [[[0.0]], [[-0.0]], [[-2.5]]]
        expected = np.linalg.svd(stack, compute_uv=False)[:, 0]
        np.testing.assert_array_equal(matrix_norm(stack), expected)
        assert matrix_norm(stack[2]) == 2.5
        assert type(matrix_norm(stack[2])) is float

    def test_skew_matrix_is_not_psd(self):
        # its symmetric part, whose eigenvalues give the norm, is zero
        skew = np.zeros((6, 6))
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        psd, pd, norms = psd_flags(np.array([skew, np.zeros((6, 6))]))
        assert psd.tolist() == [False, True] and not pd.any()
        assert norms.tolist() == [0.0, 0.0]


class TestEvaluation:
    def test_relaxation_closed_form(self):
        k = ScalarRelaxation.make(newtonian=2.0, equilibrium=1.0,
                                  modes=[(0.5, 3.0)])
        for t in [0.0, 0.1, 1.0, 10.0]:
            assert eval_relaxation(k, t) == pytest.approx(
                1.0 + 3.0 * np.exp(-0.5 * t), abs=1e-15)

    def test_value_at_zero_is_right_limit(self):
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[(2.0, 4.0)])
        assert eval_relaxation(k, 0.0) == pytest.approx(5.0)

    def test_creep_closed_form(self):
        k = ScalarCreep.make(instantaneous=0.5, fluidity=0.25,
                             modes=[(2.0, 1.0)])
        for t in [0.0, 0.3, 5.0]:
            expected = 0.5 + 0.25 * t + 0.5 * (1 - np.exp(-2 * t))
            assert eval_creep(k, t) == pytest.approx(expected, abs=1e-15)

    def test_negative_time_rejected(self):
        k = ScalarCreep.make(instantaneous=1.0)
        with pytest.raises(ValueError):
            eval_creep(k, -0.1)

    def test_matrix_evaluation_matches_componentwise(self):
        g = symmetric6(spd(5))
        k = MatrixRelaxation.make(equilibrium=np.eye(6), modes=[(1.5, g)])
        t = 0.7
        expected = np.eye(6) + np.exp(-1.5 * t) * g
        np.testing.assert_allclose(eval_relaxation(k, t), expected, atol=1e-15)


class TestLaplace:
    def test_relaxation_image(self):
        k = ScalarRelaxation.make(newtonian=0.5, equilibrium=1.0,
                                  modes=[(2.0, 3.0)])
        p = 1.7
        assert laplace_times_p(k, p) == pytest.approx(
            0.5 * p + 1.0 + 3.0 * p / (p + 2.0), rel=1e-15)

    def test_creep_image(self):
        k = ScalarCreep.make(instantaneous=0.5, fluidity=0.75,
                             modes=[(2.0, 0.25)])
        p = 0.9
        assert laplace_times_p(k, p) == pytest.approx(
            0.5 + 0.75 / p + 0.25 / (p + 2.0), rel=1e-15)

    def test_nonpositive_p_rejected(self):
        k = ScalarCreep.make(instantaneous=1.0)
        with pytest.raises(ValueError):
            laplace_times_p(k, 0.0)


class TestLimits:
    def test_solid_relaxation(self):
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        rep = relaxation_limits(k)
        assert rep.value_at_zero == pytest.approx(2.0)
        assert rep.value_at_infinity == pytest.approx(1.0)
        assert rep.derivative_at_zero == pytest.approx(-1.0)
        assert rep.dirac == 0.0

    def test_fluid_creep_is_unbounded(self):
        k = ScalarCreep.make(fluidity=1.0)
        rep = creep_limits(k)
        assert rep.value_at_infinity is UNBOUNDED
        assert rep.derivative_at_infinity == pytest.approx(1.0)

    def test_solid_creep_saturates(self):
        k = ScalarCreep.make(instantaneous=0.5, modes=[(0.5, 0.25)])
        rep = creep_limits(k)
        assert rep.value_at_infinity == pytest.approx(1.0)

    def test_matrix_fluid_tagged(self):
        k = MatrixCreep.make(fluidity=np.eye(6))
        assert creep_limits(k).value_at_infinity is UNBOUNDED

    def test_max_rate_default(self):
        assert max_rate(ScalarCreep.make(instantaneous=1.0)) == 1.0


class TestEigenstress:
    def test_rank_one_assembly(self):
        v = np.array([1.0, 0, 0, 0, 0, 0])
        basis = EigenstressBasis((v,), (((2.0, 0.5),),), mass=4.0)
        k = assemble_eigenstress(basis)
        assert len(k.modes) == 1
        rate, g = k.modes[0]
        assert rate == 2.0
        np.testing.assert_allclose(g, 2.0 * np.outer(v, v))

    def test_shared_rates_accumulate(self):
        v1 = np.array([1.0, 0, 0, 0, 0, 0])
        v2 = np.array([0.0, 1, 0, 0, 0, 0])
        basis = EigenstressBasis(
            (v1, v2), (((1.0, 1.0),), ((1.0, 1.0), (3.0, 0.5))))
        k = assemble_eigenstress(basis, equilibrium=np.eye(6))
        assert [r for r, _ in k.modes] == [1.0, 3.0]
        np.testing.assert_allclose(
            k.modes[0][1], np.outer(v1, v1) + np.outer(v2, v2))

    def test_coefficient_outside_unit_interval_rejected(self):
        v = np.ones(6)
        with pytest.raises(InvalidKernel):
            EigenstressBasis((v,), (((1.0, 1.5),),))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidKernel):
            EigenstressBasis((np.zeros(6),), (((1.0, 0.5),),))

    def test_too_many_vectors_rejected(self):
        vs = tuple(np.ones(6) for _ in range(7))
        with pytest.raises(InvalidKernel):
            EigenstressBasis(vs, tuple(((1.0, 0.5),) for _ in range(7)))

    def test_random_assembly_is_wellformed(self):
        rng = np.random.default_rng(7)
        vs = tuple(rng.normal(size=6) for _ in range(4))
        spectra = tuple(
            tuple((float(10 ** rng.uniform(-1, 1)), float(rng.uniform(0, 1)))
                  for _ in range(rng.integers(1, 4)))
            for _ in range(4))
        k = assemble_eigenstress(EigenstressBasis(vs, spectra, mass=2.0))
        for _, g in k.modes:
            assert is_psd(np.asarray(g))


def test_positivity_condition_detects_gap():
    # every coefficient misses the same direction -> condition (*) fails
    g = symmetric6(np.diag([1.0, 1, 1, 1, 1, 0.0]))
    k = MatrixRelaxation.make(equilibrium=g, modes=[(1.0, g)])
    assert not cbf_image(k).definite
    k2 = MatrixRelaxation.make(equilibrium=np.eye(6), modes=[(1.0, g)])
    assert cbf_image(k2).definite


def test_random_gram_helper_is_psd():
    rng = np.random.default_rng(11)
    for rank in (1, 3, 6):
        assert is_psd(np.asarray(random_gram(rng, rank)))
