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
