"""A scalar kernel is the 1x1 case of a 6x6 one, end to end.

Every coefficient ``c`` of a scalar kernel becomes ``c I`` in its 6x6 twin.
The twin's time-domain values, CSV rows, responses, Laplace image and dual
must be the scalar's times the identity.  The time domain has one
evaluator for both sizes, so the per-point functions and the stacked
sampling agree bit for bit on every kernel class.
"""

import numpy as np
import pytest

from viscodual import (
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    StrainHistory,
    dualize,
    eval_creep,
    eval_relaxation,
    laplace_times_p,
    respond,
    respond_creep,
    sample_to_csv,
)
from viscodual.kernels import square_image
from viscodual.verify import kernel_values

from kernel_corpus import (
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
)

EYE = np.eye(6)
TWINS = {ScalarRelaxation: MatrixRelaxation, ScalarCreep: MatrixCreep}


def _twin(kernel):
    X, Y, rates, weights = square_image(kernel)
    return TWINS[type(kernel)].make(
        X[0, 0] * EYE, Y[0, 0] * EYE,
        [(r, w[0, 0] * EYE) for r, w in zip(rates, weights)])


def _scalars(seed, count):
    rng = np.random.default_rng(seed)
    return [make(rng) for make in (random_scalar_relaxation,
                                   random_scalar_creep)
            for _ in range(count)]


def _evaluate(kernel, t):
    return (eval_relaxation if kernel.relaxation else eval_creep)(kernel, t)


def _times(kernel):
    rmax = max((r for r, _ in kernel.modes), default=1.0)
    return np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 40) / rmax])


@pytest.mark.parametrize("seed", [1, 2])
def test_twin_values_rows_and_responses(seed):
    for kernel in _scalars(seed, 10):
        twin = _twin(kernel)
        times = _times(kernel)
        for t in times:
            np.testing.assert_array_equal(_evaluate(twin, t),
                                          _evaluate(kernel, t) * EYE)
        lo, hi = times[1], times[-1]
        for spacing, start in (("linear", 0.0), ("log", lo)):
            scalar_rows = np.loadtxt(sample_to_csv(
                kernel, start, hi, 65, spacing).splitlines()[1:],
                delimiter=",")
            twin_rows = np.loadtxt(sample_to_csv(
                twin, start, hi, 65, spacing).splitlines()[1:],
                delimiter=",")
            upper = np.triu_indices(6)
            want = scalar_rows[:, 1:2, None] * EYE
            np.testing.assert_array_equal(twin_rows[:, 0], scalar_rows[:, 0])
            np.testing.assert_array_equal(twin_rows[:, 1:],
                                          want[:, upper[0], upper[1]])

        breaks = tuple(np.array([0.0, 0.5, 3.0, 50.0]) * hi / 1e3)
        levels = (0.0, 1.0, -0.5, 2.0)
        history = StrainHistory(breaks, levels, initial_jump=0.7)
        history6 = StrainHistory(breaks, [v * np.ones(6) for v in levels],
                                 initial_jump=0.7 * np.ones(6))
        act = respond if kernel.relaxation else respond_creep
        scalar_series, twin_series = (act(kernel, history, times),
                                      act(twin, history6, times))
        for value, twin_value in zip(scalar_series.values,
                                     twin_series.values):
            np.testing.assert_array_equal(twin_value, value * np.ones(6))
        assert len(twin_series.impulses) == len(scalar_series.impulses)
        for (t0, mag), (t1, mag6) in zip(scalar_series.impulses,
                                         twin_series.impulses):
            assert t0 == t1
            np.testing.assert_array_equal(mag6, mag * np.ones(6))


@pytest.mark.parametrize("seed", [3, 4])
def test_twin_laplace_image_and_dual(seed):
    for kernel in _scalars(seed, 10):
        twin = _twin(kernel)
        rates = [r for r, _ in kernel.modes] or [1.0]
        for p in np.geomspace(1e-3 * rates[0], 1e3 * rates[-1], 25):
            value = laplace_times_p(kernel, p)
            np.testing.assert_allclose(laplace_times_p(twin, p), value * EYE,
                                       rtol=1e-14, atol=1e-14 * value)
        dual, twin_dual = dualize(kernel), dualize(twin)
        assert type(twin_dual) is TWINS[type(dual)]
        X, Y, poles, masses = square_image(dual)
        X6, Y6, poles6, masses6 = square_image(twin_dual)
        np.testing.assert_allclose(poles6, poles, rtol=1e-14, atol=0.0)
        scale = X[0, 0] + Y[0, 0] + masses.sum()
        for got, want in ((X6, X[0, 0]), (Y6, Y[0, 0])):
            np.testing.assert_allclose(got, want * EYE, rtol=1e-12,
                                       atol=1e-12 * scale)
        for got, want in zip(masses6, masses[:, 0, 0]):
            np.testing.assert_allclose(got, want * EYE, rtol=1e-12,
                                       atol=1e-12 * want)


def test_per_point_values_are_the_sampled_bits():
    rng = np.random.default_rng(5)
    kernels = []
    for make in (random_scalar_relaxation, random_scalar_creep,
                 random_matrix_relaxation, random_matrix_creep):
        kernels += [make(rng) for _ in range(4)]
    for kernel in kernels:
        times = _times(kernel)
        stacked = kernel_values(kernel, times)
        for t, value in zip(times, stacked):
            point = _evaluate(kernel, t)
            assert np.all(np.reshape(point, value.shape) == value), t
