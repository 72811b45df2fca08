"""Seeded random kernel generators, closeness assertions and root oracles
shared by tests.

Rates are drawn with log-spaced gaps so that the overall spread stays
within three decades; weights are O(1).  Matrix weights are random Gram
matrices with mixed ranks, and the generators keep resampling until the
total coefficient sum is positive definite (the conversion hypothesis).
"""

import numpy as np
import numpy.polynomial.polynomial as npoly

from viscodual import (
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    symmetric6,
)
from viscodual.kernels import square_image
from viscodual.rational import cbf_as_rational


def rate_set(rng, n, spread=3.0):
    """n distinct positive rates whose ratio stays within 10**spread."""
    if n == 0:
        return []
    start = 10.0 ** rng.uniform(-1.5, 1.5)
    if n == 1:
        return [float(start)]
    gaps = rng.uniform(0.1, spread / n, size=n - 1)
    decades = np.concatenate([[0.0], np.cumsum(gaps)])
    return [float(x) for x in start * 10.0 ** decades]


def random_scalar_relaxation(rng, n_max=8):
    n = int(rng.integers(0, n_max + 1))
    dirac = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.3 else 0.0
    equilibrium = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.5 else 0.0
    modes = [(r, float(rng.uniform(0.2, 5.0))) for r in rate_set(rng, n)]
    if not modes and dirac == 0.0 and equilibrium == 0.0:
        equilibrium = float(rng.uniform(0.5, 2.0))
    return ScalarRelaxation.make(newtonian=dirac, equilibrium=equilibrium,
                                 modes=modes)


def random_scalar_creep(rng, n_max=8):
    n = int(rng.integers(0, n_max + 1))
    instantaneous = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.5 else 0.0
    fluidity = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.3 else 0.0
    modes = [(r, float(rng.uniform(0.2, 5.0))) for r in rate_set(rng, n)]
    if not modes and instantaneous == 0.0 and fluidity == 0.0:
        instantaneous = float(rng.uniform(0.5, 2.0))
    return ScalarCreep.make(instantaneous=instantaneous, fluidity=fluidity,
                            modes=modes)


def random_gram(rng, rank, scale=1.0):
    x = rng.normal(size=(6, rank))
    return symmetric6(scale * (x @ x.T))


def _random_coefficient(rng):
    """Zero, full-rank, or singular-but-nonzero PSD coefficient."""
    pick = rng.integers(0, 3)
    if pick == 0:
        return np.zeros((6, 6))
    if pick == 1:
        return random_gram(rng, 6)
    return random_gram(rng, int(rng.integers(1, 6)))


def random_matrix_relaxation(rng, n_max=4):
    for _ in range(50):
        n = int(rng.integers(1, n_max + 1))
        modes = [(r, random_gram(rng, int(rng.integers(1, 7))))
                 for r in rate_set(rng, n, spread=2.0)]
        kernel = MatrixRelaxation.make(
            newtonian=_random_coefficient(rng),
            equilibrium=_random_coefficient(rng),
            modes=modes)
        if kernel.satisfies_positivity():
            return kernel
    raise RuntimeError("failed to draw a positive-definite coefficient sum")


def random_matrix_creep(rng, n_max=4):
    for _ in range(50):
        n = int(rng.integers(1, n_max + 1))
        modes = [(r, random_gram(rng, int(rng.integers(1, 7))))
                 for r in rate_set(rng, n, spread=2.0)]
        kernel = MatrixCreep.make(
            instantaneous=_random_coefficient(rng),
            fluidity=_random_coefficient(rng),
            modes=modes)
        if kernel.satisfies_positivity():
            return kernel
    raise RuntimeError("failed to draw a positive-definite coefficient sum")


def _coefficients(kernel):
    if isinstance(kernel, (ScalarRelaxation, MatrixRelaxation)):
        return kernel.newtonian, kernel.equilibrium
    return kernel.instantaneous, kernel.fluidity


def kernel_scale(kernel):
    """Sum of the sizes (spectral norms) of a kernel's two coefficients and
    its mode weights."""
    X, Y, _, weights = square_image(kernel)
    stack = np.concatenate([X[None], Y[None], weights])
    return float(np.sum(np.linalg.norm(stack, 2, axis=(1, 2))))


def kernel_distance(a, b):
    """Relative distance between kernels of the same type.

    Maximum over the coefficient mismatches and per-mode rate/weight
    mismatches, normalized by the larger kernel's coefficient scale.
    Mismatched mode counts give infinity.
    """
    if type(a) is not type(b):
        raise TypeError("kernels must have the same type")
    if len(a.modes) != len(b.modes):
        return np.inf
    scale = max(kernel_scale(a), kernel_scale(b))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for xa, xb in zip(_coefficients(a), _coefficients(b)):
        worst = max(worst, np.max(np.abs(np.asarray(xa) - np.asarray(xb))))
    for (ra, wa), (rb, wb) in zip(a.modes, b.modes):
        worst = max(worst, abs(ra - rb) / max(ra, rb) * scale)
        worst = max(worst, np.max(np.abs(np.asarray(wa) - np.asarray(wb))))
    return worst / scale


def assert_kernels_close(a, b, tol):
    dist = kernel_distance(a, b)
    assert dist <= tol, f"kernel mismatch {dist:.3e} > {tol:.1e}"


def image_value(image, p):
    """``U(p) = p X + Y + sum Z_k p/(p + t_k)`` of scalar image data."""
    dirac, constant, rates, weights = image
    return p * dirac + constant + float(np.sum(weights * p / (p + rates)))


def _trimmed(coeffs):
    out = [float(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return out


def _product_of_monomials(rates):
    out = [1.0]
    for r in rates:
        out = npoly.polymul(out, [r, 1.0])
    return out


def image_numerator(kernel):
    """Ascending coefficients of ``N`` in ``U(p) = N(p) / prod(p + t_k)``.

    ``N(p) = (X p + Y) prod(p + t_k) + sum_k Z_k p prod_{j != k}(p + t_j)``,
    expanded into monomials: the input of the companion-matrix oracle.
    """
    dirac, constant, rates, weights = cbf_as_rational(kernel)
    rates = list(rates)
    num = npoly.polymul(_trimmed([constant, dirac]),
                        _product_of_monomials(rates))
    for k, weight in enumerate(weights):
        others = _product_of_monomials(rates[:k] + rates[k + 1:])
        num = npoly.polyadd(num, weight * npoly.polymul([0.0, 1.0], others))
    return _trimmed(num)
