"""Prony-series relaxation and creep kernels, scalar and 6x6 (Voigt).

A relaxation kernel is ``f(t) = beta*u(t) + a + sum_k m_k exp(-r_k t)``
where ``u`` is the identity (Dirac) convolution operator; a creep kernel is
``h(t) = a + b*t + sum_j (nu_j/s_j)(1 - exp(-s_j t))``.  The 6x6 variants
carry positive-semidefinite symmetric matrix coefficients in Voigt
convention (indices 11, 22, 33, 23, 31, 12 with sqrt(2)-scaled shears).

Every kernel maps to the coefficients ``(X, Y, modes)`` of its complete
Bernstein image (:func:`stored_image`; as arrays, :func:`cbf_as_rational`
and :func:`square_image`).  The Laplace images and limits are written
once on those arrays, with a scalar kernel as the ``1 x 1`` case, and the
time-domain values and their integrals once on the stored coefficients,
floats or 6x6 arrays (:func:`time_values`).  Condition (*) of a 6x6
kernel is decided on its image (``rational.CbfImage.definite``).

All kernel objects are immutable after construction and every function in
this module is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerances shared across the package.
TOL_MERGE = 1e-12   # gap to the lower rate, relative to the upper one,
                    # below which two modes are merged
TOL_PSD = 1e-10     # eigenvalue floor for positive-semidefiniteness checks
TOL_SYM = 1e-12     # asymmetry accepted before symmetrizing a 6x6 input


class InvalidKernel(ValueError):
    """Kernel data violates a structural invariant."""


class NumericsError(RuntimeError):
    """A numerical step failed in a way that signals degenerate input."""


class Unbounded:
    """Tagged infinity used in limit reports (never a float sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


UNBOUNDED = Unbounded()


# ---------------------------------------------------------------------------
# Symmetric matrix helpers
# ---------------------------------------------------------------------------

def symmetric6(m):
    """Validate a 6x6 symmetric matrix, or a stack of them, and return it
    exactly symmetric.

    The result is rebuilt from the upper triangle, so symmetry holds to the
    last bit.  Asymmetry beyond ``TOL_SYM`` (relative to each matrix's
    scale) is an error.  The returned array is read-only.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2:] != (6, 6):
        raise InvalidKernel(f"expected a 6x6 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidKernel("matrix entries must be finite")
    scale = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    mismatch = np.max(np.abs(a - np.swapaxes(a, -1, -2)),
                      axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(mismatch > TOL_SYM * scale)
    if bad.size:
        raise InvalidKernel(
            f"matrix asymmetry {mismatch.flat[bad[0]]:.3e} exceeds "
            f"{TOL_SYM:.1e} * scale")
    out = np.triu(a) + np.swapaxes(np.triu(a, 1), -1, -2)
    out.setflags(write=False)
    return out


def matrix_norm(m):
    """Spectral norm of a matrix (a float), or of each matrix of a
    ``(n, d, d)`` stack (an array), from one batched singular-value call.

    Only non-symmetric matrices need it; a symmetric stack has its norms
    from the eigenvalues it is decomposed into anyway (:func:`eig_norm`).
    Its callers are the checks of :mod:`verify`, which hand it only the
    misfits that can decide their result.
    """
    norms = (np.abs(m[..., 0, 0]) if m.shape[-2:] == (1, 1)   # 2-norm of 1x1
             else np.linalg.svd(m, compute_uv=False)[..., 0])
    return float(norms) if norms.ndim == 0 else norms


def eig_norm(w):
    """Spectral norms of symmetric matrices from their eigenvalues in
    ascending order (the last axis of ``w``): ``max(|w_0|, |w_-1|)``."""
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def psd_flags(stack, tol=TOL_PSD):
    """Semidefiniteness and definiteness of every matrix of a ``(n, d, d)``
    stack: the one predicate behind every such test in the package but
    condition (*), whose bound is not relative to the block it tests
    (``rational.CbfImage.definite``).

    A matrix is positive semidefinite when it is symmetric within
    ``TOL_PSD`` and no eigenvalue is below ``-tol``; it is positive
    definite when it is symmetric within ``TOL_PSD`` and its lowest
    eigenvalue is above ``tol``; all relative to its spectral norm.  ``tol``
    may hold one value per matrix.  One batched ``eigvalsh`` of the
    symmetric parts gives every eigenvalue and the norms (:func:`eig_norm`;
    a matrix symmetric within ``TOL_PSD`` has the norm of its symmetric
    part to that tolerance).  The eigenvalue of a ``1 x 1`` matrix is read
    off its entry, which is what ``eigvalsh`` returns, to the bit, NaN,
    infinities and ``-0.0`` included.  Returns ``(psd, pd, norms)``.
    """
    stack = np.asarray(stack, dtype=float)
    flipped = np.swapaxes(stack, -1, -2)
    part = 0.5 * (stack + flipped)
    w = part[..., 0] if part.shape[-1] == 1 else np.linalg.eigvalsh(part)
    norms = eig_norm(w)
    floor = tol * norms
    symmetric = (np.max(np.abs(stack - flipped), axis=(-2, -1), initial=0.0)
                 <= TOL_PSD * norms)
    lowest = w[..., 0]
    return symmetric & (lowest >= -floor), symmetric & (lowest > floor), norms


def is_psd(m, tol=TOL_PSD):
    return bool(psd_flags(np.asarray(m, dtype=float)[None], tol)[0][0])


def _frozen(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _checked_rate(rate):
    rate = float(rate)
    if not np.isfinite(rate) or rate <= 0.0:
        raise InvalidKernel("rate must be positive")
    return rate


def near_coincident(lower, upper):
    """Whether two sorted rates are merged into one mode."""
    return upper - lower <= TOL_MERGE * upper


def _canonical_modes(rates, weights):
    """Sort by rate and merge near-coincident rates.

    A rate joins the group of the next lower one when it is near-coincident
    with the group's first rate, so the merge gap scales with the rates
    themselves and slow modes stay apart however wide the spectrum is.  The
    callers leave out the zero weights first: every other weight is a pole
    of ``U(p)^-1`` that the dual needs, however small.
    """
    merged_rates, merged_weights = [], []
    for i in sorted(range(len(rates)), key=rates.__getitem__):
        if merged_rates and near_coincident(merged_rates[-1], rates[i]):
            merged_weights[-1] = merged_weights[-1] + weights[i]
        else:
            merged_rates.append(rates[i])
            merged_weights.append(weights[i])
    return tuple(zip(merged_rates, merged_weights))


def _scalar_parts(first, second, names, modes, kind):
    """Validated coefficients and canonical modes of a scalar kernel.

    Every number is validated before any is used, and a mode is left out
    only where its weight is exactly 0.
    """
    coefs = []
    for value, name in zip((first, second), names):
        value = float(value)
        if not np.isfinite(value) or value < 0.0:
            raise InvalidKernel(f"{name} must be a nonnegative finite number")
        coefs.append(value)
    rates, weights = [], []
    for rate, weight in modes:
        rate, weight = _checked_rate(rate), float(weight)
        if not np.isfinite(weight) or weight < 0.0:
            raise InvalidKernel("mode weight must be nonnegative")
        if weight > 0.0:
            rates.append(rate)
            weights.append(weight)
    if not (weights or any(coefs)):
        raise InvalidKernel(f"{kind} kernel is identically zero")
    return (*coefs, _canonical_modes(rates, weights))


def _matrix_parts(first, second, names, modes, kind):
    """Validated coefficients and canonical modes of a 6x6 kernel.

    The two coefficients and the mode weights are checked as one stack: one
    batched eigenvalue call gives every positive-semidefiniteness test and
    the spectral norms, and a mode is left out only where its norm is
    exactly 0.
    """
    coefs = [np.zeros((6, 6)) if m is None else np.asarray(m, dtype=float)
             for m in (first, second)]
    matrices = coefs + [np.asarray(w, dtype=float) for _, w in modes]
    for m in matrices:
        if m.shape != (6, 6):
            raise InvalidKernel(f"expected a 6x6 matrix, got shape {m.shape}")
    stack = symmetric6(np.array(matrices))
    psd, _, norms = psd_flags(stack)
    for name, ok in zip(names, psd):
        if not ok:
            raise InvalidKernel(f"{name} must be positive semidefinite")
    rates = [_checked_rate(r) for r, _ in modes]
    bad = np.flatnonzero(~psd[2:])
    if bad.size:
        raise InvalidKernel(f"mode weight at rate {rates[bad[0]]} is not "
                            "positive semidefinite")
    if not norms.any():
        raise InvalidKernel(f"{kind} kernel is identically zero")
    nonzero = np.flatnonzero(norms[2:])
    canon = _canonical_modes([rates[i] for i in nonzero], stack[2:][nonzero])
    return (_frozen(stack[0]), _frozen(stack[1]),
            tuple((r, _frozen(w)) for r, w in canon))


# ---------------------------------------------------------------------------
# Kernel classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarRelaxation:
    """``f(t) = newtonian*u(t) + equilibrium + sum m_k exp(-r_k t)``.

    ``modes`` holds ``(rate, weight)`` pairs sorted by rate.  Use
    :meth:`make` to construct a validated, canonical instance.
    """

    newtonian: float = 0.0
    equilibrium: float = 0.0
    modes: tuple = ()
    relaxation = True

    @classmethod
    def make(cls, newtonian=0.0, equilibrium=0.0, modes=()):
        return cls(*_scalar_parts(
            newtonian, equilibrium,
            ("newtonian coefficient", "equilibrium"), modes, "relaxation"))


@dataclass(frozen=True)
class ScalarCreep:
    """``h(t) = instantaneous + fluidity*t + sum (nu_j/s_j)(1-exp(-s_j t))``.

    ``modes`` holds ``(rate, mass)`` pairs sorted by rate.
    """

    instantaneous: float = 0.0
    fluidity: float = 0.0
    modes: tuple = ()
    relaxation = False

    @classmethod
    def make(cls, instantaneous=0.0, fluidity=0.0, modes=()):
        return cls(*_scalar_parts(
            instantaneous, fluidity,
            ("instantaneous compliance", "fluidity"), modes, "creep"))


@dataclass(frozen=True, eq=False)
class MatrixRelaxation:
    """``R(t) = u(t) N + B + sum G_k exp(-r_k t)`` with PSD 6x6 coefficients."""

    newtonian: np.ndarray
    equilibrium: np.ndarray
    modes: tuple
    relaxation = True

    @classmethod
    def make(cls, newtonian=None, equilibrium=None, modes=()):
        return cls(*_matrix_parts(
            newtonian, equilibrium,
            ("newtonian matrix", "equilibrium matrix"), modes, "relaxation"))


@dataclass(frozen=True, eq=False)
class MatrixCreep:
    """``C(t) = A + t D + sum (H_j/s_j)(1 - exp(-s_j t))``, PSD coefficients."""

    instantaneous: np.ndarray
    fluidity: np.ndarray
    modes: tuple
    relaxation = False

    @classmethod
    def make(cls, instantaneous=None, fluidity=None, modes=()):
        return cls(*_matrix_parts(
            instantaneous, fluidity,
            ("instantaneous matrix", "fluidity matrix"), modes, "creep"))


def max_rate(kernel):
    """Largest exponential rate of a kernel, or 1.0 if it has no modes."""
    return max((r for r, _ in kernel.modes), default=1.0)


# ---------------------------------------------------------------------------
# Complete Bernstein images
# ---------------------------------------------------------------------------

def stored_image(kernel):
    """``(X, Y, modes)`` of a kernel's image as the kernel stores them:
    floats or read-only 6x6 arrays, and the ``(rate, weight)`` pairs in
    rate order.  A relaxation kernel has ``(X, Y) = (newtonian,
    equilibrium)``, a creep kernel ``(X, Y) = (instantaneous, fluidity)``.
    This is the one place that knows which coefficients of each kernel
    class are ``X`` and ``Y``.
    """
    if isinstance(kernel, (ScalarRelaxation, MatrixRelaxation)):
        return kernel.newtonian, kernel.equilibrium, kernel.modes
    if isinstance(kernel, (ScalarCreep, MatrixCreep)):
        return kernel.instantaneous, kernel.fluidity, kernel.modes
    raise TypeError(f"not a kernel: {type(kernel).__name__}")


def cbf_as_rational(kernel):
    """The image ``U(p) = p X + Y + sum_k Z_k p/(p + t_k)`` of a kernel.

    Returns ``(X, Y, rates, weights)`` as arrays: ``rates`` is ``(K,)`` and
    ``weights`` stacks the mode weights, ``(K,)`` for a scalar kernel and
    ``(K, 6, 6)`` for a 6x6 one.  A relaxation kernel gives
    ``U(p) = p ftilde(p)``, a creep kernel ``U(p) = p^2 htilde(p)``, with
    ``X`` and ``Y`` as in :func:`stored_image`.  In both cases ``U(p)^-1``
    decomposes into the dual kernel's coefficients.
    """
    X, Y, modes = stored_image(kernel)
    return (np.asarray(X, dtype=float), np.asarray(Y, dtype=float),
            np.array([r for r, _ in modes], dtype=float),
            np.array([w for _, w in modes], dtype=float))


def square_image(kernel):
    """:func:`cbf_as_rational` with ``X, Y`` as ``d x d`` matrices and the
    weights as ``(K, d, d)``; ``d`` is 1 for a scalar kernel."""
    X, Y, rates, weights = cbf_as_rational(kernel)
    d = X.shape[0] if X.ndim else 1
    return X.reshape(d, d), Y.reshape(d, d), rates, weights.reshape(-1, d, d)


def _unwrap(m):
    """A ``1 x 1`` matrix as a float, any other as a copy."""
    return float(m[0, 0]) if m.shape == (1, 1) else np.array(m)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def time_values(relaxation, X, Y, modes, t, integral):
    """The continuous part of a kernel at ``t``, or with ``integral`` its
    integral from 0 to ``t``.

    A relaxation kernel is ``Y + sum_k exp(-r_k t) Z_k``, with integral
    ``t Y + sum_k phi_k(t) Z_k``; a creep kernel is
    ``X + t Y + sum_k phi_k(t) Z_k``, with integral
    ``t X + t^2/2 Y + sum_k (t - phi_k(t))/r_k Z_k``; here
    ``phi_k(t) = -expm1(-r_k t)/r_k``.  ``X, Y, modes`` are as
    :func:`stored_image` gives them, floats or 6x6 arrays, and ``t`` is a
    float or a ``(T, 1, 1)`` column of times.  The modes are added one at
    a time in rate order, so every time of a column gets the bits that it
    gets as a float.
    """
    if integral:
        out = t * Y if relaxation else t * X + (t * t / 2.0) * Y
    else:
        out = np.zeros_like(t) + Y if relaxation else X + t * Y
    for r, w in modes:
        if relaxation and not integral:
            factor = np.exp(-r * t)
        else:
            factor = -np.expm1(-r * t) / r
            if integral and not relaxation:
                factor = (t - factor) / r
        out = out + factor * w
    return out


def _eval(kernel, t, relaxation):
    """:func:`time_values` at one time ``t >= 0`` of a kernel of the kind
    that ``relaxation`` names."""
    X, Y, modes = stored_image(kernel)
    if kernel.relaxation != relaxation:
        kind = "relaxation" if relaxation else "creep"
        raise TypeError(f"not a {kind} kernel: {type(kernel).__name__}")
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return time_values(relaxation, X, Y, modes, t, False)


def eval_relaxation(kernel, t):
    """Continuous part of the relaxation kernel at time ``t >= 0``.

    The Dirac (Newtonian) coefficient is not part of the pointwise value; it
    is reported separately by :func:`relaxation_limits`.  The value at
    ``t = 0`` is the limit from the right.
    """
    return _eval(kernel, t, True)


def eval_creep(kernel, t):
    """Creep kernel value at time ``t >= 0``."""
    return _eval(kernel, t, False)


def laplace_times_p(kernel, p):
    """``p * ktilde(p)`` on the positive real Laplace axis.

    For a relaxation kernel this is its image ``U(p)``, the complete
    Bernstein expression ``beta*p + a + sum m_k p/(p+r_k)``; for a creep
    kernel ``U(p)/p``, the Stieltjes expression ``a + b/p + sum
    nu_j/(p+s_j)``.  A scalar kernel gives a float, a 6x6 kernel a matrix.
    """
    p = float(p)
    if p <= 0.0:
        raise ValueError("Laplace variable must be positive")
    X, Y, rates, weights = square_image(kernel)
    if kernel.relaxation:
        X, factors = p * X, p / (p + rates)
    else:
        Y, factors = Y / p, 1.0 / (p + rates)
    return _unwrap(X + Y + np.tensordot(factors, weights, 1))


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitReport:
    """Boundary values at t -> 0+ and t -> infinity.

    Unbounded entries carry the :data:`UNBOUNDED` tag.  ``dirac`` is the
    Newtonian coefficient for relaxation kernels, None for creep kernels.
    Entries are floats for a scalar kernel and 6x6 arrays otherwise.
    """

    value_at_zero: object
    value_at_infinity: object
    derivative_at_zero: object
    derivative_at_infinity: object
    dirac: object = None


def relaxation_limits(kernel):
    """Limits of the continuous part ``Y + sum Z_k exp(-r_k t)`` of a
    relaxation kernel, with its Dirac part ``X``."""
    X, Y, rates, weights = square_image(kernel)
    if not kernel.relaxation:
        raise TypeError(f"not a relaxation kernel: {type(kernel).__name__}")
    return LimitReport(
        value_at_zero=_unwrap(Y + weights.sum(axis=0)),
        value_at_infinity=_unwrap(Y),
        derivative_at_zero=_unwrap(-np.tensordot(rates, weights, 1)),
        derivative_at_infinity=_unwrap(np.zeros_like(Y)),
        dirac=_unwrap(X),
    )


def creep_limits(kernel):
    """Limits of a creep kernel ``X + t Y + sum (Z_j/s_j)(1 - exp(-s_j t))``;
    unbounded growth is tagged, not a float."""
    X, Y, rates, weights = square_image(kernel)
    if kernel.relaxation:
        raise TypeError(f"not a creep kernel: {type(kernel).__name__}")
    return LimitReport(
        value_at_zero=_unwrap(X),
        value_at_infinity=(UNBOUNDED if np.any(Y) else _unwrap(
            X + (weights / rates[:, None, None]).sum(axis=0))),
        derivative_at_zero=_unwrap(Y + weights.sum(axis=0)),
        derivative_at_infinity=_unwrap(Y),
    )


# ---------------------------------------------------------------------------
# Eigenstress construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenstressBasis:
    """Fixed stress directions with per-direction relaxation spectra.

    ``vectors`` holds up to six nonzero Voigt 6-vectors; ``spectra[j]`` is a
    list of ``(rate, coefficient)`` pairs with coefficients in [0, 1]; all
    are scaled by the shared ``mass``.
    """

    vectors: tuple
    spectra: tuple
    mass: float = 1.0

    def __post_init__(self):
        if not (1 <= len(self.vectors) <= 6):
            raise InvalidKernel("between one and six basis vectors required")
        if len(self.spectra) != len(self.vectors):
            raise InvalidKernel("one spectrum required per basis vector")
        vecs = []
        for v in self.vectors:
            v = _frozen(np.asarray(v, dtype=float).reshape(6))
            if not np.any(v):
                raise InvalidKernel("basis vectors must be nonzero")
            vecs.append(v)
        spectra = []
        for modes in self.spectra:
            clean = []
            for rate, lam in modes:
                rate, lam = float(rate), float(lam)
                if rate <= 0.0:
                    raise InvalidKernel("rate must be positive")
                if not 0.0 <= lam <= 1.0:
                    raise InvalidKernel(
                        f"eigenstress coefficient {lam} outside [0, 1]")
                clean.append((rate, lam))
            spectra.append(tuple(clean))
        if float(self.mass) <= 0.0:
            raise InvalidKernel("shared mass must be positive")
        object.__setattr__(self, "vectors", tuple(vecs))
        object.__setattr__(self, "spectra", tuple(spectra))
        object.__setattr__(self, "mass", float(self.mass))


def assemble_eigenstress(basis, equilibrium=None):
    """Build a matrix relaxation kernel from an eigenstress basis.

    Each (rate, coefficient) entry contributes the rank-one weight
    ``coefficient * mass * S_J S_J^T``; weights sharing a rate are summed.
    """
    by_rate = {}
    for v, spectrum in zip(basis.vectors, basis.spectra):
        dyad = np.outer(v, v)
        for rate, lam in spectrum:
            weight = lam * basis.mass * dyad
            if rate in by_rate:
                by_rate[rate] = by_rate[rate] + weight
            else:
                by_rate[rate] = weight
    modes = [(rate, by_rate[rate]) for rate in sorted(by_rate)]
    return MatrixRelaxation.make(equilibrium=equilibrium, modes=modes)
