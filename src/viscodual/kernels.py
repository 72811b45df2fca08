"""Prony-series relaxation and creep kernels, scalar and 6x6 (Voigt).

A relaxation kernel is ``f(t) = beta*u(t) + a + sum_k m_k exp(-r_k t)``
where ``u`` is the identity (Dirac) convolution operator; a creep kernel is
``h(t) = a + b*t + sum_j (nu_j/s_j)(1 - exp(-s_j t))``.  The 6x6 variants
carry positive-semidefinite symmetric matrix coefficients in Voigt
convention (indices 11, 22, 33, 23, 31, 12 with sqrt(2)-scaled shears).

All kernel objects are immutable after construction and every function in
this module is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerances shared across the package.
TOL_MERGE = 1e-12   # gap to the lower rate, relative to the upper one,
                    # below which two modes are merged
TOL_DROP = 1e-14    # weight magnitude below which a mode is discarded
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
# 6x6 symmetric matrix helpers
# ---------------------------------------------------------------------------

def symmetric6(m, tol=TOL_SYM):
    """Validate a 6x6 symmetric matrix, or a stack of them, and return it
    exactly symmetric.

    The result is rebuilt from the upper triangle, so symmetry holds to the
    last bit.  Asymmetry beyond ``tol`` (relative to each matrix's scale) is
    an error.  The returned array is read-only.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2:] != (6, 6):
        raise InvalidKernel(f"expected a 6x6 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidKernel("matrix entries must be finite")
    if tol < np.inf:
        scale = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
        mismatch = np.max(np.abs(a - np.swapaxes(a, -1, -2)),
                          axis=(-2, -1), initial=0.0)
        bad = np.flatnonzero(mismatch > tol * scale)
        if bad.size:
            raise InvalidKernel(
                f"matrix asymmetry {mismatch.flat[bad[0]]:.3e} exceeds "
                f"{tol:.1e} * scale")
    out = np.triu(a) + np.swapaxes(np.triu(a, 1), -1, -2)
    out.setflags(write=False)
    return out


def matrix_norm(m):
    return float(np.linalg.norm(m, 2))


def eigmin(m):
    return float(np.linalg.eigvalsh(m)[0])


def is_psd(m, tol=TOL_PSD):
    """Symmetric within ``TOL_PSD`` and no eigenvalue below ``-tol``, both
    relative to the spectral norm."""
    m = np.asarray(m, dtype=float)
    n = matrix_norm(m)
    if n == 0.0:
        return True
    if np.max(np.abs(m - m.T)) > TOL_PSD * n:
        return False
    return eigmin(0.5 * (m + m.T)) >= -tol * n


def is_pd(m, tol=TOL_PSD):
    n = matrix_norm(m)
    return n > 0.0 and eigmin(m) > tol * n


def psd_clip(m):
    """Clip negative eigenvalues to zero, for one matrix or a stack.

    Returns ``(clipped, min_eig)`` where ``min_eig`` is the smallest
    eigenvalue before clipping (one per matrix for a stack); the caller
    decides whether it was tolerable.
    """
    m = np.asarray(m, dtype=float)
    w, v = np.linalg.eigh(m)
    low = w[..., 0]
    negative = low < 0.0
    if np.any(negative):
        clipped = ((v * np.clip(w, 0.0, None)[..., None, :])
                   @ np.swapaxes(v, -1, -2))
        m = np.where(negative[..., None, None], clipped, m)
    return symmetric6(m), (float(low) if low.ndim == 0 else low)


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


def _canonical_modes(rates, weights, sizes, scale, measure):
    """Sort by rate, merge near-coincident rates, drop negligible weights.

    A rate joins the group of the next lower one when it is near-coincident
    with the group's first rate, so the merge gap scales with the rates
    themselves and slow modes stay apart however wide the spectrum is.
    ``sizes[i]`` is ``measure(weights[i])``, computed by the caller; only a
    merged weight is measured again.
    """
    groups = []
    for i in sorted(range(len(rates)), key=rates.__getitem__):
        if groups and near_coincident(rates[groups[-1][0]], rates[i]):
            groups[-1].append(i)
        else:
            groups.append([i])
    kept = []
    for group in groups:
        weight, size = weights[group[0]], sizes[group[0]]
        if len(group) > 1:
            for i in group[1:]:
                weight = weight + weights[i]
            size = measure(weight)
        if size > TOL_DROP * scale:
            kept.append((rates[group[0]], weight))
    return tuple(kept)


def _scalar_modes(modes, scale):
    rates, weights = [], []
    for rate, weight in modes:
        rates.append(_checked_rate(rate))
        weight = float(weight)
        if not np.isfinite(weight) or weight < 0.0:
            raise InvalidKernel("mode weight must be nonnegative")
        weights.append(weight)
    return _canonical_modes(rates, weights, weights, scale, abs)


def _check_scalar_coef(value, name):
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise InvalidKernel(f"{name} must be a nonnegative finite number")
    return value


def _matrix_parts(first, second, names, modes, kind):
    """Validated coefficients and canonical modes of a 6x6 kernel.

    The two coefficients and the mode weights are checked as one stack: one
    batched spectral norm and one batched eigenvalue call give every
    positive-semidefiniteness test, the kernel scale and the drop test of
    each mode that is not merged.
    """
    coefs = [np.zeros((6, 6)) if m is None else np.asarray(m, dtype=float)
             for m in (first, second)]
    matrices = coefs + [np.asarray(w, dtype=float) for _, w in modes]
    for m in matrices:
        if m.shape != (6, 6):
            raise InvalidKernel(f"expected a 6x6 matrix, got shape {m.shape}")
    stack = symmetric6(np.array(matrices))
    norms = np.linalg.norm(stack, 2, axis=(1, 2))
    lowest = np.linalg.eigvalsh(stack)[:, 0]
    not_psd = (norms > 0.0) & (lowest < -TOL_PSD * norms)
    for name, bad in zip(names, not_psd):
        if bad:
            raise InvalidKernel(f"{name} must be positive semidefinite")
    scale = float(np.sum(norms))
    if scale <= 0.0:
        raise InvalidKernel(f"{kind} kernel is identically zero")
    rates = [_checked_rate(r) for r, _ in modes]
    bad = np.flatnonzero(not_psd[2:])
    if bad.size:
        raise InvalidKernel(f"mode weight at rate {rates[bad[0]]} is not "
                            "positive semidefinite")
    canon = _canonical_modes(rates, stack[2:], norms[2:], scale, matrix_norm)
    return (_frozen(stack[0]), _frozen(stack[1]),
            tuple((r, _frozen(w)) for r, w in canon))


# ---------------------------------------------------------------------------
# Scalar kernels
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

    @classmethod
    def make(cls, newtonian=0.0, equilibrium=0.0, modes=()):
        beta = _check_scalar_coef(newtonian, "newtonian coefficient")
        a = _check_scalar_coef(equilibrium, "equilibrium")
        scale = a + sum(float(w) for _, w in modes) + beta
        if scale <= 0.0:
            raise InvalidKernel("relaxation kernel is identically zero")
        return cls(beta, a, _scalar_modes(modes, scale))

    @property
    def continuous_at_zero(self):
        """f0(0+) = equilibrium + sum of mode weights."""
        return self.equilibrium + sum(w for _, w in self.modes)

    @property
    def scale(self):
        return self.newtonian + self.continuous_at_zero


@dataclass(frozen=True)
class ScalarCreep:
    """``h(t) = instantaneous + fluidity*t + sum (nu_j/s_j)(1-exp(-s_j t))``.

    ``modes`` holds ``(rate, mass)`` pairs sorted by rate.
    """

    instantaneous: float = 0.0
    fluidity: float = 0.0
    modes: tuple = ()

    @classmethod
    def make(cls, instantaneous=0.0, fluidity=0.0, modes=()):
        a = _check_scalar_coef(instantaneous, "instantaneous compliance")
        b = _check_scalar_coef(fluidity, "fluidity")
        scale = a + b + sum(float(w) for _, w in modes)
        if scale <= 0.0:
            raise InvalidKernel("creep kernel is identically zero")
        return cls(a, b, _scalar_modes(modes, scale))

    @property
    def derivative_at_zero(self):
        return self.fluidity + sum(w for _, w in self.modes)

    @property
    def scale(self):
        return self.instantaneous + self.fluidity + sum(w for _, w in self.modes)


# ---------------------------------------------------------------------------
# Matrix kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixRelaxation:
    """``R(t) = u(t) N + B + sum G_k exp(-r_k t)`` with PSD 6x6 coefficients."""

    newtonian: np.ndarray
    equilibrium: np.ndarray
    modes: tuple

    @classmethod
    def make(cls, newtonian=None, equilibrium=None, modes=()):
        return cls(*_matrix_parts(
            newtonian, equilibrium,
            ("newtonian matrix", "equilibrium matrix"), modes, "relaxation"))

    def satisfies_positivity(self):
        """Condition (*): N + B + sum G_k positive definite."""
        total = self.newtonian + self.equilibrium
        for _, g in self.modes:
            total = total + g
        return is_pd(total)

    @property
    def continuous_at_zero(self):
        """F(0+) = B + sum G_k."""
        out = np.array(self.equilibrium)
        for _, g in self.modes:
            out += g
        return _frozen(out)

    @property
    def scale(self):
        s = matrix_norm(self.newtonian) + matrix_norm(self.equilibrium)
        return s + sum(matrix_norm(g) for _, g in self.modes)


@dataclass(frozen=True, eq=False)
class MatrixCreep:
    """``C(t) = A + t D + sum (H_j/s_j)(1 - exp(-s_j t))``, PSD coefficients."""

    instantaneous: np.ndarray
    fluidity: np.ndarray
    modes: tuple

    @classmethod
    def make(cls, instantaneous=None, fluidity=None, modes=()):
        return cls(*_matrix_parts(
            instantaneous, fluidity,
            ("instantaneous matrix", "fluidity matrix"), modes, "creep"))

    def satisfies_positivity(self):
        """Condition (**): A + D + sum H_j positive definite."""
        total = self.instantaneous + self.fluidity
        for _, h in self.modes:
            total = total + h
        return is_pd(total)

    @property
    def derivative_at_zero(self):
        """C'(0+) = D + sum H_j."""
        out = np.array(self.fluidity)
        for _, h in self.modes:
            out += h
        return _frozen(out)

    @property
    def scale(self):
        s = matrix_norm(self.instantaneous) + matrix_norm(self.fluidity)
        return s + sum(matrix_norm(h) for _, h in self.modes)


RELAXATION_KINDS = (ScalarRelaxation, MatrixRelaxation)
CREEP_KINDS = (ScalarCreep, MatrixCreep)


def max_rate(kernel):
    """Largest exponential rate of a kernel, or 1.0 if it has no modes."""
    return max((r for r, _ in kernel.modes), default=1.0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_relaxation(kernel, t):
    """Continuous part of the relaxation kernel at time ``t >= 0``.

    The Dirac (Newtonian) coefficient is not part of the pointwise value; it
    is reported separately by :func:`relaxation_limits`.  The value at
    ``t = 0`` is the limit from the right.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if isinstance(kernel, ScalarRelaxation):
        return kernel.equilibrium + sum(
            w * np.exp(-r * t) for r, w in kernel.modes)
    if isinstance(kernel, MatrixRelaxation):
        out = np.array(kernel.equilibrium)
        for r, g in kernel.modes:
            out += np.exp(-r * t) * g
        return out
    raise TypeError(f"not a relaxation kernel: {type(kernel).__name__}")


def eval_creep(kernel, t):
    """Creep kernel value at time ``t >= 0``."""
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if isinstance(kernel, ScalarCreep):
        value = kernel.instantaneous + kernel.fluidity * t
        return value + sum(
            (w / r) * -np.expm1(-r * t) for r, w in kernel.modes)
    if isinstance(kernel, MatrixCreep):
        out = kernel.instantaneous + t * kernel.fluidity
        for r, h in kernel.modes:
            out = out + (-np.expm1(-r * t) / r) * h
        return out
    raise TypeError(f"not a creep kernel: {type(kernel).__name__}")


def laplace_times_p(kernel, p):
    """``p * ktilde(p)`` on the positive real Laplace axis.

    For a relaxation kernel this is the complete-Bernstein expression
    ``beta*p + a + sum m_k p/(p+r_k)``; for a creep kernel the Stieltjes
    expression ``a + b/p + sum nu_j/(p+s_j)``.  Matrix kernels follow the
    same formulas with matrix coefficients.
    """
    p = float(p)
    if p <= 0.0:
        raise ValueError("Laplace variable must be positive")
    if isinstance(kernel, ScalarRelaxation):
        return (kernel.newtonian * p + kernel.equilibrium
                + sum(w * p / (p + r) for r, w in kernel.modes))
    if isinstance(kernel, ScalarCreep):
        return (kernel.instantaneous + kernel.fluidity / p
                + sum(w / (p + r) for r, w in kernel.modes))
    if isinstance(kernel, MatrixRelaxation):
        out = p * kernel.newtonian + kernel.equilibrium
        for r, g in kernel.modes:
            out = out + (p / (p + r)) * g
        return out
    if isinstance(kernel, MatrixCreep):
        out = kernel.instantaneous + kernel.fluidity / p
        for r, h in kernel.modes:
            out = out + h / (p + r)
        return out
    raise TypeError(f"not a kernel: {type(kernel).__name__}")


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitReport:
    """Boundary values at t -> 0+ and t -> infinity.

    Unbounded entries carry the :data:`UNBOUNDED` tag.  ``dirac`` is the
    Newtonian coefficient for relaxation kernels, None for creep kernels.
    """

    value_at_zero: object
    value_at_infinity: object
    derivative_at_zero: object
    derivative_at_infinity: object
    dirac: object = None


def relaxation_limits(kernel):
    """Limits of the continuous part of a relaxation kernel."""
    if isinstance(kernel, ScalarRelaxation):
        return LimitReport(
            value_at_zero=kernel.continuous_at_zero,
            value_at_infinity=kernel.equilibrium,
            derivative_at_zero=-sum(r * w for r, w in kernel.modes),
            derivative_at_infinity=0.0,
            dirac=kernel.newtonian,
        )
    if isinstance(kernel, MatrixRelaxation):
        dz = np.zeros((6, 6))
        for r, g in kernel.modes:
            dz -= r * g
        return LimitReport(
            value_at_zero=kernel.continuous_at_zero,
            value_at_infinity=np.array(kernel.equilibrium),
            derivative_at_zero=dz,
            derivative_at_infinity=np.zeros((6, 6)),
            dirac=np.array(kernel.newtonian),
        )
    raise TypeError(f"not a relaxation kernel: {type(kernel).__name__}")


def creep_limits(kernel):
    """Limits of a creep kernel; unbounded growth is tagged, not a float."""
    if isinstance(kernel, ScalarCreep):
        if kernel.fluidity > 0.0:
            at_inf = UNBOUNDED
        else:
            at_inf = kernel.instantaneous + sum(
                w / r for r, w in kernel.modes)
        return LimitReport(
            value_at_zero=kernel.instantaneous,
            value_at_infinity=at_inf,
            derivative_at_zero=kernel.derivative_at_zero,
            derivative_at_infinity=kernel.fluidity,
        )
    if isinstance(kernel, MatrixCreep):
        if matrix_norm(kernel.fluidity) > 0.0:
            at_inf = UNBOUNDED
        else:
            out = np.array(kernel.instantaneous)
            for r, h in kernel.modes:
                out += h / r
            at_inf = out
        return LimitReport(
            value_at_zero=np.array(kernel.instantaneous),
            value_at_infinity=at_inf,
            derivative_at_zero=kernel.derivative_at_zero,
            derivative_at_infinity=np.array(kernel.fluidity),
        )
    raise TypeError(f"not a creep kernel: {type(kernel).__name__}")


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
