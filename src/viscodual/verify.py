"""Independent checks on kernels and kernel pairs, and time-axis responses.

The central identity is the time-domain duality ``(R * C)(t) = t`` (or
``t * I`` for 6x6 kernels), evaluated here in closed form: every term of
the convolution is an exponential against a constant, linear or
exponential factor and has an elementary antiderivative.  Quadrature never
enters the checks; it exists only as a test oracle for this module.

The checks are stacked numpy over the whole time grid.  Each kernel
enters as its :func:`kernels.square_image` ``(X, Y, rates, weights)``, a
scalar kernel being the ``1x1`` case, and each check is written once for
both sizes.  The convolution at all grid times is one ``(T, K, J)``
broadcast over relaxation modes ``k`` and creep modes ``j`` against the
products of their weights, taken in blocks of rows so that no temporary
outgrows :data:`BLOCK_ELEMENTS`, and the residual grid runs from
``1e-3/r_max`` to ``1e3/r_min``, so every mode of both kernels has decayed
inside it.  Of the misfit ``(R * C)(t) - t I`` only the largest relative
norm is wanted, so a ``6 x 6`` pair takes singular values only at the
times where column-norm and Frobenius bounds let it peak, and gets the
maximum over the whole grid.  The shape checks of :func:`check_wellformed`
take the kernel and its first three derivatives exactly from the modes,
and :func:`check_limit_identities` takes the norms and definiteness tests
of its symmetric matrices from one batched ``eigvalsh`` and the norms of
the non-symmetric misfits whose clauses apply from one batched
singular-value call.  The time
domain has one evaluator for both sizes and kinds,
:func:`kernels.time_values`: :func:`kernel_values` takes the kernel from
it on a column of times, and the responses to a piecewise-linear history
(:func:`respond`, :func:`respond_creep`, one body) take its integral one
time at a time, window by window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import (
    TOL_PSD,
    matrix_norm,
    max_rate,
    psd_flags,
    square_image,
    stored_image,
    time_values,
)

TOL_CM = 1e-9         # relative slack for the derivative sign checks
TOL_EQUAL_RATE = 1e-8  # |r - s| t below which the degenerate branch is used
TOL_LIMITS = 1e-8      # default tolerance for the boundary-value identities
GRID_STEPS_PER_DECADE = 16.0 / 3.0  # 32 steps over the 6 decades of one rate
BLOCK_ELEMENTS = 1 << 16  # float64 elements (512 KiB) in one blocked temporary


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class CheckReport:
    entries: tuple

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self):
        return {
            e.name: {"passed": e.passed, "residual": e.residual,
                     "tolerance": e.tolerance}
            for e in self.entries
        }


class _ReportBuilder:
    def __init__(self):
        self.entries = []
        self.names = set()

    def add(self, name, residual, tolerance):
        if name in self.names:
            return
        self.names.add(name)
        residual = float(residual)
        self.entries.append(
            CheckEntry(name, residual <= tolerance, residual, tolerance))

    def report(self):
        return CheckReport(tuple(self.entries))


# ---------------------------------------------------------------------------
# Kernels on a time grid
# ---------------------------------------------------------------------------

def _checked_times(times):
    t = np.asarray(times, dtype=float).reshape(-1)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    return t


def kernel_values(kernel, times):
    """Continuous part of a kernel at every time, as a ``(T, d, d)`` stack.

    This is :func:`kernels.time_values` on a column of times, so each
    entry is, to the last bit, what :func:`eval_relaxation` or
    :func:`eval_creep` returns at that time, and :func:`matio.sample_to_csv`
    prints what the per-point functions give.
    """
    t = _checked_times(times)[:, None, None]
    return time_values(kernel.relaxation, *stored_image(kernel), t, False)


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

_PROBE_VECTORS = np.vstack([np.eye(6), np.full((1, 6), 1.0 / np.sqrt(6.0))])
_SHAPE_TIMES = np.geomspace(1e-3, 1e3, 64)   # over the fastest rate


def _alternation_checks(rep, relax, stack, norms, rates, rmax):
    """Complete monotonicity (or the Bernstein property) at 64 times, orders
    0-3, exactly from the modes.

    ``stack`` holds ``X``, ``Y`` and the weights ``Z_k``, ``norms`` their
    spectral norms.  A relaxation kernel's continuous part has
    ``(-1)^n f^(n)(t) = [n = 0] Y + sum_k r_k^n exp(-r_k t) Z_k``.  A creep
    kernel has ``h = X + t Y + sum_k Z_k (1 - exp(-r_k t))/r_k`` and, for
    ``n >= 1``, ``(-1)^(n-1) h^(n) = [n = 1] Y + sum_k r_k^(n-1)
    exp(-r_k t) Z_k``.  Each must be positive semidefinite.  It is tested
    through the probe values ``v'Mv`` of the unit coordinate vectors and
    their normalized sum (the number itself for a scalar kernel), all in one
    product.  A deficit is measured against the term scale ``sum |c| ||Z||``
    in units of ``TOL_CM``, so weights that pass the ``TOL_PSD`` test cannot
    fail it.
    """
    t = _SHAPE_TIMES / rmax
    rt = np.multiply.outer(t, rates)
    # order n divided by rmax^n > 0, which changes no sign and no deficit;
    # (r/rmax)^n <= 1 cannot overflow however fast the modes
    powers = np.exp(-rt) * (rates / rmax) ** np.arange(4.0)[:, None, None]
    factors = np.zeros((4, t.size, rates.size + 2))
    if relax:
        factors[0, :, 1] = 1.0
        factors[:, :, 2:] = powers
    else:
        factors[0, :, 0], factors[0, :, 1], factors[1, :, 1] = 1.0, t, 1.0
        factors[0, :, 2:] = -np.expm1(-rt) / rates
        factors[1:, :, 2:] = powers[:3]
    probes = _PROBE_VECTORS if stack.shape[1] > 1 else np.ones((1, 1))
    values = np.einsum("pi,mij,pj->mp", probes, stack, probes)
    floor = TOL_CM * (np.abs(factors) @ norms) + 1e-300
    deficit = np.maximum(0.0, -(factors @ values)) / floor[..., None]
    # <= 1 passes; a NaN never raises the worst value
    worst = np.fmax.reduce(deficit.reshape(4, -1), axis=1, initial=0.0)
    for order in range(4):
        rep.add(f"sampled-alternation-order-{order}", worst[order], 1.0)


def check_wellformed(kernel):
    """Structural and shape checks; failures are report entries."""
    rep = _ReportBuilder()
    X, Y, rates, weights = square_image(kernel)
    stack = np.concatenate([X[None], Y[None], weights])

    rep.add("rates-positive", 0.0 if np.all(rates > 0) else 1.0, 0.5)
    rep.add("rates-sorted-distinct",
            0.0 if np.all(rates[:-1] < rates[1:]) else 1.0, 0.5)
    if X.shape != (1, 1):
        psd, _, norms = psd_flags(stack)
        rep.add("weights-psd", 0.0 if psd[2:].all() else 1.0, 0.5)
        rep.add("coefficients-psd", 0.0 if psd[:2].all() else 1.0, 0.5)
    else:
        norms = matrix_norm(stack)
        rep.add("weights-positive", 0.0 if np.all(weights > 0) else 1.0, 0.5)
        rep.add("coefficients-nonnegative",
                0.0 if np.all(stack[:2] >= 0) else 1.0, 0.5)

    if all(e.passed for e in rep.entries):
        _alternation_checks(rep, kernel.relaxation, stack, norms, rates,
                            max_rate(kernel))
    return rep.report()


# ---------------------------------------------------------------------------
# Closed-form convolution
# ---------------------------------------------------------------------------

def _decay(rates, t):
    """``int_0^t exp(-r u) du = -expm1(-r t)/r`` as a ``(T, K)`` array."""
    return -np.expm1(-np.multiply.outer(t, rates)) / rates


def _conv_exp_exp(r, s, t):
    """``int_0^t exp(-r u) exp(-s (t-u)) du`` as a ``(T, K, J)`` array.

    Written as ``exp(-lo t) * (1 - exp(-(hi-lo) t)) / (hi - lo)`` so the
    expm1 argument is nonpositive and nothing overflows for large ``t``.
    Where ``(hi - lo) t`` is below ``TOL_EQUAL_RATE`` a series replaces the
    quotient, and those entries are never divided by the gap.  Two
    ``(T, K, J)`` arrays are live at a time.
    """
    lo = np.minimum.outer(r, s)
    gap = np.abs(np.subtract.outer(r, s))
    out = np.multiply.outer(t, gap)
    near = out < TOL_EQUAL_RATE
    np.expm1(np.negative(out, out=out), out=out)
    np.divide(out, -gap, out=out, where=~near)
    damping = np.multiply.outer(t, lo)
    out *= np.exp(np.negative(damping, out=damping), out=damping)
    if near.any():
        i, k, j = np.nonzero(near)
        x = gap[k, j] * t[i]
        out[i, k, j] = (t[i] * np.exp(-lo[k, j] * t[i])
                        * (1.0 - x / 2.0 + x * x / 6.0))
    return out


def _convolution_values(relaxation, creep, t):
    """``(R * C)(t)`` at every time of ``t`` as a ``(T, d, d)`` stack.

    With ``C(t) = c0 + D t + sum_j w_j exp(-s_j t)`` (``c0 = A + sum h/s``,
    ``w_j = -h_j/s_j``), every term is a scalar function of ``t`` times a
    product of coefficients.  The functions of single modes form one
    ``(T, N)`` matrix against an ``(N, d, d)`` stack of products.  The
    mode pairs are one ``(T, K, J)`` broadcast against the ``(K, J, d, d)``
    products ``m_k w_j``, taken in blocks of rows of at most
    ``BLOCK_ELEMENTS`` elements.
    """
    beta, a, r, m = square_image(relaxation)
    A, D, s, h = square_image(creep)
    if not relaxation.relaxation or creep.relaxation:
        raise TypeError("expected a relaxation and a creep kernel")
    if beta.shape != A.shape:
        raise TypeError("relaxation and creep kernels have incompatible kinds")
    hs = h / s[:, None, None]
    c0 = A + np.sum(hs, axis=0)
    w = -hs
    decay = _decay(r, t)
    functions = [np.ones_like(t)[:, None], t[:, None], (t * t / 2.0)[:, None],
                 _decay(s, t), decay, (t[:, None] - decay) / r]
    products = [(beta @ A)[None], (beta @ D + a @ c0)[None], (a @ D)[None],
                beta @ h + a @ w, m @ c0, m @ D]
    d2 = A.size
    value = (np.concatenate(functions, axis=1)
             @ np.concatenate(products).reshape(-1, d2))
    pairs = r.size * s.size
    pair_products = (m[:, None] @ w[None]).reshape(pairs, d2)
    step = max(1, BLOCK_ELEMENTS // max(pairs, 1))
    for lo in range(0, t.size, step):
        rows = t[lo:lo + step]
        value[lo:lo + step] += (_conv_exp_exp(r, s, rows).reshape(
            rows.size, pairs) @ pair_products)
    return value.reshape(t.size, *A.shape)


def convolution_value(relaxation, creep, t):
    """``(R * C)(t)`` in closed form; equals ``t`` (or ``t I``) for dual pairs."""
    value = _convolution_values(relaxation, creep, _checked_times(float(t)))[0]
    return float(value[0, 0]) if value.shape == (1, 1) else value


def default_time_grid(relaxation, creep):
    """Log-spaced times from ``1e-3/r_max`` to ``1e3/r_min``.

    ``r_min`` is the slowest rate of either kernel, so the grid reaches
    past the decay of every mode; ``r_max`` is as in :func:`max_rate`.
    The grid has ``GRID_STEPS_PER_DECADE`` steps per decade, so at least
    33 points over its at least six decades.
    """
    rmax = max(max_rate(relaxation), max_rate(creep))
    rmin = min((r for k in (relaxation, creep) for r, _ in k.modes),
               default=rmax)
    decades = 6.0 + np.log10(rmax / rmin)
    points = int(np.ceil(GRID_STEPS_PER_DECADE * decades)) + 1
    return np.geomspace(1e-3 / rmax, 1e3 / rmin, points)


def _peak_candidates(misfit, weight):
    """The matrices of a ``(T, d, d)`` stack whose ``||M||_2 / w`` can be
    the largest, as a mask: every other one is bounded below it.

    A matrix's largest column norm is a lower bound on its spectral norm
    and its Frobenius norm an upper bound (Golub and Van Loan, *Matrix
    Computations*, 4th ed., 2.3).  Both are taken of ``M / w``, whose size
    is the ratio itself, so a weight of 1e-300 squares nothing near the
    underflow.  A matrix is a candidate when its upper bound reaches the
    largest lower bound, less a margin of ``2^-40`` that exceeds the
    rounding of the bounds and of the singular value many times over, so
    the maximum over the candidates is, bit for bit, the maximum over the
    stack.  A matrix with a NaN bound always is one.  Every matrix is where
    the largest lower bound is infinite, or below ``2^-500``, where the
    squares of a candidate's entries may underflow; elsewhere a zero
    matrix never is.
    """
    ratio = misfit / weight[:, None, None]
    columns = np.einsum("tij,tij->tj", ratio, ratio)
    peak = np.fmax.reduce(np.sqrt(columns.max(1)), initial=0.0)
    if not 2.0 ** -500 <= peak < np.inf:
        return np.ones(len(misfit), dtype=bool)
    return ~(np.sqrt(columns.sum(1)) < peak * (1.0 - 2.0 ** -40))


def duality_residual(relaxation, creep, grid=None):
    """Max relative deviation of ``(R * C)(t)`` from ``t`` over the grid.

    That is the largest ``||E(t)||_2 / w(t)`` of the misfit
    ``E(t) = (R * C)(t) - t I``, with ``w(t) = max(t, 1e-6/r_max)``.  A
    ``6 x 6`` pair takes the singular values of ``E`` only at the times
    where that ratio can peak (:func:`_peak_candidates`; for half of the
    benchmark's 6x6 dual pairs two or fewer of about 50), and the result
    is, bit for bit, the one the whole grid gives.
    """
    if grid is None:
        grid = default_time_grid(relaxation, creep)
    t = _checked_times(grid)
    misfit = _convolution_values(relaxation, creep, t)
    misfit -= t[:, None, None] * np.eye(misfit.shape[-1])
    rmax = max(max_rate(relaxation), max_rate(creep))
    weight = np.maximum(t, 1e-6 / rmax)
    if misfit.shape[-1] > 1:
        take = _peak_candidates(misfit, weight)
        misfit, weight = misfit[take], weight[take]
    return float(np.max(matrix_norm(misfit) / weight, initial=0.0))


# ---------------------------------------------------------------------------
# Boundary-value identities
# ---------------------------------------------------------------------------

# definiteness floors of N, B, D, A, R(0+) and C(inf)
_LIMIT_PD_TOLS = np.array([TOL_PSD, 1e-8, TOL_PSD, 1e-8, 1e-8, 1e-8])


def check_limit_identities(relaxation, creep, tol=TOL_LIMITS):
    """Evaluate every limit clause applicable to a claimed dual pair.

    Both kernels enter as ``d x d`` images, a scalar pair as ``1 x 1``.  The
    relaxation kernel has Dirac part ``N``, equilibrium ``B`` and weights
    ``G_k``, so ``R(0+) = B + sum G_k``.  The creep kernel has ``C(0) = A``,
    fluidity ``D`` and weights ``H_j``, so ``C'(0+) = D + sum H_j`` and,
    when ``D = 0``, ``C(inf) = A + sum H_j/s_j``.  Each clause is added when
    its hypothesis holds.  One batched ``eigvalsh`` gives the definiteness
    tests and the norms of the symmetric matrices, and decides which
    clauses apply; one batched singular-value call gives the norms of the
    misfits of those clauses only.
    """
    N, B, _, G = square_image(relaxation)
    A, D, s, H = square_image(creep)
    # summed one mode at a time, in rate order
    r_zero = np.concatenate([B[None], G]).sum(axis=0)
    c_slope = np.concatenate([D[None], H]).sum(axis=0)
    c_inf = np.concatenate([A[None], H / s[:, None, None]]).sum(axis=0)
    tested = np.array([N, B, D, A, r_zero, c_inf])
    misfits = np.array([N @ c_slope, r_zero @ A, B @ c_inf, c_inf @ B,
                        A @ r_zero]) - np.eye(len(N))
    # the weights only need their norms: their tolerance is never used
    _, pd, norms = psd_flags(np.concatenate([tested, G, H]), np.append(
        _LIMIT_PD_TOLS, np.zeros(len(G) + len(H))))
    n_pd, b_pd, d_pd, a_pd, r_zero_pd, c_inf_pd = pd[:6].tolist()
    n_norm, b_norm, d_norm, a_norm = norms[:4].tolist()
    r_scale = n_norm + b_norm + float(np.sum(norms[6:6 + len(G)]))
    c_scale = a_norm + d_norm + float(np.sum(norms[6 + len(G):]))
    # the clauses of each misfit, in its order; a name the report holds
    # already is not added again, so its second clause needs no norm
    zero = not n_pd and n_norm == 0.0 and r_zero_pd
    inf_c = not b_pd and d_norm == 0.0 and c_inf_pd
    zero_c = a_pd and not zero
    applies = np.array([n_pd, zero, b_pd, inf_c, zero_c])
    misfit = np.zeros(len(applies))
    misfit[applies] = matrix_norm(misfits[applies])

    rep = _ReportBuilder()
    if n_pd:
        rep.add("creep-starts-at-zero", a_norm / c_scale, tol)
        rep.add("newtonian-slope-reciprocity", misfit[0], tol)
    elif zero:
        rep.add("initial-value-reciprocity", misfit[1], tol)
    if b_pd:
        rep.add("fluidity-vanishes", d_norm / c_scale, tol)
        rep.add("long-time-reciprocity", misfit[2], tol)
    elif b_norm == 0.0:
        rep.add("fluid-dual-has-fluidity", 0.0 if d_pd else 1.0, tol)
    if d_pd:
        rep.add("equilibrium-vanishes", b_norm / r_scale, tol)
    if inf_c:
        rep.add("long-time-reciprocity", misfit[3], tol)
    if zero_c:
        rep.add("initial-value-reciprocity", misfit[4], tol)
    return rep.report()


# ---------------------------------------------------------------------------
# Constitutive response
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrainHistory:
    """Piecewise-linear history with an optional jump at t = 0.

    ``times`` start at 0 and increase strictly; ``values`` are scalars or
    Voigt 6-vectors.  Beyond the last breakpoint the history is constant.
    The same class carries stress histories for the creep response.
    """

    times: tuple
    values: tuple
    initial_jump: object = None

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times or times[0] != 0.0:
            raise ValueError("history must start at time 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("history times must increase strictly")
        if len(self.values) != len(times):
            raise ValueError("one value required per breakpoint")
        as_value = (float if self.scalar else
                    lambda v: np.asarray(v, dtype=float).reshape(6))
        values = tuple(map(as_value, self.values))
        jump = self.initial_jump
        jump = None if jump is None else as_value(jump)
        if not (np.isfinite(times).all() and np.isfinite(values).all()
                and np.isfinite(0.0 if jump is None else jump).all()):
            raise ValueError("history times, values and jump must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "initial_jump", jump)

    @property
    def scalar(self):
        return np.ndim(self.values[0]) == 0

    @cached_property
    def slopes(self):
        """Slope of each window between breakpoints, computed once."""
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        out = (v[1:] - v[:-1]) / ((t[1:] - t[:-1]) if self.scalar
                                  else (t[1:] - t[:-1])[:, None])
        out.setflags(write=False)
        return out

    def rate_at(self, t):
        """Right-continuous slope at ``t``; zero beyond the last breakpoint."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        if i < 0 or i >= len(self.times) - 1:
            return 0.0 if self.scalar else np.zeros(6)
        return self.slopes[i]


@dataclass(frozen=True)
class ResponseSeries:
    """Sampled response plus Dirac impulse annotations (time, magnitude)."""

    times: tuple
    values: tuple
    impulses: tuple = ()


def _apply(m, v):
    """A coefficient (a float or a 6x6 matrix) applied to a history value."""
    return m * v if np.ndim(m) == 0 else m @ v


def _respond(kernel, history, times, relaxation):
    """Closed-form ``int_0^t k(t - u) dot(history)(u) du`` plus the jump
    term ``k(t) jump`` at every time, for a kernel of the kind that
    ``relaxation`` names.

    Each window of the history adds the difference of two values of the
    kernel's integral (:func:`kernels.time_values`) times its slope.  A
    relaxation kernel adds its Dirac part ``X`` times the strain rate
    pointwise, and the impulse annotation ``X jump`` when the history
    jumps at t = 0 and ``X`` is nonzero.
    """
    X, Y, modes = stored_image(kernel)
    if kernel.relaxation != relaxation:
        raise TypeError("respond requires a relaxation kernel" if relaxation
                        else "respond_creep requires a creep kernel")
    scalar = np.ndim(X) == 0
    if scalar != history.scalar:
        raise ValueError("kernel and history dimensions do not match")
    image = (relaxation, X, Y, modes)
    jump, breaks, slopes = history.initial_jump, history.times, history.slopes
    times = _checked_times(times).tolist()
    values = []
    for t in times:
        out = None
        if jump is not None:
            out = _apply(time_values(*image, t, False), jump)
        for i, slope in enumerate(slopes):
            ta, tb = breaks[i], breaks[i + 1]
            if t <= ta:
                break
            window = (time_values(*image, t - ta, True)
                      - time_values(*image, t - min(tb, t), True))
            term = _apply(window, slope)
            out = term if out is None else out + term
        if out is None:
            out = 0.0 if scalar else np.zeros(6)
        if relaxation:
            out = out + _apply(X, history.rate_at(t))
        values.append(out)
    impulses = ()
    if relaxation and jump is not None and np.any(X):
        impulses = ((0.0, _apply(X, jump)),)
    return ResponseSeries(tuple(times), tuple(values), impulses)


def respond(kernel, history, times):
    """Stress response of a relaxation kernel to a strain history.

    The Dirac part contributes ``beta * strain_rate`` pointwise, plus an
    impulse annotation ``beta * jump`` when the history jumps at t = 0.
    """
    return _respond(kernel, history, times, True)


def respond_creep(kernel, history, times):
    """Strain response of a creep kernel to a stress history."""
    return _respond(kernel, history, times, False)
