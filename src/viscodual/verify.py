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
inside it.  The shape checks of :func:`check_wellformed` take the kernel
and its first three derivatives exactly from the modes, and
:func:`check_limit_identities` takes all its norms from one batched call
and all its definiteness tests from one batched ``eigvalsh``.  The
responses to a piecewise-linear history (:func:`respond`,
:func:`respond_creep`) are still summed one time at a time, window by
window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    CREEP_KINDS,
    RELAXATION_KINDS,
    TOL_PSD,
    ScalarCreep,
    ScalarRelaxation,
    eval_creep,
    eval_relaxation,
    matrix_norm,
    max_rate,
    psd_flags,
    square_image,
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

    Each entry is, to the last bit, what :func:`eval_relaxation` or
    :func:`eval_creep` returns at that time: only the time axis is
    vectorized, and the modes are added one at a time in rate order, with
    the association each kernel kind uses there, so that
    :func:`matio.sample_to_csv` prints what the per-point functions give.
    """
    t = _checked_times(times)
    X, Y, rates, weights = square_image(kernel)
    relax = kernel.relaxation
    scalar = X.shape == (1, 1)
    col = t[:, None, None]
    base = np.zeros_like(col) + Y if relax else X + col * Y
    total = 0 if scalar else base
    for r, w in zip(rates, weights):
        if relax:
            term = np.exp(-r * t)[:, None, None] * w
        elif scalar:
            term = (w / r) * -np.expm1(-r * t)[:, None, None]
        else:
            term = (-np.expm1(-r * t) / r)[:, None, None] * w
        total = total + term
    return base + total if scalar else total


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
        norms = np.abs(stack[:, 0, 0])   # the 2-norm of a 1x1 matrix
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


def default_time_grid(relaxation, creep, count=33):
    """Log-spaced times from ``1e-3/r_max`` to ``1e3/r_min``.

    ``r_min`` is the slowest rate of either kernel, so the grid reaches
    past the decay of every mode; ``r_max`` is as in :func:`max_rate`.
    The grid has ``GRID_STEPS_PER_DECADE`` steps per decade and at least
    ``count`` points.
    """
    rmax = max(max_rate(relaxation), max_rate(creep))
    rmin = min((r for k in (relaxation, creep) for r, _ in k.modes),
               default=rmax)
    decades = 6.0 + np.log10(rmax / rmin)
    points = max(count, int(np.ceil(GRID_STEPS_PER_DECADE * decades)) + 1)
    return np.geomspace(1e-3 / rmax, 1e3 / rmin, points)


def duality_residual(relaxation, creep, grid=None):
    """Max relative deviation of ``(R * C)(t)`` from ``t`` over the grid."""
    if grid is None:
        grid = default_time_grid(relaxation, creep)
    t = _checked_times(grid)
    value = _convolution_values(relaxation, creep, t)
    eye = np.eye(value.shape[-1])
    err = np.linalg.norm(value - t[:, None, None] * eye, 2, axis=(1, 2))
    rmax = max(max_rate(relaxation), max_rate(creep))
    return float(np.max(err / np.maximum(t, 1e-6 / rmax), initial=0.0))


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
    its hypothesis holds.  Every norm comes from one batched call and every
    definiteness test from one batched ``eigvalsh``.
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
    norms = np.linalg.norm(np.concatenate([tested, misfits, G, H]), 2,
                           axis=(1, 2))
    _, pd, _ = psd_flags(tested, _LIMIT_PD_TOLS, norms[:6])
    n_pd, b_pd, d_pd, a_pd, r_zero_pd, c_inf_pd = pd.tolist()
    n_norm, b_norm, d_norm, a_norm = norms[:4].tolist()
    slope_misfit, zero_misfit, inf_misfit, inf_misfit_c, zero_misfit_c = \
        norms[6:11].tolist()
    r_scale = n_norm + b_norm + float(np.sum(norms[11:11 + len(G)]))
    c_scale = a_norm + d_norm + float(np.sum(norms[11 + len(G):]))

    rep = _ReportBuilder()
    if n_pd:
        rep.add("creep-starts-at-zero", a_norm / c_scale, tol)
        rep.add("newtonian-slope-reciprocity", slope_misfit, tol)
    elif n_norm == 0.0 and r_zero_pd:
        rep.add("initial-value-reciprocity", zero_misfit, tol)
    if b_pd:
        rep.add("fluidity-vanishes", d_norm / c_scale, tol)
        rep.add("long-time-reciprocity", inf_misfit, tol)
    elif b_norm == 0.0:
        rep.add("fluid-dual-has-fluidity", 0.0 if d_pd else 1.0, tol)
    if d_pd:
        rep.add("equilibrium-vanishes", b_norm / r_scale, tol)
    if d_norm == 0.0 and c_inf_pd:
        rep.add("long-time-reciprocity", inf_misfit_c, tol)
    if a_pd:
        rep.add("initial-value-reciprocity", zero_misfit_c, tol)
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
        jump = self.initial_jump
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", tuple(map(as_value, self.values)))
        object.__setattr__(self, "initial_jump",
                           None if jump is None else as_value(jump))

    @property
    def scalar(self):
        return np.ndim(self.values[0]) == 0

    def slopes(self):
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        return (v[1:] - v[:-1]) / ((t[1:] - t[:-1]) if self.scalar
                                   else (t[1:] - t[:-1])[:, None])

    def rate_at(self, t):
        """Right-continuous slope at ``t``; zero beyond the last breakpoint."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        if i < 0 or i >= len(self.times) - 1:
            return 0.0 if self.scalar else np.zeros(6)
        return self.slopes()[i]


@dataclass(frozen=True)
class ResponseSeries:
    """Sampled response plus Dirac impulse annotations (time, magnitude)."""

    times: tuple
    values: tuple
    impulses: tuple = ()


def _relaxation_integral(kernel, x):
    """``int_0^x f0`` for the continuous relaxation part."""
    if isinstance(kernel, ScalarRelaxation):
        return kernel.equilibrium * x + sum(
            w * -np.expm1(-r * x) / r for r, w in kernel.modes)
    out = x * np.asarray(kernel.equilibrium, dtype=float).copy()
    for r, g in kernel.modes:
        out = out + (-np.expm1(-r * x) / r) * g
    return out


def _creep_integral(kernel, x):
    """``int_0^x C``."""
    if isinstance(kernel, ScalarCreep):
        out = kernel.instantaneous * x + kernel.fluidity * x * x / 2.0
        return out + sum((w / r) * (x - -np.expm1(-r * x) / r)
                         for r, w in kernel.modes)
    out = x * np.asarray(kernel.instantaneous) + (x * x / 2.0) * np.asarray(
        kernel.fluidity)
    for r, h in kernel.modes:
        out = out + ((x - -np.expm1(-r * x) / r) / r) * h
    return out


def _history_convolution(kernel_value, kernel_integral, history, t):
    """Closed-form ``int_0^t k(t - u) dot(history)(u) du`` plus jump term."""
    out = None
    if history.initial_jump is not None:
        jump = history.initial_jump
        k0 = kernel_value(t)
        out = k0 * jump if np.ndim(k0) == 0 else k0 @ np.asarray(jump)
    slopes = history.slopes()
    times = history.times
    for i, slope in enumerate(slopes):
        ta, tb = times[i], times[i + 1]
        if t <= ta:
            break
        window = kernel_integral(t - ta) - kernel_integral(t - min(tb, t))
        term = window * slope if np.ndim(window) == 0 else window @ np.asarray(slope)
        out = term if out is None else out + term
    if out is None:
        k0 = kernel_value(t)
        out = 0.0 if np.ndim(k0) == 0 else np.zeros(6)
    return out


def respond(kernel, history, times):
    """Stress response of a relaxation kernel to a strain history.

    The Dirac part contributes ``beta * strain_rate`` pointwise, plus an
    impulse annotation ``beta * jump`` when the history jumps at t = 0.
    """
    if not isinstance(kernel, RELAXATION_KINDS):
        raise TypeError("respond requires a relaxation kernel")
    scalar = isinstance(kernel, ScalarRelaxation)
    if scalar != history.scalar:
        raise ValueError("kernel and history dimensions do not match")
    beta = kernel.newtonian
    values = []
    for t in times:
        t = float(t)
        value = _history_convolution(
            lambda x: eval_relaxation(kernel, x),
            lambda x: _relaxation_integral(kernel, x),
            history, t)
        rate = history.rate_at(t)
        value = value + (beta * rate if scalar else beta @ np.asarray(rate))
        values.append(value)
    impulses = ()
    has_dirac = beta > 0.0 if scalar else matrix_norm(beta) > 0.0
    if history.initial_jump is not None and has_dirac:
        jump = history.initial_jump
        magnitude = beta * jump if scalar else beta @ np.asarray(jump)
        impulses = ((0.0, magnitude),)
    return ResponseSeries(tuple(float(t) for t in times), tuple(values),
                          impulses)


def respond_creep(kernel, history, times):
    """Strain response of a creep kernel to a stress history."""
    if not isinstance(kernel, CREEP_KINDS):
        raise TypeError("respond_creep requires a creep kernel")
    if isinstance(kernel, ScalarCreep) != history.scalar:
        raise ValueError("kernel and history dimensions do not match")
    values = []
    for t in times:
        values.append(_history_convolution(
            lambda x: eval_creep(kernel, x),
            lambda x: _creep_integral(kernel, x),
            history, float(t)))
    return ResponseSeries(tuple(float(t) for t in times), tuple(values))
