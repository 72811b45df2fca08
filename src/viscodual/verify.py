"""Independent checks on kernels and kernel pairs.

The central identity is the time-domain duality ``(R * C)(t) = t`` (or
``t * I`` for 6x6 kernels), evaluated here in closed form: every term of
the convolution is an exponential against a constant, linear or
exponential factor and has an elementary antiderivative.  Quadrature never
enters the checks; it exists only as a test oracle for this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    eval_creep,
    eval_relaxation,
    is_pd,
    is_psd,
    matrix_norm,
    max_rate,
)

TOL_CM = 1e-9         # relative slack for sampled sign-alternation checks
TOL_EQUAL_RATE = 1e-8  # |r - s| t below which the degenerate branch is used
TOL_LIMITS = 1e-8      # default tolerance for the boundary-value identities


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
# Well-formedness
# ---------------------------------------------------------------------------

def _divided_differences(times, values, order):
    d = np.array(values, dtype=float)
    t = np.asarray(times, dtype=float)
    for k in range(order):
        d = (d[1:] - d[:-1]) / (t[k + 1:] - t[:-(k + 1)])
    return d

_PROBE_VECTORS = np.vstack([np.eye(6), np.full((1, 6), 1.0 / np.sqrt(6.0))])


def _alternation_checks(rep, times, samples, decreasing):
    """Sampled complete-monotonicity (or Bernstein) sign pattern, orders 0-3.

    Divided differences of a completely monotone function alternate in sign
    on any increasing grid; a Bernstein function is nonnegative with the
    alternation shifted by one order.
    """
    for order in range(4):
        if decreasing:
            sign = (-1.0) ** order
        else:
            sign = 1.0 if order == 0 else (-1.0) ** (order + 1)
        worst = 0.0
        for values in samples:
            d = sign * _divided_differences(times, values, order)
            floor = TOL_CM * (np.max(np.abs(d)) + 1e-300)
            deficit = max(0.0, float(-np.min(d))) / floor
            worst = max(worst, deficit)
        # Deficit is measured in units of the tolerance floor; <= 1 passes.
        rep.add(f"sampled-alternation-order-{order}", worst, 1.0)


def check_wellformed(kernel):
    """Structural and sampled shape checks; failures are report entries."""
    rep = _ReportBuilder()
    is_relax = isinstance(kernel, (ScalarRelaxation, MatrixRelaxation))
    is_matrix = isinstance(kernel, (MatrixRelaxation, MatrixCreep))

    rates = [r for r, _ in kernel.modes]
    rep.add("rates-positive", 0.0 if all(r > 0 for r in rates) else 1.0, 0.5)
    rep.add("rates-sorted-distinct",
            0.0 if all(a < b for a, b in zip(rates, rates[1:])) else 1.0, 0.5)
    if is_matrix:
        weights_ok = all(is_psd(np.asarray(w)) for _, w in kernel.modes)
        rep.add("weights-psd", 0.0 if weights_ok else 1.0, 0.5)
        if is_relax:
            coef_ok = (is_psd(kernel.newtonian) and is_psd(kernel.equilibrium))
        else:
            coef_ok = (is_psd(kernel.instantaneous) and is_psd(kernel.fluidity))
        rep.add("coefficients-psd", 0.0 if coef_ok else 1.0, 0.5)
    else:
        weights_ok = all(w > 0 for _, w in kernel.modes)
        rep.add("weights-positive", 0.0 if weights_ok else 1.0, 0.5)
        if is_relax:
            coef_ok = kernel.newtonian >= 0 and kernel.equilibrium >= 0
        else:
            coef_ok = kernel.instantaneous >= 0 and kernel.fluidity >= 0
        rep.add("coefficients-nonnegative", 0.0 if coef_ok else 1.0, 0.5)

    structural_ok = all(e.passed for e in rep.entries)
    if structural_ok:
        rmax = max_rate(kernel)
        times = np.geomspace(1e-3 / rmax, 1e3 / rmax, 64)
        evaluate = eval_relaxation if is_relax else eval_creep
        if is_matrix:
            mats = [evaluate(kernel, t) for t in times]
            samples = [[v @ m @ v for m in mats] for v in _PROBE_VECTORS]
        else:
            samples = [[evaluate(kernel, t) for t in times]]
        _alternation_checks(rep, times, samples, decreasing=is_relax)
    return rep.report()


# ---------------------------------------------------------------------------
# Closed-form convolution
# ---------------------------------------------------------------------------

def _conv_exp_exp(r, s, t):
    """``int_0^t exp(-r u) exp(-s (t-u)) du`` with the equal-rate branch.

    Written as ``exp(-lo t) * (1 - exp(-(hi-lo) t)) / (hi - lo)`` so the
    expm1 argument is nonpositive and nothing overflows for large ``t``.
    """
    lo, hi = (r, s) if r <= s else (s, r)
    gap = hi - lo
    if gap * t < TOL_EQUAL_RATE:
        x = gap * t
        return t * np.exp(-lo * t) * (1.0 - x / 2.0 + x * x / 6.0)
    return -np.exp(-lo * t) * np.expm1(-gap * t) / gap


def _creep_pieces(c):
    """Creep kernel as constant + linear + exponentials: ``c0 + D t + sum w e``."""
    if isinstance(c, ScalarCreep):
        c0 = c.instantaneous + sum(w / r for r, w in c.modes)
        exps = [(r, -w / r) for r, w in c.modes]
        return c0, c.fluidity, exps
    c0 = np.array(c.instantaneous)
    exps = []
    for r, h in c.modes:
        c0 += h / r
        exps.append((r, -h / r))
    return c0, np.array(c.fluidity), exps


def convolution_value(relaxation, creep, t):
    """``(R * C)(t)`` in closed form; equals ``t`` (or ``t I``) for dual pairs."""
    scalar = isinstance(relaxation, ScalarRelaxation)
    if scalar != isinstance(creep, ScalarCreep):
        raise TypeError("relaxation and creep kernels have incompatible kinds")
    t = float(t)
    mul = (lambda x, y: x * y) if scalar else (lambda x, y: x @ y)
    beta = relaxation.newtonian
    a = relaxation.equilibrium
    c0, lin, exps = _creep_pieces(creep)

    out = mul(beta, eval_creep(creep, t))
    out = out + mul(a, c0) * t + mul(a, lin) * (t * t / 2.0)
    for s, w in exps:
        out = out + mul(a, w) * (-np.expm1(-s * t) / s)
    for r, m in relaxation.modes:
        decay = -np.expm1(-r * t) / r
        out = out + mul(m, c0) * decay
        out = out + mul(m, lin) * (t / r - decay / r)
        for s, w in exps:
            out = out + mul(m, w) * _conv_exp_exp(r, s, t)
    return out


def default_time_grid(relaxation, creep, count=33):
    rmax = max(max_rate(relaxation), max_rate(creep))
    return np.geomspace(1e-3 / rmax, 1e3 / rmax, count)


def duality_residual(relaxation, creep, grid=None):
    """Max relative deviation of ``(R * C)(t)`` from ``t`` over the grid."""
    if grid is None:
        grid = default_time_grid(relaxation, creep)
    scalar = isinstance(relaxation, ScalarRelaxation)
    rmax = max(max_rate(relaxation), max_rate(creep))
    t_floor = 1e-6 / rmax
    worst = 0.0
    eye = None if scalar else np.eye(6)
    for t in grid:
        value = convolution_value(relaxation, creep, t)
        if scalar:
            err = abs(value - t)
        else:
            err = matrix_norm(value - t * eye)
        worst = max(worst, err / max(t, t_floor))
    return worst


# ---------------------------------------------------------------------------
# Boundary-value identities
# ---------------------------------------------------------------------------

def check_limit_identities(relaxation, creep, tol=TOL_LIMITS):
    """Evaluate every limit clause applicable to a claimed dual pair."""
    if isinstance(relaxation, ScalarRelaxation):
        return _scalar_limit_checks(relaxation, creep, tol)
    return _matrix_limit_checks(relaxation, creep, tol)


def _scalar_limit_checks(r, c, tol):
    rep = _ReportBuilder()
    h0 = c.instantaneous
    hp0 = c.derivative_at_zero
    if r.newtonian > 0.0:
        rep.add("creep-starts-at-zero", abs(h0) / c.scale, tol)
        rep.add("newtonian-slope-reciprocity",
                abs(r.newtonian * hp0 - 1.0), tol)
    else:
        rep.add("initial-value-reciprocity",
                abs(r.continuous_at_zero * h0 - 1.0), tol)
    if r.equilibrium > 0.0:
        h_inf = h0 + sum(w / s for s, w in c.modes)
        rep.add("fluidity-vanishes", c.fluidity / c.scale, tol)
        rep.add("long-time-reciprocity",
                abs(r.equilibrium * h_inf - 1.0), tol)
    else:
        rep.add("fluid-dual-has-fluidity",
                0.0 if c.fluidity > 0.0 else 1.0, tol)
    return rep.report()


def _matrix_limit_checks(r, c, tol):
    rep = _ReportBuilder()
    eye = np.eye(6)
    n_mat = np.asarray(r.newtonian)
    b_mat = np.asarray(r.equilibrium)
    a_mat = np.asarray(c.instantaneous)
    d_mat = np.asarray(c.fluidity)
    r_zero = r.continuous_at_zero
    c_slope = c.derivative_at_zero
    c_inf = np.array(a_mat)
    for s, h in c.modes:
        c_inf += h / s
    cscale = c.scale
    if is_pd(n_mat):
        rep.add("creep-starts-at-zero", matrix_norm(a_mat) / cscale, tol)
        rep.add("newtonian-slope-reciprocity",
                matrix_norm(n_mat @ c_slope - eye), tol)
    elif matrix_norm(n_mat) == 0.0 and is_pd(r_zero, tol=1e-8):
        rep.add("initial-value-reciprocity",
                matrix_norm(np.asarray(r_zero) @ a_mat - eye), tol)
    if is_pd(b_mat, tol=1e-8):
        rep.add("fluidity-vanishes", matrix_norm(d_mat) / cscale, tol)
        rep.add("long-time-reciprocity",
                matrix_norm(b_mat @ c_inf - eye), tol)
    if is_pd(d_mat):
        rep.add("equilibrium-vanishes", matrix_norm(b_mat) / r.scale, tol)
    if matrix_norm(d_mat) == 0.0 and is_pd(c_inf, tol=1e-8):
        rep.add("long-time-reciprocity",
                matrix_norm(np.asarray(c_inf) @ b_mat - eye), tol)
    if is_pd(a_mat, tol=1e-8):
        rep.add("initial-value-reciprocity",
                matrix_norm(a_mat @ np.asarray(r_zero) - eye), tol)
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
        if self.scalar:
            values = tuple(float(v) for v in self.values)
        else:
            values = tuple(np.asarray(v, dtype=float).reshape(6)
                           for v in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

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
    if not isinstance(kernel, (ScalarRelaxation, MatrixRelaxation)):
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
    if not isinstance(kernel, (ScalarCreep, MatrixCreep)):
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
