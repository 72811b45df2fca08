"""Per-time-point loops kept as oracles for the stacked time-axis code.

These are the one-time-at-a-time versions of ``verify``'s convolution and
well-formedness sampling, and of ``matio``'s CSV sampling.  The
well-formedness and sampling loops must agree with the stacked code bit
for bit.  The convolution loop sums in another order, so it also returns
its term scale: the sum of the magnitudes of the terms it adds, the size
that rounding is relative to.
"""

import numpy as np

from viscodual import (
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    eval_creep,
    eval_relaxation,
)
from viscodual.kernels import is_psd, matrix_norm, max_rate
from viscodual.verify import TOL_CM, TOL_EQUAL_RATE, _ReportBuilder


def _size(x):
    return abs(float(x)) if np.ndim(x) == 0 else matrix_norm(x)


# ---------------------------------------------------------------------------
# Well-formedness and CSV sampling, one time at a time
# ---------------------------------------------------------------------------

def _divided_differences(times, values, order):
    d = np.array(values, dtype=float)
    t = np.asarray(times, dtype=float)
    for k in range(order):
        d = (d[1:] - d[:-1]) / (t[k + 1:] - t[:-(k + 1)])
    return d


_PROBE_VECTORS = np.vstack([np.eye(6), np.full((1, 6), 1.0 / np.sqrt(6.0))])


def _alternation_checks(rep, times, samples, decreasing):
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
        rep.add(f"sampled-alternation-order-{order}", worst, 1.0)


def loop_check_wellformed(kernel):
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

    if all(e.passed for e in rep.entries):
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


_UPPER_TRIANGLE = [(i, j) for i in range(6) for j in range(i, 6)]


def loop_sample_to_csv(kernel, grid):
    """The CSV text of ``matio.sample_to_csv`` on an already built grid."""
    matrix = isinstance(kernel, (MatrixRelaxation, MatrixCreep))
    relax = isinstance(kernel, (ScalarRelaxation, MatrixRelaxation))
    evaluate = eval_relaxation if relax else eval_creep
    if matrix:
        header = "t," + ",".join(f"v{i + 1}{j + 1}" for i, j in _UPPER_TRIANGLE)
    else:
        header = "t,value"
    lines = [header]
    for t in grid:
        value = evaluate(kernel, t)
        cells = [value[i, j] for i, j in _UPPER_TRIANGLE] if matrix else [value]
        lines.append(",".join(format(float(x), ".17g") for x in [t] + cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed-form convolution, one time at a time
# ---------------------------------------------------------------------------

def _conv_exp_exp(r, s, t):
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


def loop_convolution(relaxation, creep, t):
    """``((R * C)(t), term scale)`` summed term by term."""
    scalar = isinstance(relaxation, ScalarRelaxation)
    t = float(t)
    mul = (lambda x, y: x * y) if scalar else (lambda x, y: x @ y)
    beta = relaxation.newtonian
    a = relaxation.equilibrium
    c0, lin, exps = _creep_pieces(creep)
    terms = []

    def add(x, y, f, bound=None):
        bound = abs(f) if bound is None else bound
        terms.append((mul(x, y) * f, _size(x) * _size(y) * bound))

    add(beta, eval_creep(creep, t), 1.0)
    add(a, c0, t)
    add(a, lin, t * t / 2.0)
    for s, w in exps:
        add(a, w, -np.expm1(-s * t) / s)
    for r, m in relaxation.modes:
        decay = -np.expm1(-r * t) / r
        add(m, c0, decay)
        add(m, lin, t / r - decay / r, t / r + decay / r)
        for s, w in exps:
            add(m, w, _conv_exp_exp(r, s, t))
    out = terms[0][0]
    for value, _ in terms[1:]:
        out = out + value
    return out, sum(size for _, size in terms)
