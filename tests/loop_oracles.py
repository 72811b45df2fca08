"""Loops kept as oracles for the stacked and merged code of ``verify`` and
``matio``.

These are the one-time-at-a-time versions of ``verify``'s convolution and
well-formedness shape checks, and of ``matio``'s CSV sampling, and the
separate scalar and 6x6 bodies of the limit identities, and the
one-number-at-a-time text writers of ``matio`` and the ``respond`` command,
and the duality residual with a singular-value call at every grid time and
the definiteness flags with ``eigvalsh`` at every size.  The sampling loop,
the writers, the residual and the flags must agree with the package bit
for bit.
The convolution loop sums in another order, so it also returns its term
scale: the sum of the magnitudes of the terms it adds, the size that
rounding is relative to.  The well-formedness loop sums each derivative term
by term, so its residuals agree with the stacked ones to rounding relative
to ``TOL_CM``.
"""

import json

import numpy as np

from viscodual import (
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    eval_creep,
    eval_relaxation,
)
from viscodual.kernels import (
    TOL_PSD, NumericsError, cbf_as_rational, eig_norm, is_psd, matrix_norm,
    max_rate)
from viscodual.verify import (
    TOL_CM,
    TOL_EQUAL_RATE,
    TOL_LIMITS,
    _convolution_values,
    _ReportBuilder,
    default_time_grid,
)


def _size(x):
    return abs(float(x)) if np.ndim(x) == 0 else matrix_norm(x)


# ---------------------------------------------------------------------------
# Well-formedness and CSV sampling, one time at a time
# ---------------------------------------------------------------------------

def _derivative_terms(kernel, t, order):
    """``(factor, coefficient)`` terms of ``(-1)^n f^(n)(t)`` of a relaxation
    kernel's continuous part, or of ``h, h', -h'', h'''`` of a creep kernel."""
    if isinstance(kernel, (ScalarRelaxation, MatrixRelaxation)):
        terms = [(1.0, kernel.equilibrium)] if order == 0 else []
        return terms + [(r ** order * np.exp(-r * t), w)
                        for r, w in kernel.modes]
    if order == 0:
        return ([(1.0, kernel.instantaneous), (t, kernel.fluidity)]
                + [(-np.expm1(-r * t) / r, w) for r, w in kernel.modes])
    terms = [(1.0, kernel.fluidity)] if order == 1 else []
    return terms + [(r ** (order - 1) * np.exp(-r * t), w)
                    for r, w in kernel.modes]


_PROBE_VECTORS = np.vstack([np.eye(6), np.full((1, 6), 1.0 / np.sqrt(6.0))])


def _alternation_checks(rep, kernel, times, probes):
    """Each signed derivative at each time and probe, summed term by term;
    its deficit in units of ``TOL_CM`` times the term scale."""
    for order in range(4):
        worst = 0.0
        for t in times:
            terms = _derivative_terms(kernel, t, order)
            floor = TOL_CM * sum(abs(c) * _size(w) for c, w in terms) + 1e-300
            for v in probes:
                value = 0.0
                for c, w in terms:
                    value += c * float(v @ np.reshape(w, (v.size, v.size)) @ v)
                worst = max(worst, max(0.0, -value) / floor)
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
        times = np.geomspace(1e-3, 1e3, 64) / rmax
        probes = _PROBE_VECTORS if is_matrix else np.ones((1, 1))
        _alternation_checks(rep, kernel, times, probes)
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
        lines.append(per_cell_row([t] + cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Text writers, one number at a time
# ---------------------------------------------------------------------------

def per_cell_row(numbers):
    """One CSV line, each number formatted by its own call."""
    return ",".join(format(float(x), ".17g") for x in numbers)


def _per_cell_emit(value, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  "{k}": {_per_cell_emit(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(isinstance(v, (int, float)) for v in value):
            return "[" + ", ".join(format(float(v), ".17g")
                                   for v in value) + "]"
        items = [f"{pad}  {_per_cell_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, (int, float)):
        return format(float(value), ".17g")
    return json.dumps(value)


def per_cell_serialize_material(kernel):
    """The text of ``matio.serialize_material`` (no metadata)."""
    dirac, constant, rates, weights = cbf_as_rational(kernel)

    def coef(value):
        return value.ravel().tolist() if value.ndim else float(value)

    relax = isinstance(kernel, (ScalarRelaxation, MatrixRelaxation))
    kind = "relaxation" if relax else "creep"
    first, second = (("dirac", "equilibrium") if relax
                     else ("instantaneous", "fluidity"))
    doc = {"kind": kind, "dimension": "matrix6" if dirac.ndim else "scalar",
           first: coef(dirac), second: coef(constant),
           "modes": [{"rate": rate, "weight": coef(weight)}
                     for rate, weight in zip(rates.tolist(), weights)]}
    return _per_cell_emit(doc, 0) + "\n"


def per_cell_respond_csv(series):
    """The CSV rows of the ``respond`` command for a response series."""
    return [per_cell_row([t] + np.ravel(value).tolist())
            for t, value in zip(series.times, series.values)]


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


# ---------------------------------------------------------------------------
# Duality residual and definiteness flags, no matrix skipped
# ---------------------------------------------------------------------------

def full_grid_residual(relaxation, creep):
    """``max ||E(t)||_2 / w(t)`` over the whole default grid, with the
    spectral norm of the misfit ``E(t) = (R * C)(t) - t I`` at every time."""
    t = default_time_grid(relaxation, creep)
    value = _convolution_values(relaxation, creep, t)
    err = matrix_norm(value - t[:, None, None] * np.eye(value.shape[-1]))
    rmax = max(max_rate(relaxation), max_rate(creep))
    return float(np.max(err / np.maximum(t, 1e-6 / rmax), initial=0.0))


def eigvalsh_psd_flags(stack, tol=TOL_PSD):
    """``psd_flags`` with one ``eigvalsh`` of the symmetric parts at every
    size, ``1 x 1`` included."""
    flipped = np.swapaxes(stack, -1, -2)
    w = np.linalg.eigvalsh(0.5 * (stack + flipped))
    norms = eig_norm(w)
    floor = tol * norms
    symmetric = (np.max(np.abs(stack - flipped), axis=(-2, -1), initial=0.0)
                 <= TOL_PSD * norms)
    lowest = w[..., 0]
    return symmetric & (lowest >= -floor), symmetric & (lowest > floor), norms


# ---------------------------------------------------------------------------
# Limit identities, scalar and 6x6 as separate bodies
# ---------------------------------------------------------------------------

def _is_pd(m, tol=1e-10):
    n = matrix_norm(m)
    return n > 0.0 and float(np.linalg.eigvalsh(m)[0]) > tol * n


def _scale(kernel):
    """Sum of the sizes of the two coefficients and the mode weights."""
    first, second = ((kernel.newtonian, kernel.equilibrium)
                     if isinstance(kernel, (ScalarRelaxation, MatrixRelaxation))
                     else (kernel.instantaneous, kernel.fluidity))
    return _size(first) + _size(second) + sum(_size(w) for _, w in kernel.modes)


def loop_scalar_limit_checks(r, c, tol=TOL_LIMITS):
    """The limit clauses of a scalar pair, in plain arithmetic."""
    rep = _ReportBuilder()
    h0 = c.instantaneous
    hp0 = c.fluidity + sum(w for _, w in c.modes)
    if r.newtonian > 0.0:
        rep.add("creep-starts-at-zero", abs(h0) / _scale(c), tol)
        rep.add("newtonian-slope-reciprocity",
                abs(r.newtonian * hp0 - 1.0), tol)
    else:
        r0 = r.equilibrium + sum(w for _, w in r.modes)
        rep.add("initial-value-reciprocity", abs(r0 * h0 - 1.0), tol)
    if r.equilibrium > 0.0:
        h_inf = h0 + sum(w / s for s, w in c.modes)
        rep.add("fluidity-vanishes", c.fluidity / _scale(c), tol)
        rep.add("long-time-reciprocity",
                abs(r.equilibrium * h_inf - 1.0), tol)
    else:
        rep.add("fluid-dual-has-fluidity",
                0.0 if c.fluidity > 0.0 else 1.0, tol)
    return rep.report()


def loop_matrix_limit_checks(r, c, tol=TOL_LIMITS):
    """The limit clauses of a 6x6 pair, one norm and one definiteness test
    at a time."""
    rep = _ReportBuilder()
    eye = np.eye(6)
    n_mat, b_mat = r.newtonian, r.equilibrium
    a_mat, d_mat = c.instantaneous, c.fluidity
    r_zero = b_mat + sum(g for _, g in r.modes)
    c_slope = d_mat + sum(h for _, h in c.modes)
    c_inf = a_mat + sum(h / s for s, h in c.modes)
    cscale = _scale(c)
    if _is_pd(n_mat):
        rep.add("creep-starts-at-zero", matrix_norm(a_mat) / cscale, tol)
        rep.add("newtonian-slope-reciprocity",
                matrix_norm(n_mat @ c_slope - eye), tol)
    elif matrix_norm(n_mat) == 0.0 and _is_pd(r_zero, tol=1e-8):
        rep.add("initial-value-reciprocity",
                matrix_norm(r_zero @ a_mat - eye), tol)
    if _is_pd(b_mat, tol=1e-8):
        rep.add("fluidity-vanishes", matrix_norm(d_mat) / cscale, tol)
        rep.add("long-time-reciprocity",
                matrix_norm(b_mat @ c_inf - eye), tol)
    if _is_pd(d_mat):
        rep.add("equilibrium-vanishes", matrix_norm(b_mat) / _scale(r), tol)
    if matrix_norm(d_mat) == 0.0 and _is_pd(c_inf, tol=1e-8):
        rep.add("long-time-reciprocity",
                matrix_norm(c_inf @ b_mat - eye), tol)
    if _is_pd(a_mat, tol=1e-8):
        rep.add("initial-value-reciprocity",
                matrix_norm(a_mat @ r_zero - eye), tol)
    return rep.report()


# ---------------------------------------------------------------------------
# The dual's 6x6 constant by subtraction
# ---------------------------------------------------------------------------

def constant_by_subtraction(image, zero_mass, modes, scale):
    """``U(p)^-1`` minus ``zero_mass/p`` and the ``modes`` beyond the largest
    pole, projected onto the nullspace of ``X``.

    The subtraction is done at ``p_star = 1 + 2 s_max`` and checked at
    ``2.7 p_star + 0.3``; a mismatch above ``1e-5`` of ``scale`` (or of the
    constant) raises :class:`NumericsError`.  The projection removes the
    rounding left in the range of ``X``.
    """
    rates = np.array([s for s, _ in modes])
    weights = np.array([w for _, w in modes]).reshape(-1, 36)

    def tail(p):
        return (np.linalg.inv(image(p)) - zero_mass / p
                - ((1.0 / (p + rates)) @ weights).reshape(6, 6))

    p_star = 1.0 + 2.0 * (rates.max() if rates.size else 1.0)
    constant, check = tail(p_star), tail(2.7 * p_star + 0.3)
    mismatch = matrix_norm(constant - check)
    if mismatch > 1e-5 * max(scale, matrix_norm(constant)):
        raise NumericsError(
            f"constant-term cross-validation mismatch {mismatch:.3e}")
    null_x = image.dirac_null
    core = null_x.T @ (0.5 * (constant + check)) @ null_x
    return null_x @ (0.5 * (core + core.T)) @ null_x.T
