"""Independent oracles for the program's outputs.

They read only documents in the package's file formats (the generated
inputs, and the program's JSON and CSV outputs) and never call viscodual,
so a defect in the program's own verification cannot pass a wrong answer.

- A dual pair must satisfy ``[p Rtilde(p)] [p Ctilde(p)] = I`` at every
  ``p > 0``.  It is checked on log-spaced ``p`` over
  ``[1e-3 r_min, 1e3 r_max]`` of both kernels' rates, not on the narrow
  grid of ``duality_residual``, which passes wrong duals at wide spans.
- ``respond`` rows are checked against adaptive quadrature of the
  convolution of the kernel with the history's piecewise-constant rate.
- ``sample`` rows are checked against a direct Prony sum.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import integrate

# The tolerances of `viscodual check --against`: correct duals land far
# below them and wrong ones far above.
DUAL_TOL = {"scalar": 1e-9, "matrix6": 1e-7}
RESPOND_TOL = 1e-8
SAMPLE_TOL = 1e-10
LAPLACE_POINTS = 64

CONSTANTS = {"relaxation": ("dirac", "equilibrium"),
             "creep": ("instantaneous", "fluidity")}


class Kernel:
    """The arrays of a material document; scalars are the 1x1 case."""

    def __init__(self, doc):
        self.kind = doc["kind"]
        self.dimension = doc["dimension"]
        d = 1 if self.dimension == "scalar" else 6
        self.size = d

        def mat(value):
            return np.asarray(value, dtype=float).reshape(d, d)

        self.c0, self.c1 = (mat(doc.get(name, np.zeros(d * d)))
                            for name in CONSTANTS[self.kind])
        modes = doc.get("modes", [])
        self.rates = np.array([m["rate"] for m in modes], dtype=float)
        self.weights = np.array([mat(m["weight"]) for m in modes]).reshape(-1, d, d)

    def finite(self):
        return all(np.all(np.isfinite(a)) for a in
                   (self.c0, self.c1, self.rates, self.weights))

    def image(self, p):
        """``p * ktilde(p)`` at every ``p`` of a 1-D array, shape (P, d, d)."""
        p = p[:, None, None]
        r = self.rates[None, :]
        if self.kind == "relaxation":
            factor = p[:, :, 0] / (p[:, :, 0] + r)
            out = p * self.c0 + self.c1
        else:
            factor = 1.0 / (p[:, :, 0] + r)
            out = self.c0 + self.c1 / p
        return out + np.einsum("pk,kij->pij", factor, self.weights)

    def value(self, t):
        """Continuous part of the kernel at times ``t``, shape (T, d, d)."""
        t = np.asarray(t, dtype=float)[:, None]
        if self.kind == "relaxation":
            factor = np.exp(-self.rates * t)
            out = np.broadcast_to(self.c1, (len(t),) + self.c1.shape)
        else:
            factor = -np.expm1(-self.rates * t) / self.rates
            out = self.c0 + t[:, :, None] * self.c1
        return out + np.einsum("tk,kij->tij", factor, self.weights)


MALFORMED = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def mode_count(text):
    """Modes in a serialized kernel; 0 if it does not parse."""
    try:
        return len(json.loads(text)["modes"])
    except MALFORMED:
        return 0


def dual_error(source_doc, dual_text):
    """Largest entry of ``[p Rtilde][p Ctilde] - I`` over the span; inf if malformed."""
    try:
        source, dual = Kernel(source_doc), Kernel(json.loads(dual_text))
    except MALFORMED:
        return np.inf
    if (dual.kind == source.kind or dual.dimension != source.dimension
            or not dual.finite()):
        return np.inf
    rates = np.concatenate([source.rates, dual.rates]) if len(dual.rates) \
        else source.rates
    lo, hi = (rates.min(), rates.max()) if len(rates) else (1.0, 1.0)
    p = np.geomspace(1e-3 * lo, 1e3 * hi, LAPLACE_POINTS)
    product = source.image(p) @ dual.image(p)
    return float(np.max(np.abs(product - np.eye(source.size))))


def dual_ok(source_doc, dual_text):
    return dual_error(source_doc, dual_text) <= DUAL_TOL[source_doc["dimension"]]


def _csv(text):
    """Comment lines and the numeric rows of a CSV table."""
    lines = text.splitlines()
    comments = [x for x in lines if x.startswith("#")]
    body = [x for x in lines if x and not x.startswith("#")][1:]
    return comments, np.array([[float(c) for c in x.split(",")] for x in body])


def _upper(values):
    rows, cols = np.triu_indices(values.shape[-1])
    return values[:, rows, cols]


def sample_error(item, text):
    """Relative deviation of the sampled rows from a direct Prony sum; inf if
    the table does not parse."""
    try:
        return _sample_error(item, text)
    except MALFORMED:
        return np.inf


def _sample_error(item, text):
    kernel = Kernel(item["kernel"])
    _, rows = _csv(text)
    spacing = np.geomspace if item["log"] else np.linspace
    grid = spacing(item["t0"], item["t1"], item["rows"])
    if rows.shape[0] != item["rows"] or np.max(np.abs(rows[:, 0] - grid)) \
            > 1e-12 * item["t1"]:
        return np.inf
    expected = _upper(kernel.value(grid))
    scale = np.abs(kernel.c0).max() + np.abs(kernel.c1).max() * np.maximum(grid, 1.0)
    scale = scale + np.abs(kernel.weights).sum(axis=0).max() * (
        1.0 if kernel.kind == "relaxation" else np.maximum(grid, 1.0))
    return float(np.max(np.abs(rows[:, 1:] - expected) / scale[:, None]))


def _history(doc, dimension):
    times = np.array([b["t"] for b in doc["breakpoints"]], dtype=float)
    values = np.array([b["value"] for b in doc["breakpoints"]], dtype=float)
    values = values.reshape(len(times), 1 if dimension == "scalar" else 6)
    slopes = np.diff(values, axis=0) / np.diff(times)[:, None]
    jump = doc.get("initial_jump")
    if jump is not None:
        jump = np.asarray(jump, dtype=float).reshape(-1)
    return times, slopes, jump


def respond_oracle(kernel, history_doc, t):
    """Response at time ``t`` by quadrature, and the size of its terms."""
    times, slopes, jump = _history(history_doc, kernel.dimension)
    terms = []
    if jump is not None:
        terms.append(kernel.value([t])[0] @ jump)
    for i, slope in enumerate(slopes):
        a, b = times[i], min(times[i + 1], t)
        if a >= t:
            break
        window, _ = integrate.quad_vec(
            lambda u: kernel.value([t - u])[0] @ slope, a, b,
            epsrel=1e-12, epsabs=1e-15)
        terms.append(window)
    if kernel.kind == "relaxation":
        i = int(np.searchsorted(times, t, side="right")) - 1
        if 0 <= i < len(slopes):
            terms.append(kernel.c0 @ slopes[i])
    if not terms:
        return np.zeros(kernel.size), 1.0
    terms = np.array(terms)
    # Every term can underflow to 0 far out on a fast-decaying kernel.
    scale = max(float(np.abs(terms).sum(axis=0).max()), np.finfo(float).tiny)
    return terms.sum(axis=0), scale


def respond_error(item, text, checked_rows):
    """Relative deviation of chosen ``respond`` rows from quadrature, and of
    the impulse annotation from ``dirac * initial_jump``; inf if the table
    does not parse."""
    try:
        return _respond_error(item, text, checked_rows)
    except MALFORMED:
        return np.inf


def _respond_error(item, text, checked_rows):
    kernel = Kernel(item["kernel"])
    comments, rows = _csv(text)
    last = item["history"]["breakpoints"][-1]["t"]
    if rows.shape[0] != item["rows"] or np.max(
            np.abs(rows[:, 0] - np.linspace(0.0, last, item["rows"]))) > 1e-12 * last:
        return np.inf
    worst = 0.0
    for index in checked_rows:
        expected, scale = respond_oracle(kernel, item["history"], rows[index, 0])
        worst = max(worst, float(np.max(np.abs(rows[index, 1:] - expected))) / scale)
    _, _, jump = _history(item["history"], kernel.dimension)
    dirac = kernel.c0 if kernel.kind == "relaxation" else np.zeros(1)
    if jump is not None and np.any(dirac):
        impulses = [c for c in comments if c.startswith("# impulse,")]
        if len(impulses) != 1:
            return np.inf
        magnitude = np.asarray(json.loads(impulses[0].split("magnitude=")[1]))
        expected = dirac @ jump
        worst = max(worst, float(np.max(np.abs(magnitude - expected)))
                    / max(float(np.max(np.abs(expected))), np.finfo(float).tiny))
    return worst
