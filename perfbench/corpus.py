"""Seeded inputs for every workload, made from the seed alone.

Nothing here imports viscodual or the repository's tests: the inputs are
plain material and history documents in the package's JSON file format, so
an edit to the program or its tests cannot move the baseline.

Each item carries a stratum label (``cls``).  The layout of the strata
(mode counts, kinds, coefficient patterns) is fixed by position and
interleaved, so any run of consecutive items is a fair sample of the
corpus; the seed only draws the numbers.  run.py weighs timings by stratum
so that which part of a corpus a run happens to reach does not change its
figures.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib

import numpy as np

SCALAR_CONSTANTS = {"relaxation": ("dirac", "equilibrium"),
                    "creep": ("instantaneous", "fluidity")}


def digest(workload):
    """Short hash of every generated input, to show two runs used the same data."""
    blob = json.dumps(workload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _rates(rng, count, span, min_gap):
    """``count`` sorted rates spread over at most ``span`` decades."""
    if count == 0:
        return []
    start = rng.uniform(-2.0, 2.0)
    if count == 1:
        return [float(10.0 ** start)]
    slack = max(span / (count - 1) - min_gap, 0.0)
    gaps = min_gap + rng.uniform(0.0, slack, size=count - 1)
    return [float(x) for x in 10.0 ** (start + np.concatenate([[0.0], np.cumsum(gaps)]))]


def _decade_rates(rng, decades):
    """One rate per decade over ``decades`` decades (a Prony fit of a master curve)."""
    start = rng.uniform(-decades / 2.0 - 0.5, -decades / 2.0 + 0.5)
    jitter = rng.uniform(-0.25, 0.25, size=decades + 1)
    return [float(x) for x in 10.0 ** (start + np.arange(decades + 1) + jitter)]


def _flat(m):
    return [float(x) for x in np.asarray(m).ravel()]


def _gram(rng, rank):
    x = rng.normal(size=(6, rank))
    return x @ x.T


def _coefficient(rng, pattern):
    """A zero, singular or full-rank PSD 6x6 coefficient."""
    if pattern == "zero":
        return np.zeros((6, 6))
    if pattern == "singular":
        return _gram(rng, int(rng.integers(1, 6)))
    return _gram(rng, 6)


def scalar_doc(rng, kind, rates, first, second):
    """Scalar kernel: ``first``/``second`` say whether the two constants are present."""
    names = SCALAR_CONSTANTS[kind]
    doc = {"kind": kind, "dimension": "scalar"}
    for name, present in zip(names, (first, second)):
        doc[name] = float(rng.uniform(0.1, 2.0)) if present else 0.0
    if not rates and not first and not second:
        doc[names[1] if kind == "relaxation" else names[0]] = float(rng.uniform(0.5, 2.0))
    doc["modes"] = [{"rate": r, "weight": float(rng.uniform(0.2, 5.0))}
                    for r in rates]
    return doc


def matrix_doc(rng, kind, rates, patterns, ranks):
    """6x6 kernel whose coefficient sum is safely positive definite."""
    names = SCALAR_CONSTANTS[kind]
    ranks = list(ranks)
    while True:
        coefs = [_coefficient(rng, p) for p in patterns]
        weights = [_gram(rng, r) for r in ranks]
        eig = np.linalg.eigvalsh(sum(coefs) + sum(weights, np.zeros((6, 6))))
        if eig[0] > 1e-6 * eig[-1]:
            break
        # Too few directions in total: raise the lowest weight rank.
        low = int(np.argmin(ranks))
        ranks[low] = min(ranks[low] + 1, 6)
    doc = {"kind": kind, "dimension": "matrix6"}
    for name, c in zip(names, coefs):
        doc[name] = _flat(c)
    # A creep mode's weight is its rate times its compliance increment, so
    # every mode moves the kernel by O(1) whatever its rate.
    scale = rates if kind == "creep" else [1.0] * len(rates)
    doc["modes"] = [{"rate": r, "weight": _flat(f * w)}
                    for r, f, w in zip(rates, scale, weights)]
    return doc


def _history(rng, kind, dimension, breakpoints, horizon, jump):
    """Piecewise-linear strain or stress history over ``[0, horizon]``."""
    steps = rng.uniform(0.5, 1.5, size=breakpoints - 1)
    times = np.concatenate([[0.0], np.cumsum(steps)]) * horizon / steps.sum()
    shape = (breakpoints,) if dimension == "scalar" else (breakpoints, 6)
    values = np.cumsum(rng.normal(size=shape), axis=0)
    values[0] = values[0] if jump else 0.0
    doc = {"kind": kind,
           "breakpoints": [{"t": float(t), "value": v.tolist() if np.ndim(v) else float(v)}
                           for t, v in zip(times, values)]}
    if jump:
        doc["initial_jump"] = values[0].tolist() if np.ndim(values[0]) else float(values[0])
    return doc


def _rate_bounds(doc):
    rates = [m["rate"] for m in doc["modes"]] or [1.0]
    return min(rates), max(rates)


def respond_item(rng, doc, breakpoints, rows, jump, cls):
    kind = "strain" if doc["kind"] == "relaxation" else "stress"
    horizon = 5.0 / _rate_bounds(doc)[0]
    return {"kernel": doc, "rows": rows, "cls": cls,
            "history": _history(rng, kind, doc["dimension"], breakpoints,
                                horizon, jump)}


def sample_item(doc, rows, log, cls):
    lo, hi = _rate_bounds(doc)
    if log:
        t0, t1 = 1e-3 / hi, 1e3 / lo
    else:
        t0, t1 = 0.0, 10.0 / lo
    return {"kernel": doc, "t0": t0, "t1": t1, "rows": rows, "log": log,
            "cls": cls}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# viscodual 0.1.0 fails on some kernels of every family the timing workloads
# use: on random 6x6 kernels within 3 decades it returns a wrong dual,
# raises, or has `check` reject a right pair for about one kernel in 50
# (singular Dirac parts, rank-deficient weights, and others with no simple
# rule), and on scalar kernels `check` rejects a few right pairs whose dual
# is nearly constant on its sampling grid, and every mode-free ``A + D t``
# creep kernel.  A timing workload must have no failing operation, so each
# stratum (dimension, kind, mode count, coefficient pattern) has a bank of
# draw numbers (bank.json, written by screen.py) on which conversion and
# check were verified with viscodual 0.1.0.  Timing workloads draw from the bank;
# `unscreened` draws freely, so the failures are still measured.
KINDS = ("relaxation", "creep")
PATTERNS = {
    # whether the Dirac/instantaneous and the equilibrium/fluidity constants are present
    "scalar": [("zero", "positive"), ("positive", "positive"), ("zero", "zero"),
               ("positive", "zero")],
    "matrix6": [(a, b) for a in ("zero", "singular", "full")
                for b in ("zero", "singular", "full")],
}
LARGE_PATTERNS = [p for p in PATTERNS["matrix6"] if p[1] == "full"]
BANK_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bank.json")


def stratum_key(dimension, kind, count, pattern):
    return f"{dimension}/{kind}/{count}/{pattern[0]}-{pattern[1]}"


def draw(dimension, kind, count, pattern, number):
    """Kernel ``number`` of a stratum.  Scalar: modes at least 0.1 decade
    apart within 1-4 decades.  6x6: twenty modes means full-rank weights
    packed into 3 decades; fewer, mixed ranks 1-6 within 3 decades."""
    rng = np.random.default_rng([len(dimension), KINDS.index(kind), count,
                                 PATTERNS[dimension].index(pattern), number])
    if dimension == "scalar":
        rates = _rates(rng, count, rng.uniform(1.0, 4.0), 0.1)
        return scalar_doc(rng, kind, rates, *(p == "positive" for p in pattern))
    if count == 20:
        ranks, rates = [6] * 20, _rates(rng, 20, 2.85, 0.06)
    else:
        # Ranks are fixed by the stratum so that every draw of it builds a
        # pencil of the same size.
        ranks = [1 + (3 * j + count) % 6 for j in range(count)]
        rates = _rates(rng, count, 3.0, 0.1)
    return matrix_doc(rng, kind, rates, pattern, ranks)


def banked_draw(rng, bank, dimension, kind, count, pattern):
    """A banked draw of the stratum, or of the next pattern that has one."""
    patterns = PATTERNS[dimension]
    start = patterns.index(pattern)
    for step in range(len(patterns)):
        pattern = patterns[(start + step) % len(patterns)]
        numbers = bank.get(stratum_key(dimension, kind, count, pattern))
        if numbers:
            break
    return draw(dimension, kind, count, pattern, numbers[int(rng.integers(len(numbers)))])


def load_bank():
    with open(BANK_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def scalar_fits(rng):
    """0-12 modes within 4 decades, at least 0.1 decade apart; solid and
    fluid; with and without a Dirac part."""
    bank = load_bank()
    materials = []
    for i in range(26 * 16):
        kind, count = KINDS[i % 2], (i // 2) % 13
        pattern = PATTERNS["scalar"][(i // 2) % 4]
        materials.append({"doc": banked_draw(rng, bank, "scalar", kind, count, pattern),
                          "cls": f"{kind}-{count}"})
    picks = [m["doc"] for m in materials if len(m["doc"]["modes"]) >= 4][:6]
    respond = [respond_item(rng, d, 20, 100, j % 2 == 0, f"r{j}")
               for j, d in enumerate(picks)]
    sample = [sample_item(d, 1000, j % 2 == 1, f"s{j}")
              for j, d in enumerate(picks)]
    return {"materials": materials, "respond": respond, "sample": sample}


def aniso_6x6(rng):
    """1-8 modes within 3 decades, mixed-rank weights, zero, singular or full
    coefficients; one kernel in 20 has 20 full-rank modes."""
    bank = load_bank()
    materials = []
    small = 0
    for block in range(6):
        large = int(rng.integers(0, 20))
        for slot in range(20):
            if slot == large:
                kind, count = KINDS[block % 2], 20
                pattern = LARGE_PATTERNS[block % 3]
            else:
                kind, count = KINDS[small % 2], 1 + (small // 2) % 8
                pattern = PATTERNS["matrix6"][small % 9]
                small += 1
            materials.append({"doc": banked_draw(rng, bank, "matrix6", kind, count, pattern),
                              "cls": f"modes-{count}"})
    picks = [m["doc"] for m in materials if len(m["doc"]["modes"]) <= 4][:4]
    respond = [respond_item(rng, d, 10, 50, j % 2 == 0, f"r{j}")
               for j, d in enumerate(picks)]
    sample = [sample_item(d, 500, j % 2 == 1, f"s{j}")
              for j, d in enumerate(picks)]
    return {"materials": materials, "respond": respond, "sample": sample}


def wide_spectrum(rng):
    """Prony fits with one mode per decade: scalar 8-30 decades, 6x6 4-14."""
    materials = []
    for decades in range(8, 31, 2):
        for kind in ("relaxation", "creep"):
            for solid in (True, False):
                second = solid if kind == "relaxation" else not solid
                doc = scalar_doc(rng, kind, _decade_rates(rng, decades),
                                 False, second)
                materials.append({"doc": doc, "cls": f"scalar-{decades}"})
    for decades in range(4, 15, 2):
        for kind in ("relaxation", "creep"):
            for solid in (True, False):
                if kind == "relaxation":
                    patterns = ("zero", "full" if solid else "zero")
                else:
                    patterns = ("full", "zero" if solid else "full")
                ranks = [int(r) for r in rng.integers(1, 7, size=decades + 1)]
                doc = matrix_doc(rng, kind, _decade_rates(rng, decades),
                                 patterns, ranks)
                materials.append({"doc": doc, "cls": f"matrix-{decades}"})
    picks = [materials[0]["doc"], materials[1]["doc"],
             materials[48]["doc"], materials[49]["doc"]]
    respond = [respond_item(rng, d, 20, 100, j % 2 == 0, f"r{j}")
               for j, d in enumerate(picks)]
    sample = [sample_item(d, 1000, True, f"s{j}") for j, d in enumerate(picks)]
    return {"materials": materials, "respond": respond, "sample": sample}


def unscreened(rng):
    """The inputs the timing workloads leave out because viscodual 0.1.0
    fails on them: free 6x6 draws (not from the bank), scalar creep ``A + D t`` with no
    modes (and relaxation kernels whose dual is one), which ``check``
    rejects, and 8-12 scalar modes less than 0.1 decade apart, where the
    expanded-polynomial path loses digits."""
    materials = []
    for i in range(72):
        kind, count = KINDS[i % 2], 1 + (i // 2) % 8
        pattern = PATTERNS["matrix6"][(i // 8) % 9]
        doc = draw("matrix6", kind, count, pattern, int(rng.integers(2 ** 31)))
        materials.append({"doc": doc, "cls": "matrix"})
    for i in range(48):
        kind = KINDS[i % 2]
        if i < 24:
            shape = (i // 2) % 4
            if kind == "creep":
                count, first, second = 0, shape % 2 == 0, True
            else:
                count, first, second = shape // 2, shape // 2 == 0, False
            cls = "mode-free-fluid"
        else:
            count, first, second = 8 + i % 5, i % 3 == 0, i % 4 < 2
            cls = "dense"
        rates = _rates(rng, count, 0.4, 0.02)
        materials.append({"doc": scalar_doc(rng, kind, rates, first, second),
                          "cls": cls})
    picks = [m["doc"] for m in materials[96:100]]
    respond = [respond_item(rng, d, 20, 100, j % 2 == 0, f"r{j}")
               for j, d in enumerate(picks)]
    sample = [sample_item(d, 1000, j % 2 == 1, f"s{j}")
              for j, d in enumerate(picks)]
    return {"materials": materials, "respond": respond, "sample": sample}


def time_axis(rng):
    """Three scalar and two 6x6 kernels driven by long histories and dense
    grids.  Five kernels, so that the median operation is a scalar one rather
    than a toss-up between the scalar and the 6x6 cost."""
    bank = load_bank()
    docs = [
        banked_draw(rng, bank, "scalar", "relaxation", 4, ("positive", "positive")),
        banked_draw(rng, bank, "scalar", "creep", 4, ("positive", "positive")),
        banked_draw(rng, bank, "scalar", "relaxation", 6, ("zero", "positive")),
        banked_draw(rng, bank, "matrix6", "relaxation", 4, ("full", "singular")),
        banked_draw(rng, bank, "matrix6", "creep", 4, ("full", "singular")),
    ]
    materials = [{"doc": d, "cls": f"k{j}"} for j, d in enumerate(docs)]
    respond = [respond_item(rng, docs[0], 200, 1000, True, "scalar-strain"),
               respond_item(rng, docs[1], 200, 1000, True, "scalar-stress"),
               respond_item(rng, docs[3], 50, 200, True, "matrix-strain"),
               respond_item(rng, docs[4], 50, 200, False, "matrix-stress")]
    sample = [sample_item(d, 10000, log, f"k{j}-{'log' if log else 'lin'}")
              for j, d in enumerate(docs) for log in (False, True)]
    return {"materials": materials, "respond": respond, "sample": sample}


WORKLOADS = {
    "scalar-fits": scalar_fits,
    "aniso-6x6": aniso_6x6,
    "wide-spectrum": wide_spectrum,
    "time-axis": time_axis,
    "unscreened": unscreened,
}


def generate(name, seed):
    return WORKLOADS[name](np.random.default_rng([seed, zlib.crc32(name.encode())]))
