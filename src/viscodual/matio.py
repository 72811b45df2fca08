"""Material file format: JSON in, JSON out, CSV sampling export.

The format is deliberately human-auditable.  Numbers are written with
``%.17g`` so that serialize -> parse is bit-exact for doubles; one ``%``
renders a whole CSV row or JSON number list.  Serialization is
deterministic: canonical key order, modes sorted by rate, LF line endings.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .kernels import (
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    cbf_as_rational,
    near_coincident,
)
from .verify import BLOCK_ELEMENTS, kernel_values


class MaterialFormatError(ValueError):
    """Material document violates the schema."""


_UPPER_ROWS, _UPPER_COLS = np.triu_indices(6)
# document kind -> names of the X and Y coefficients of its image
_FIELDS = {"relaxation": ("dirac", "equilibrium"),
           "creep": ("instantaneous", "fluidity")}
_CLASSES = {("relaxation", "scalar"): ScalarRelaxation,
            ("relaxation", "matrix6"): MatrixRelaxation,
            ("creep", "scalar"): ScalarCreep,
            ("creep", "matrix6"): MatrixCreep}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _as_number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MaterialFormatError(f"{name} must be a number")
    return float(value)


def _as_matrix(value, name):
    if not isinstance(value, list):
        raise MaterialFormatError(f"{name} must be a 6x6 array")
    flat = value
    if len(value) == 6 and all(isinstance(row, list) for row in value):
        flat = [x for row in value for x in row]
    if len(flat) != 36:
        raise MaterialFormatError(
            f"{name} must hold 36 numbers (row-major 6x6)")
    try:
        return np.array([float(x) for x in flat]).reshape(6, 6)
    except (TypeError, ValueError):
        raise MaterialFormatError(f"{name} must hold numbers") from None


def _coefficient(doc, key, matrix, default=0.0):
    if key not in doc:
        return np.zeros((6, 6)) if matrix else default
    return _as_matrix(doc[key], key) if matrix else _as_number(doc[key], key)


def _parse_modes(doc, matrix):
    raw = doc.get("modes", [])
    if not isinstance(raw, list):
        raise MaterialFormatError("modes must be a list")
    modes = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or set(entry) - {"rate", "weight"}:
            raise MaterialFormatError(
                f"mode {i} must be an object with 'rate' and 'weight'")
        rate = _as_number(entry.get("rate"), f"mode {i} rate")
        if matrix:
            weight = _as_matrix(entry.get("weight"), f"mode {i} weight")
        else:
            weight = _as_number(entry.get("weight"), f"mode {i} weight")
        modes.append((rate, weight))
    rates = sorted(r for r, _ in modes)
    if any(near_coincident(a, b) for a, b in zip(rates, rates[1:])):
        warnings.warn("near-coincident mode rates merged during "
                      "canonicalization", stacklevel=2)
    return modes


def parse_material(text):
    """Parse and validate a material document; returns a canonical kernel."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MaterialFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MaterialFormatError("material document must be an object")
    kind = doc.get("kind")
    if kind not in _FIELDS:
        raise MaterialFormatError("kind must be 'relaxation' or 'creep'")
    dimension = doc.get("dimension")
    if dimension not in ("scalar", "matrix6"):
        raise MaterialFormatError("dimension must be 'scalar' or 'matrix6'")
    matrix = dimension == "matrix6"
    modes = _parse_modes(doc, matrix)
    first, second = (_coefficient(doc, key, matrix) for key in _FIELDS[kind])
    return _CLASSES[kind, dimension].make(first, second, modes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _emit(value, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  "{k}": {_emit(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        # only floats take %.17g: bools and ints keep their JSON form
        if all(isinstance(v, float) for v in value):
            return "[" + ", ".join(["%.17g"] * len(value)) % tuple(value) + "]"
        items = [f"{pad}  {_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, float):
        return "%.17g" % value
    return json.dumps(value)


def serialize_material(kernel, metadata=None):
    """Deterministic JSON text for a canonical kernel."""
    dirac, constant, rates, weights = cbf_as_rational(kernel)

    def coef(value):
        return value.ravel().tolist() if value.ndim else float(value)

    kind = "relaxation" if kernel.relaxation else "creep"
    doc = {"kind": kind, "dimension": "matrix6" if dirac.ndim else "scalar"}
    if metadata:
        doc["metadata"] = dict(metadata)
    first, second = _FIELDS[kind]
    doc[first] = coef(dirac)
    doc[second] = coef(constant)
    doc["modes"] = [{"rate": rate, "weight": coef(weight)}
                    for rate, weight in zip(rates.tolist(), weights)]
    return _emit(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# CSV sampling
# ---------------------------------------------------------------------------

def csv_rows(block):
    """CSV lines of a 2-D float array's rows: one ``%.17g`` row format."""
    line = ",".join(["%.17g"] * block.shape[1])
    return [line % tuple(row) for row in block.tolist()]


def sample_to_csv(kernel, t_start, t_end, count, spacing="linear"):
    """Sample the kernel on a time grid and render a CSV table.

    Matrix kernels emit the 21 upper-triangle components as columns
    v11..v66; symmetry makes the rest redundant.
    """
    t_start, t_end = float(t_start), float(t_end)
    if count < 2:
        raise ValueError("count must be at least 2")
    if spacing == "log":
        if not 0.0 < t_start < t_end < np.inf:
            raise ValueError("log spacing requires 0 < t_start < t_end < inf")
        grid = np.geomspace(t_start, t_end, int(count))
    elif spacing == "linear":
        if not 0.0 <= t_start < t_end < np.inf:
            raise ValueError(
                "linear spacing requires 0 <= t_start < t_end < inf")
        grid = np.linspace(t_start, t_end, int(count))
    else:
        raise ValueError("spacing must be 'linear' or 'log'")

    if cbf_as_rational(kernel)[0].ndim:
        header = "t," + ",".join(f"v{i + 1}{j + 1}"
                                 for i, j in zip(_UPPER_ROWS, _UPPER_COLS))
        columns = (_UPPER_ROWS, _UPPER_COLS)
    else:
        header = "t,value"
        columns = ([0], [0])
    lines = [header]
    # a block's 6x6 values and the few temporaries of their sum fit in
    # BLOCK_ELEMENTS together
    step = BLOCK_ELEMENTS // (4 * 36)
    for lo in range(0, grid.size, step):
        times = grid[lo:lo + step]
        cells = kernel_values(kernel, times)[:, columns[0], columns[1]]
        lines += csv_rows(np.column_stack([times, cells]))
    return "\n".join(lines) + "\n"
