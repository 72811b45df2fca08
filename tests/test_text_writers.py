"""The text writers against their one-number-at-a-time forms.

``sample_to_csv``, ``serialize_material`` and the ``respond`` command write
numbers with one ``%.17g`` per CSV row or JSON number list.  Their text must
equal, byte for byte, the per-number ``format(x, ".17g")`` rendering kept in
``loop_oracles`` (``sample_to_csv`` is held to it in
``test_stacked_time_axis``).
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from viscodual import (
    MatrixRelaxation,
    ScalarRelaxation,
    StrainHistory,
    dualize,
    parse_material,
    respond,
    serialize_material,
)
from viscodual.cli import run
from viscodual.matio import csv_rows

from kernel_corpus import random_gram, random_matrix_relaxation
from loop_oracles import (
    per_cell_respond_csv,
    per_cell_row,
    per_cell_serialize_material,
)

EDGE_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -np.inf, np.inf, np.nan, 0.1, 1e16,
                1e17, 123456789012345678.0, -1.0 / 3.0]


class TestRowRenderer:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=25))
    def test_row_equals_per_number_format(self, row):
        assert csv_rows(np.array([row])) == [per_cell_row(row)]

    def test_edge_numbers(self):
        block = np.array([EDGE_NUMBERS, EDGE_NUMBERS[::-1]])
        assert csv_rows(block) == [per_cell_row(r) for r in block.tolist()]
        assert csv_rows(np.array([[-0.0, 5e-324]])) \
            == ["-0,4.9406564584124654e-324"]


class TestGoldenText:
    def test_serialize_matrix_dual(self):
        k = random_matrix_relaxation(np.random.default_rng(1702))
        dual = dualize(k)
        assert dual.modes
        assert serialize_material(dual) == per_cell_serialize_material(dual)
        assert serialize_material(k) == per_cell_serialize_material(k)

    def test_respond_with_impulse_line(self, tmp_path, capsys):
        rng = np.random.default_rng(1703)
        k = MatrixRelaxation.make(
            newtonian=random_gram(rng, 6), equilibrium=random_gram(rng, 3),
            modes=[(0.5, random_gram(rng, 6)), (4.0, random_gram(rng, 2))])
        jump = rng.normal(size=6).tolist()
        breakpoints = [{"t": float(t), "value": rng.normal(size=6).tolist()}
                       for t in (0.0, 0.7, 1.9, 3.0)]
        kpath, hpath = tmp_path / "k.json", tmp_path / "h.json"
        kpath.write_text(serialize_material(k))
        hpath.write_text(json.dumps({"kind": "strain", "initial_jump": jump,
                                     "breakpoints": breakpoints}))
        assert run(["respond", str(kpath), str(hpath), "--n", "37"]) == 0
        lines = capsys.readouterr().out.split("\n")

        history = StrainHistory(tuple(p["t"] for p in breakpoints),
                                tuple(p["value"] for p in breakpoints),
                                initial_jump=jump)
        series = respond(parse_material(kpath.read_text()), history,
                         np.linspace(0.0, 3.0, 37))
        assert lines[0].startswith("# impulse,t=0,magnitude=[")
        assert lines[1] == "t," + ",".join(f"v{i + 1}" for i in range(6))
        assert lines[2:] == per_cell_respond_csv(series) + [""]


class TestMetadata:
    def test_metadata_round_trips(self):
        metadata = {"fitted": True, "tags": [True, False],
                    "n": 12345678901234567891, "count": 3, "label": "demo",
                    "weights": [0.5, 1.0 / 3.0], "mixed": [1, 2.5, None],
                    "nested": {"ok": False, "ids": [7, 8]}}
        k = ScalarRelaxation.make(0.0, 1.0, [(1.0, 1.0)])
        text = serialize_material(k, metadata)
        assert json.loads(text)["metadata"] == metadata
        assert '"fitted": true' in text
        assert '"n": 12345678901234567891' in text
        assert parse_material(text).equilibrium == 1.0
