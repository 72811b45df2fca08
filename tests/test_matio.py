import numpy as np
import pytest

from viscodual import (
    MaterialFormatError,
    MatrixCreep,
    ScalarCreep,
    ScalarRelaxation,
    eval_relaxation,
    parse_material,
    sample_to_csv,
    serialize_material,
)

from kernel_corpus import (
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
)


class TestParse:
    def test_scalar_relaxation(self):
        text = """
        {"kind": "relaxation", "dimension": "scalar",
         "dirac": 0.5, "equilibrium": 1.0,
         "modes": [{"rate": 2.0, "weight": 3.0}]}
        """
        k = parse_material(text)
        assert isinstance(k, ScalarRelaxation)
        assert k.newtonian == 0.5
        assert k.equilibrium == 1.0
        assert k.modes == ((2.0, 3.0),)

    def test_matrix_nested_and_flat_agree(self):
        eye_flat = [float(x) for x in np.eye(6).ravel()]
        eye_nested = [[float(x) for x in row] for row in np.eye(6)]
        base = ('{{"kind": "creep", "dimension": "matrix6", '
                '"instantaneous": {0}, "modes": []}}')
        k_flat = parse_material(base.format(eye_flat))
        k_nested = parse_material(base.format(eye_nested))
        assert isinstance(k_flat, MatrixCreep)
        np.testing.assert_array_equal(np.asarray(k_flat.instantaneous),
                                      np.asarray(k_nested.instantaneous))

    def test_missing_coefficients_default_to_zero(self):
        k = parse_material('{"kind": "creep", "dimension": "scalar",'
                           ' "modes": [{"rate": 1.0, "weight": 1.0}]}')
        assert k.instantaneous == 0.0
        assert k.fluidity == 0.0

    def test_invalid_json_rejected(self):
        with pytest.raises(MaterialFormatError):
            parse_material("{not json")

    def test_bad_kind_rejected(self):
        with pytest.raises(MaterialFormatError):
            parse_material('{"kind": "elastic", "dimension": "scalar"}')

    def test_bad_dimension_rejected(self):
        with pytest.raises(MaterialFormatError):
            parse_material('{"kind": "creep", "dimension": "tensor"}')

    def test_non_numeric_coefficient_rejected(self):
        with pytest.raises(MaterialFormatError):
            parse_material('{"kind": "creep", "dimension": "scalar",'
                           ' "instantaneous": "big"}')

    def test_boolean_is_not_a_number(self):
        with pytest.raises(MaterialFormatError):
            parse_material('{"kind": "creep", "dimension": "scalar",'
                           ' "instantaneous": true}')

    def test_mode_with_stray_key_rejected(self):
        with pytest.raises(MaterialFormatError):
            parse_material('{"kind": "creep", "dimension": "scalar",'
                           ' "modes": [{"rate": 1.0, "weight": 1.0,'
                           ' "color": 3}]}')

    def test_short_matrix_rejected(self):
        with pytest.raises(MaterialFormatError):
            parse_material('{"kind": "creep", "dimension": "matrix6",'
                           ' "instantaneous": [1.0, 2.0]}')

    def test_near_coincident_rates_warn(self):
        text = ('{"kind": "relaxation", "dimension": "scalar",'
                ' "modes": [{"rate": 1.0, "weight": 1.0},'
                ' {"rate": 1.0000000000000002, "weight": 1.0}]}')
        with pytest.warns(UserWarning):
            parse_material(text)


class TestSerialize:
    def test_round_trip_is_byte_stable(self):
        rng = np.random.default_rng(51)
        makers = [random_scalar_relaxation, random_scalar_creep,
                  random_matrix_relaxation, random_matrix_creep]
        for maker in makers:
            for _ in range(10):
                k = maker(rng)
                text = serialize_material(k)
                again = serialize_material(parse_material(text))
                assert text == again

    def test_serialization_is_deterministic(self):
        k = ScalarRelaxation.make(newtonian=1.0 / 3.0, equilibrium=0.1,
                                  modes=[(np.pi, np.e)])
        assert serialize_material(k) == serialize_material(k)

    def test_output_ends_with_newline(self):
        k = ScalarCreep.make(instantaneous=1.0)
        text = serialize_material(k)
        assert text.endswith("\n")
        assert not text.endswith("\n\n")

    def test_metadata_preserved_in_output(self):
        k = ScalarCreep.make(instantaneous=1.0)
        text = serialize_material(k, metadata={"label": "demo"})
        assert '"label": "demo"' in text
        # metadata does not change the parsed kernel
        assert parse_material(text).instantaneous == 1.0

    def test_canonical_key_order(self):
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        text = serialize_material(k)
        assert text.index('"kind"') < text.index('"dimension"') \
            < text.index('"dirac"') < text.index('"equilibrium"') \
            < text.index('"modes"')


class TestSampleToCsv:
    def test_scalar_header_and_rows(self):
        k = ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)])
        text = sample_to_csv(k, 0.0, 2.0, 3)
        lines = text.strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 4
        t0, v0 = (float(x) for x in lines[1].split(","))
        assert t0 == 0.0 and v0 == pytest.approx(2.0)

    def test_values_match_evaluation(self):
        k = ScalarRelaxation.make(equilibrium=0.5, modes=[(2.0, 1.5)])
        text = sample_to_csv(k, 0.1, 10.0, 5, spacing="log")
        for line in text.strip().split("\n")[1:]:
            t, v = (float(x) for x in line.split(","))
            assert v == pytest.approx(eval_relaxation(k, t), rel=1e-15)

    def test_matrix_upper_triangle_columns(self):
        rng = np.random.default_rng(52)
        k = random_matrix_creep(rng, n_max=1)
        text = sample_to_csv(k, 0.0, 1.0, 2)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == 22
        assert header[1] == "v11" and header[-1] == "v66"

    def test_log_spacing_requires_positive_start(self):
        k = ScalarCreep.make(instantaneous=1.0)
        with pytest.raises(ValueError):
            sample_to_csv(k, 0.0, 1.0, 5, spacing="log")

    def test_linear_allows_zero_start(self):
        k = ScalarCreep.make(instantaneous=1.0)
        assert sample_to_csv(k, 0.0, 1.0, 2).count("\n") == 3

    @pytest.mark.parametrize("start, end, spacing", [
        (0.0, np.inf, "linear"), (1.0, np.inf, "log"),
        (np.nan, 1.0, "linear"), (-np.inf, 1.0, "linear")])
    def test_non_finite_bounds_rejected(self, start, end, spacing):
        k = ScalarCreep.make(instantaneous=1.0)
        with pytest.raises(ValueError, match="t_end < inf"):
            sample_to_csv(k, start, end, 3, spacing=spacing)

    def test_count_and_spacing_validated(self):
        k = ScalarCreep.make(instantaneous=1.0)
        with pytest.raises(ValueError):
            sample_to_csv(k, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            sample_to_csv(k, 0.0, 1.0, 5, spacing="cubic")
