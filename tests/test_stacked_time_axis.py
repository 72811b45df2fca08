"""The stacked time-axis code against its per-time-point loops.

``loop_oracles`` keeps one-time-at-a-time versions of the convolution, the
well-formedness samples and the CSV sampling.  Samples and CSV text must
match bit for bit; the convolution sums in another order and must match to
1e-12 of its term scale.
"""

import numpy as np
import pytest

import viscodual
from viscodual import (
    ScalarCreep,
    ScalarRelaxation,
    StrainHistory,
    check_wellformed,
    convolution_value,
    dualize,
    respond,
    sample_to_csv,
)
from viscodual.verify import _convolution_values

from kernel_corpus import (
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
)
from loop_oracles import (
    loop_check_wellformed,
    loop_convolution,
    loop_sample_to_csv,
)

REL_TERMS = 1e-12


def _corpus(rng, count):
    """Kernels of all four classes and their duals."""
    kernels = []
    for maker in (random_scalar_relaxation, random_scalar_creep,
                  random_matrix_relaxation, random_matrix_creep):
        for _ in range(count):
            k = maker(rng)
            kernels += [k, dualize(k)]
    return kernels


def _pairs(rng, count):
    """Dual pairs and unrelated pairs, scalar and 6x6, relaxation first."""
    pairs = []
    for relax, creep in ((random_scalar_relaxation, random_scalar_creep),
                         (random_matrix_relaxation, random_matrix_creep)):
        for _ in range(count):
            r = relax(rng)
            pairs += [(r, dualize(r)), (r, creep(rng))]
    return pairs


class TestConvolutionAgainstLoop:
    def test_grid_matches_pointwise_terms(self):
        rng = np.random.default_rng(901)
        for r, c in _pairs(rng, 8):
            rmax = max(max((x for x, _ in k.modes), default=1.0) for k in (r, c))
            times = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 25) / rmax])
            stacked = _convolution_values(r, c, times)
            for t, value in zip(times, stacked):
                want, size = loop_convolution(r, c, t)
                err = np.max(np.abs(value - np.reshape(want, value.shape)))
                assert err <= REL_TERMS * size, (t, err, size)

    def test_one_time_value_has_each_kind_shape(self):
        rng = np.random.default_rng(902)
        for r, c in _pairs(rng, 2):
            value = convolution_value(r, c, 0.7)
            want, size = loop_convolution(r, c, 0.7)
            assert np.shape(value) == np.shape(want)
            assert np.max(np.abs(value - want)) <= REL_TERMS * size

    def test_equal_and_nearly_equal_rates(self):
        r = ScalarRelaxation.make(equilibrium=0.5,
                                  modes=[(1.0, 1.0), (3.0, 2.0)])
        for shift in (0.0, 1e-11, 1e-7, 1e-3):
            c = ScalarCreep.make(instantaneous=1.0,
                                 modes=[(1.0 + shift, 0.5), (3.0, 0.25)])
            times = np.array([0.0, 1e-3, 0.5, 2.0, 50.0, 1e4])
            for t, value in zip(times, _convolution_values(r, c, times)):
                want, size = loop_convolution(r, c, t)
                assert abs(value[0, 0] - want) <= REL_TERMS * size

    def test_negative_time_rejected(self):
        r = ScalarRelaxation.make(equilibrium=1.0)
        with pytest.raises(ValueError):
            convolution_value(r, dualize(r), -1.0)


class TestRespondInput:
    def test_negative_time_rejected(self):
        k = ScalarRelaxation.make(equilibrium=1.0)
        history = StrainHistory((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            respond(k, history, [0.5, -0.1])


class TestBitIdentity:
    def test_wellformed_entries_match_pointwise_samples(self):
        rng = np.random.default_rng(906)
        for kernel in _corpus(rng, 6):
            assert check_wellformed(kernel).entries == \
                loop_check_wellformed(kernel).entries

    def test_sample_csv_matches_pointwise_text(self):
        rng = np.random.default_rng(907)
        for kernel in _corpus(rng, 2):
            rmax = max((r for r, _ in kernel.modes), default=1.0)
            for spacing, lo in (("linear", 0.0), ("log", 1e-3 / rmax)):
                grid = (np.geomspace if spacing == "log" else np.linspace)(
                    lo, 1e3 / rmax, 257)
                assert sample_to_csv(kernel, lo, 1e3 / rmax, 257, spacing) \
                    == loop_sample_to_csv(kernel, grid)


class TestGuards:
    def test_no_evaluation_per_time_point(self, monkeypatch):
        calls = []

        def counted(original):
            def wrapper(*args):
                calls.append(original.__name__)
                return original(*args)
            return wrapper

        for module in (viscodual.kernels, viscodual.verify, viscodual.matio):
            for name in ("eval_relaxation", "eval_creep"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(getattr(module, name)))
        rng = np.random.default_rng(908)
        relax, creep = random_matrix_relaxation(rng), random_scalar_creep(rng)
        check_wellformed(relax)
        check_wellformed(creep)
        sample_to_csv(relax, 0.0, 4.0, 300)
        sample_to_csv(creep, 0.0, 4.0, 300)
        assert calls == []
