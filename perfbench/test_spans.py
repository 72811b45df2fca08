"""The tracer must wrap layers where callers look them up and undo it.

    python3 -m pytest perfbench/test_spans.py

Run from the root of a source checkout.
"""

import run  # sets the thread variables and the import path

run.sys.path.insert(0, run.SRC)
import viscodual  # noqa: E402
import viscodual.cli  # noqa: E402,F401
from spans import Tracer  # noqa: E402


def test_wrappers_replace_every_reference_and_are_removed():
    original = viscodual.rational.interlaced_roots
    make = viscodual.ScalarCreep.__dict__["make"]
    tracer = Tracer()
    tracer.install()
    try:
        assert viscodual.duality.interlaced_roots is not original
        assert viscodual.rational.interlaced_roots is not original
        assert viscodual.ScalarCreep.__dict__["make"] is not make
    finally:
        tracer.uninstall()
    assert viscodual.duality.interlaced_roots is original
    assert viscodual.rational.interlaced_roots is original
    assert viscodual.ScalarCreep.__dict__["make"] is make


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(viscodual.rational, "cbf_as_rational")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "viscodual.rational.cbf_as_rational" in tracer.absent


def test_spans_fold_into_self_time_below_dualize():
    kernel = viscodual.ScalarRelaxation.make(equilibrium=1.0,
                                             modes=[(1.0, 1.0), (10.0, 2.0)])
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin_op("convert", 1)
        viscodual.dualize(kernel)
        tracer.close_op(root)
        tracer.fold(1.0)
    finally:
        tracer.uninstall()
    assert tracer.calls[("convert", "duality.dualize")] == 1
    assert tracer.calls[("convert", "rational.roots")] == 1
    assert 0.0 < tracer.below_dualize_s <= tracer.dualize_s
    assert all(value >= 0.0 for value in tracer.self_s.values())
