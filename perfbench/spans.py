"""Spans around the calls into each layer, installed from outside the program.

``Tracer.install`` replaces each listed function in every viscodual module
namespace that refers to it (which is where its callers look it up, since
the modules import names with ``from .x import y``), and classmethods and
methods on their class.  ``uninstall`` puts the originals back.  A name that
does not exist at the commit being measured is recorded as absent.

Spans carry an op id and their parent span; at the end of each top-level
operation its spans are folded into self time per layer (duration minus the
time covered by child spans), and the span list is cleared.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, defining module, attribute path)
TARGETS = [
    ("duality.dualize", "viscodual.duality", "dualize"),
    ("rational.build", "viscodual.rational", "cbf_as_rational"),
    ("rational.build", "viscodual.rational", "stieltjes_as_rational"),
    ("rational.build", "viscodual.rational", "cbf_image"),
    ("rational.roots", "viscodual.rational", "interlaced_roots"),
    ("rational.partial_fractions", "viscodual.rational",
     "stieltjes_partial_fractions"),
    ("rational.pencil", "viscodual.rational", "image_pencil_roots"),
    ("rational.decompose", "viscodual.rational", "decompose_inverse"),
    ("kernels.make", "viscodual.kernels", "ScalarRelaxation.make"),
    ("kernels.make", "viscodual.kernels", "ScalarCreep.make"),
    ("kernels.make", "viscodual.kernels", "MatrixRelaxation.make"),
    ("kernels.make", "viscodual.kernels", "MatrixCreep.make"),
    ("kernels.psd", "viscodual.kernels", "MatrixRelaxation.satisfies_positivity"),
    ("kernels.psd", "viscodual.kernels", "MatrixCreep.satisfies_positivity"),
    ("kernels.psd", "viscodual.kernels", "symmetric6"),
    ("kernels.psd", "viscodual.kernels", "eigmin"),
    ("kernels.psd", "viscodual.kernels", "psd_clip"),
    ("kernels.matrix_norm", "viscodual.kernels", "matrix_norm"),
    ("kernels.eval", "viscodual.kernels", "eval_relaxation"),
    ("kernels.eval", "viscodual.kernels", "eval_creep"),
    ("matio.parse", "viscodual.matio", "parse_material"),
    ("matio.serialize", "viscodual.matio", "serialize_material"),
    ("matio.sample", "viscodual.matio", "sample_to_csv"),
    ("verify.wellformed", "viscodual.verify", "check_wellformed"),
    ("verify.residual", "viscodual.verify", "duality_residual"),
    ("verify.limits", "viscodual.verify", "check_limit_identities"),
    ("verify.respond", "viscodual.verify", "respond"),
    ("verify.respond", "viscodual.verify", "respond_creep"),
    ("cli.run", "viscodual.cli", "run"),
]

LAYERS = sorted({layer for layer, _, _ in TARGETS})
DUALIZE = "duality.dualize"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.absent = []
        self._undo = []
        self._stack = []
        self._spans = []
        self._next_span = 0
        self.op = None
        self.self_s = {}       # (pass, layer) -> seconds of self time
        self.calls = {}        # (pass, layer) -> number of calls
        self.dualize_s = 0.0   # total duration of dualize spans
        self.below_dualize_s = 0.0   # self time of the layers they call

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "viscodual"
                                         or name.startswith("viscodual."))]
        self.absent = []
        for layer, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(name) if owner else None
            if raw is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(owner, type):
                self._patch_class(owner, name, raw, layer)
            else:
                wrapped = self._wrap(raw, layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, raw))

    def _patch_class(self, cls, name, raw, layer):
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(self._wrap(raw.__func__, layer)))
        else:
            setattr(cls, name, self._wrap(raw, layer))
        self._undo.append((cls, name, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
        return wrapper

    def open(self, layer):
        span = self._next_span
        self._next_span += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span)
        self._spans.append([self.op[1], span, parent, layer,
                            time.perf_counter(), None])
        return len(self._spans) - 1

    def close(self, index):
        self._spans[index][5] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, pass_name, op_id):
        self.op = (pass_name, op_id)
        self._spans = []
        self._stack = []
        self.enabled = True
        return self.open(f"bench.{pass_name}")

    def close_op(self, root):
        self.close(root)
        self.enabled = False

    def fold(self, factor):
        """Fold the op's spans into per-layer self time, scaled by ``factor``."""
        pass_name = self.op[0]
        duration = {s[1]: s[5] - s[4] for s in self._spans}
        child = dict.fromkeys(duration, 0.0)
        layer_of = {s[1]: s[3] for s in self._spans}
        parent_of = {s[1]: s[2] for s in self._spans}
        for s in self._spans:
            if s[2] is not None:
                child[s[2]] += duration[s[1]]
        for span, dur in duration.items():
            layer = layer_of[span]
            own = (dur - child[span]) * factor
            key = (pass_name, layer)
            self.self_s[key] = self.self_s.get(key, 0.0) + own
            self.calls[key] = self.calls.get(key, 0) + 1
            if layer == DUALIZE:
                self.dualize_s += dur * factor
            elif self._under_dualize(span, parent_of, layer_of):
                self.below_dualize_s += own
        self._spans = []

    @staticmethod
    def _under_dualize(span, parent_of, layer_of):
        span = parent_of[span]
        while span is not None:
            if layer_of[span] == DUALIZE:
                return True
            span = parent_of[span]
        return False
