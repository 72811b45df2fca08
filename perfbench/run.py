"""viscodual benchmark: one closed-loop caller, one thread, seeded corpora.

    python3 perfbench/run.py --workload scalar-fits --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation starts after the previous one returns.  Five
passes share the run's time in fixed proportions per workload:

    convert   viscodual.dualize on a parsed kernel
    check     check_wellformed x2 + duality_residual + check_limit_identities
    cli       viscodual.cli.run(["dualize", ...]) then run(["check", ..., "--against", ...])
    respond   viscodual.cli.run(["respond", ...])
    sample    viscodual.cli.run(["sample", ...])

Every output is checked by gate.py, outside the timed region.  Each timing
is divided by calibration loops, run right before and after the operation,
that use no viscodual code (see ``Calibrator``); the raw figures are printed
beside them.  With ``--trace 1``
the run alternates untraced and traced phases and reports per-layer self
time (spans.py) and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, and the details of the run.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread, so the figures measure one caller.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import gate  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# Share of measured time given to each pass.  Each workload leans on the
# layers it was chosen for; every pass runs so every metric is measured.
SHARES = {
    "scalar-fits": {"convert": 0.30, "check": 0.20, "cli": 0.30,
                    "respond": 0.10, "sample": 0.10},
    "aniso-6x6": {"convert": 0.44, "check": 0.26, "cli": 0.22,
                  "respond": 0.04, "sample": 0.04},
    "wide-spectrum": {"convert": 0.40, "check": 0.20, "cli": 0.30,
                      "respond": 0.05, "sample": 0.05},
    "time-axis": {"convert": 0.18, "check": 0.08, "cli": 0.10,
                  "respond": 0.40, "sample": 0.24},
    "unscreened": {"convert": 0.40, "check": 0.20, "cli": 0.30,
                    "respond": 0.05, "sample": 0.05},
}

SETUP_REPEATS = 7
TAIL_BLOCKS = 3
TRACE_PHASE_S = 1.0
# Calibration time of the reference host; adjusted timings read as if the
# calibration loop took this long.
CALIBRATION_REFERENCE_S = 0.2e-3

E2E_UNITS = {
    "setup_s": "s", "convert_per_s": "1/s", "dualize_ms_p50": "ms",
    "dualize_ms_p99": "ms", "check_ms_p50": "ms", "cli_files_per_s": "1/s",
    "respond_samples_per_s": "1/s", "sample_points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Calibrator:
    """Calibration loops that use no viscodual code.

    On a shared host the speed of the machine drifts between and within
    processes.  Two loops run right before and right after every timed
    operation: small ``eigvalsh`` calls with numpy scalar functions and
    pure-Python arithmetic (what the scalar path is made of), and a 24x24
    generalized eigensolve (what the 6x6 pencil is made of).  The
    operation's time is divided by the geometric mean of the two loops'
    times, averaged over before and after, which cancels most of the drift
    for either kind of work.  A change to the program cannot move the loops.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = [(lambda x: x @ x.T)(rng.normal(size=(6, 6))) for _ in range(8)]
        self.pencil = (rng.normal(size=(24, 24)),
                       np.eye(24) + 0.1 * rng.normal(size=(24, 24)))
        self.values = []
        for _ in range(20):
            self.once()
        self.values = []

    def once(self):
        start = time.perf_counter()
        for m in self.small:
            np.linalg.eigvalsh(m)
        total = 0.0
        for i in range(150):
            x = i * 0.01
            total += float(np.exp(-x)) + float(-np.expm1(-x)) + abs(x - 0.5) * 0.5
        middle = time.perf_counter()
        scipy.linalg.eigvals(*self.pencil)
        elapsed = np.sqrt((middle - start) * (time.perf_counter() - middle))
        self.values.append(elapsed)
        return elapsed

    @staticmethod
    def factor(before, after):
        return CALIBRATION_REFERENCE_S / (0.5 * (before + after))


class Pass:
    """One kind of operation, its items, its samples and its outcome counts."""

    def __init__(self, name, items, share):
        self.name = name
        self.items = items
        self.share = share
        self.next = 0
        self.busy = 0.0
        self.samples = {True: [], False: []}   # traced? -> (cls, adjusted s, raw s, units)
        self.attempted = 0
        self.raised = 0   # raised, exited nonzero, or rejected a right answer
        self.wrong = 0    # returned success with a wrong answer
        self.errors = {}
        self.weights = {}
        for item in items:
            self.weights[item["cls"]] = self.weights.get(item["cls"], 0.0) + 1.0 / len(items)

    def take(self):
        item = self.items[self.next % len(self.items)]
        self.next += 1
        return item

    def record(self, item, raw, factor, units, outcome, traced):
        self.busy += raw
        self.attempted += 1
        if outcome == "failed":
            self.raised += 1
        elif outcome == "wrong":
            self.wrong += 1
        self.samples[traced].append(
            (item["cls"], raw * factor, raw, units if outcome == "ok" else 0))

    @property
    def failed(self):
        return self.raised + self.wrong

    def count(self, traced=False):
        return len(self.samples[traced])

    # Timings are weighted by stratum: a sample of class c counts w_c / n_c,
    # where w_c is the share of class c in the corpus and n_c the number of
    # samples of class c measured.  Classes not reached are left out.

    def _strata(self, samples):
        groups = {}
        for sample in samples:
            groups.setdefault(sample[0], []).append(sample)
        total = sum(self.weights[c] for c in groups)
        return groups, {c: self.weights[c] / total for c in groups}

    def rate(self, column=1):
        """Units per second of measured time (passing operations only)."""
        groups, w = self._strata(self.samples[False])
        if not groups:
            return 0.0
        units = sum(w[c] * np.mean([s[3] for s in g]) for c, g in groups.items())
        seconds = sum(w[c] * np.mean([s[column] for s in g]) for c, g in groups.items())
        return units / seconds

    def paired_means(self):
        """Weighted mean operation time, traced and untraced, over the strata
        measured both ways."""
        traced, _ = self._strata(self.samples[True])
        untraced, _ = self._strata(self.samples[False])
        both = set(traced) & set(untraced)
        total = sum(self.weights[c] for c in both)
        return tuple(sum(self.weights[c] / total * np.mean([s[1] for s in groups[c]])
                         for c in both)
                     for groups in (traced, untraced))

    def quantile_ms(self, q, column=1, blocks=1):
        """Stratum-weighted quantile; with ``blocks``, the median of the
        quantiles of that many consecutive stretches of the run, so that one
        burst of load on the host moves a tail quantile no more than the
        median."""
        samples = self.samples[False]
        if not samples:
            return 0.0
        bounds = np.linspace(0, len(samples), blocks + 1).astype(int)
        values = []
        for lo, hi in zip(bounds, bounds[1:]):
            groups, w = self._strata(samples[lo:hi])
            pairs = sorted((s[column], w[c] / len(g)) for c, g in groups.items() for s in g)
            cumulative = np.cumsum([p[1] for p in pairs])
            index = int(np.searchsorted(cumulative, q * cumulative[-1]))
            values.append(pairs[min(index, len(pairs) - 1)][0])
        return 1e3 * statistics.median(values)


def check_pair(vd, doc, kernel, dual):
    """The verdict of `viscodual check KERNEL --against DUAL`, in process."""
    relax, creep = (kernel, dual) if doc["kind"] == "relaxation" else (dual, kernel)
    verify = vd.verify
    verdict = verify.check_wellformed(kernel).ok and verify.check_wellformed(dual).ok
    verdict = verify.duality_residual(relax, creep) <= gate.DUAL_TOL[doc["dimension"]] \
        and verdict
    return verify.check_limit_identities(relax, creep).ok and verdict


class Bench:
    def __init__(self, workload, seed, tracing):
        import viscodual
        import viscodual.cli
        self.vd = viscodual
        self.tracing = tracing
        self.tracer = Tracer()
        self.traced = False
        self.calibrator = Calibrator()
        self.factor = 1.0
        self.op_id = 0
        self.poles_found = self.poles_expected = 0
        self.duals = {}
        self.data = corpus.generate(workload, seed)
        self.digest = corpus.digest(self.data)
        self.work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            shares = SHARES[workload]
            self.materials = self._prepare_materials()
            self.passes = {
                "convert": Pass("convert", self.materials, shares["convert"]),
                "check": Pass("check", self.materials, shares["check"]),
                "cli": Pass("cli", self.materials, shares["cli"]),
                "respond": Pass("respond", self._prepare("respond"), shares["respond"]),
                "sample": Pass("sample", self._prepare("sample"), shares["sample"]),
            }
        except BaseException:
            shutil.rmtree(self.work, ignore_errors=True)
            raise

    def close(self):
        self.tracer.uninstall()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- inputs --------------------------------------------------------------

    def _write(self, name, payload):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def _prepare_materials(self):
        out = []
        for i, item in enumerate(self.data["materials"]):
            text = json.dumps(item["doc"])
            out.append(dict(item, index=i,
                            kernel=self.vd.parse_material(text),
                            path=self._write(f"m{i}.json", item["doc"]),
                            dual_path=os.path.join(self.work, f"d{i}.json")))
        return out

    def _prepare(self, kind):
        out = []
        for j, item in enumerate(self.data[kind]):
            entry = dict(item, kernel_path=self._write(f"{kind}{j}.json", item["kernel"]),
                         out_path=os.path.join(self.work, f"{kind}{j}.csv"))
            if kind == "respond":
                entry["history_path"] = self._write(f"h{j}.json", item["history"])
            out.append(entry)
        return out

    # -- timing ----------------------------------------------------------------

    def _start(self, pass_name):
        before = self.calibrator.once()
        self.op_id += 1
        root = self.tracer.begin_op(pass_name, self.op_id) if self.traced else None
        return root, before, time.perf_counter()

    def _stop(self, started):
        """Seconds since ``_start``; sets ``self.factor`` for the operation."""
        raw = time.perf_counter() - started[2]
        root, before = started[:2]
        if root is not None:
            self.tracer.close_op(root)
        self.factor = Calibrator.factor(before, self.calibrator.once())
        if root is not None:
            self.tracer.fold(self.factor)
        return raw

    def _cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.vd.cli.run(argv)

    # -- passes ------------------------------------------------------------------

    def _keep(self, item, dual):
        """Gate a dual and keep it for the check pass; returns its mode count."""
        try:
            text = self.vd.serialize_material(dual)
        except Exception:   # a dual the program cannot write is a wrong answer
            text = ""
        self.duals[item["index"]] = (dual, gate.dual_ok(item["doc"], text))
        return gate.mode_count(text)

    def convert(self, item):
        started = self._start("convert")
        try:
            dual = self.vd.dualize(item["kernel"])
        except Exception as exc:   # every failure mode is counted, none aborts
            raw = self._stop(started)
            errors = self.passes["convert"].errors
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            return raw, 0, "failed"
        raw = self._stop(started)
        found = self._keep(item, dual)
        doc = item["doc"]
        if doc["dimension"] == "scalar":
            first, second = corpus.SCALAR_CONSTANTS[doc["kind"]]
            self.poles_expected += (len(doc["modes"]) - (doc[second] == 0.0)
                                    + (doc[first] > 0.0))
            self.poles_found += found
        return raw, 1, "ok" if self.duals[item["index"]][1] else "wrong"

    def _dual(self, item):
        """The dual the convert pass made for ``item``, made untimed if it has not."""
        if item["index"] not in self.duals:
            try:
                self._keep(item, self.vd.dualize(item["kernel"]))
            except Exception:   # the convert pass counts this failure
                self.duals[item["index"]] = (None, False)
        return self.duals[item["index"]]

    def check(self, item):
        dual, right = self._dual(item)
        if dual is None:
            return None
        started = self._start("check")
        try:
            verdict = check_pair(self.vd, item["doc"], item["kernel"], dual)
        except Exception:
            return self._stop(started), 0, "failed"
        raw = self._stop(started)
        if verdict and not right:
            return raw, 1, "wrong"
        return raw, 1, "ok" if verdict == right else "failed"

    def cli(self, item):
        started = self._start("cli")
        code = self._cli(["dualize", item["path"], "-o", item["dual_path"]])
        verdict = self._cli(["check", item["path"], "--against", item["dual_path"]]) \
            if code == 0 else None
        raw = self._stop(started)
        if code != 0:
            return raw, 0, "failed"
        with open(item["dual_path"], encoding="utf-8") as handle:
            right = gate.dual_ok(item["doc"], handle.read())
        if not right:
            return raw, 1, "wrong"
        return raw, 1, "ok" if verdict == 0 else "failed"

    def respond(self, item):
        argv = ["respond", item["kernel_path"], item["history_path"],
                "--n", str(item["rows"]), "-o", item["out_path"]]
        started = self._start("respond")
        code = self._cli(argv)
        raw = self._stop(started)
        if code != 0:
            return raw, 0, "failed"
        n, c = item["rows"], self.passes["respond"].attempted
        rows = [(31 * c + 1) % n, (17 * c + n // 2) % n, n - 1]
        with open(item["out_path"], encoding="utf-8") as handle:
            error = gate.respond_error(item, handle.read(), rows)
        return raw, n, "ok" if error <= gate.RESPOND_TOL else "wrong"

    def sample(self, item):
        argv = ["sample", item["kernel_path"], "--t0", repr(item["t0"]),
                "--t1", repr(item["t1"]), "--n", str(item["rows"]),
                "-o", item["out_path"]] + (["--log"] if item["log"] else [])
        started = self._start("sample")
        code = self._cli(argv)
        raw = self._stop(started)
        if code != 0:
            return raw, 0, "failed"
        with open(item["out_path"], encoding="utf-8") as handle:
            error = gate.sample_error(item, handle.read())
        return raw, item["rows"], "ok" if error <= gate.SAMPLE_TOL else "wrong"

    def step(self, name, record=True):
        p = self.passes[name]
        item = p.take()
        result = getattr(self, name)(item)
        if result is None:   # nothing to check: the conversion raised
            return
        raw, units, outcome = result
        if record:
            p.record(item, raw, self.factor, units, outcome, self.traced)

    def warm_up(self):
        """One unrecorded operation per pass: lazy imports and caches fill."""
        for name in ("convert", "check", "cli", "respond", "sample"):
            self.step(name, record=False)
        for p in self.passes.values():
            p.next = 0

    def measure(self, seconds):
        start = time.perf_counter()
        phase_end = start + TRACE_PHASE_S
        while True:
            now = time.perf_counter()
            if now - start >= seconds:
                break
            if self.tracing and now >= phase_end:
                self.traced = not self.traced
                if self.traced:
                    self.tracer.install()
                else:
                    self.tracer.uninstall()
                phase_end = now + TRACE_PHASE_S
            self.step(min(self.passes.values(), key=lambda p: p.busy / p.share).name)
        self.tracer.uninstall()
        self.traced = False


def measure_setup(calibrator):
    """Fresh interpreters importing viscodual.cli: what every CLI call pays."""
    code = ("import time; t = time.perf_counter(); import viscodual.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    walls, imports, factors = [], [], []
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                   capture_output=True, timeout=120, check=True)   # warm the file cache
    for _ in range(SETUP_REPEATS):
        before = calibrator.once()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        walls.append(time.perf_counter() - start)
        factors.append(Calibrator.factor(before, calibrator.once()))
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    return {"wall_raw": walls, "import_raw": imports,
            "setup_s": statistics.median(w * f for w, f in zip(walls, factors)),
            "import_s": statistics.median(i * f for i, f in zip(imports, factors))}


def host_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (TypeError, KeyError):   # the config layout differs between numpy versions
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "machine": platform.machine()}


def timings(passes, column):
    """The timed end-to-end metrics: column 1 adjusted for host speed, 2 raw."""
    convert = passes["convert"]
    return {
        "convert_per_s": convert.rate(column),
        "dualize_ms_p50": convert.quantile_ms(0.50, column),
        "dualize_ms_p99": convert.quantile_ms(0.99, column, blocks=TAIL_BLOCKS),
        "check_ms_p50": passes["check"].quantile_ms(0.50, column),
        "cli_files_per_s": passes["cli"].rate(column),
        "respond_samples_per_s": passes["respond"].rate(column),
        "sample_points_per_s": passes["sample"].rate(column),
    }


def end_to_end(bench, setup):
    return {"setup_s": setup["setup_s"], **timings(bench.passes, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(bench, setup):
    """Self time per layer in ms per round (one traced operation of each pass)."""
    tracer, passes = bench.tracer, bench.passes
    ops = {name: p.count(traced=True) for name, p in passes.items()}

    def per_round(table, layer, scale):
        return sum(scale * value / ops[name] for (name, lay), value in table.items()
                   if lay == layer and ops.get(name))

    out = {"cli.import_s": setup["import_s"]}
    for layer in LAYERS:
        out[f"{layer}_ms"] = per_round(tracer.self_s, layer, 1e3)
    out["duality.dualize_self_ms"] = out.pop("duality.dualize_ms")
    out["cli.run_self_ms"] = out.pop("cli.run_ms")
    out["kernels.matrix_norm_calls"] = per_round(tracer.calls, "kernels.matrix_norm", 1)
    out["kernels.eval_calls"] = per_round(tracer.calls, "kernels.eval", 1)
    traced = untraced = 0.0
    for p in passes.values():
        traced_s, untraced_s = p.paired_means()
        traced += traced_s
        untraced += untraced_s
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    out["trace.dualize_coverage_pct"] = (100.0 * tracer.below_dualize_s / tracer.dualize_s
                                         if tracer.dualize_s else 0.0)
    out["rational.poles_found"] = bench.poles_found
    out["rational.poles_expected"] = bench.poles_expected
    out["gate.attempted"] = sum(p.attempted for p in passes.values())
    out["gate.raised"] = sum(p.raised for p in passes.values())
    out["gate.wrong"] = sum(p.wrong for p in passes.values())
    return out


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def run_one(args):
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        bench.warm_up()
        setup = measure_setup(bench.calibrator)
        bench.measure(args.seconds)
        metrics = end_to_end(bench, setup)
        layers = per_layer(bench, setup) if args.trace else None
    finally:
        bench.close()

    passes = bench.passes.values()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {E2E_UNITS[name]}")
    print(f"{'fail_frac':28s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(f"{'wrong_frac':28s} {wrong / attempted:14.6g} ratio ({wrong}/{attempted})")
    if layers:
        for name, value in layers.items():
            print(f"{name:28s} {value:14.6g} {layer_unit(name)}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": bench.digest, "host": host_facts(),
        "calibration_s": {"median": statistics.median(bench.calibrator.values),
                          "min": min(bench.calibrator.values),
                          "max": max(bench.calibrator.values),
                          "count": len(bench.calibrator.values),
                          "reference": CALIBRATION_REFERENCE_S},
        "raw": dict(timings(bench.passes, 2), setup_wall_s=setup["wall_raw"],
                    import_s=setup["import_raw"]),
        "samples": {p.name: p.count() for p in passes},
        "dualize_samples_beyond_p99": int(sum(
            1e3 * s[1] > metrics["dualize_ms_p99"] for s in bench.passes["convert"].samples[False])),
        "traced_samples": {p.name: p.count(True) for p in passes},
        "outcomes": {p.name: {"attempted": p.attempted, "failed": p.raised,
                              "wrong": p.wrong, "errors": p.errors} for p in passes},
        "absent": bench.tracer.absent,
    }
    print(json.dumps({"detail": detail}))
    wanted = layers if args.trace else metrics
    units = {k: layer_unit(k) for k in wanted} if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in wanted.items()},
    }))
    return 0


def run_all(args):
    status = 0
    for workload in corpus.WORKLOADS:
        print(f"== {workload}", flush=True)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(corpus.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "viscodual", "__init__.py")):
        print(f"error: no viscodual sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
