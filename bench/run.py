"""Benchmark for the itype toolkit.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs one workload (census, lattice, decode or session; see
``workloads.py`` and BENCHMARK.json) in a closed loop: one caller, one
thread, each operation issued after the previous one returned and its
answer checked.  A pass is the workload's whole list of operations;
whole passes repeat while the next one is expected to end within
``--seconds``, and at least one runs.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics, its times scaled to a reference host speed (see
``host_time``).  With ``--trace 1`` the first half of the time runs
untraced, the second half with the per-layer tracer of ``tracer.py``
installed; the run reports the per-layer metrics, averaged per pass,
and the traced-minus-untraced scaled pass time as the tracing overhead.

Set-up (a fresh import of ``itype`` from ``src/`` next to this
directory, then building the workload's inputs from the seed) runs once
before the loop.  In an untraced run it is repeated between passes, up
to ``MAX_SETUP_ROUNDS`` times and taking at most a tenth of the run,
then topped up to ``SETUP_ROUNDS`` rounds; the median of all rounds is
reported.  The first round's inputs are the ones measured.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 on a completed run, 2 when the
program or the corpus cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from tracer import COMPUTED, Tracer  # noqa: E402
from workloads import WORKLOADS, load_manifest  # noqa: E402

SETUP_ROUNDS = 11
# host_time() on an uncontended core of the host the bounds were set on
HOST_REF_S = 0.0007
PROBE_EVERY_S = 0.1
MAX_SETUP_ROUNDS = 15
SHOWN_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

# Span groups of tracer.py whose calls / busy / self time are reported.
CALLS = [
    "core.perm_new",
    "core.compose_perm",
    "ybr.axioms",
    "ybr.canonical_form",
    "istructure.build",
    "istructure.decode",
    "structuremaps.phi",
    "bieberbach.compose",
    "cli.main",
]
TIMED = [
    "core.compose_perm",
    "presentation.parse",
    "presentation.star",
    "ybr.axioms",
    "ybr.orbits",
    "ybr.enumerate",
    "ybr.canonical_form",
    "istructure.build",
    "istructure.decode",
    "istructure.encode",
    "structuremaps.kernel",
    "structuremaps.cosets",
    "structuremaps.cocycle",
    "bieberbach.convention",
    "bieberbach.consistency",
    "bieberbach.freeness",
    "bieberbach.tiling",
    "cli.main",
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {f"{g}.calls": "count" for g in CALLS}
    for g in TIMED:
        units[f"{g}.busy_s"] = "s"
        units[f"{g}.self_s"] = "s"
    units.update(
        {
            "ybr.enumerate.candidates": "count",
            "ybr.enumerate.solutions": "count",
            "ybr.enumerate.yield": "ratio",
            "istructure.build.rows": "count",
            "istructure.build.rows_per_s": "1/s",
            "istructure.decode.letters_per_s": "1/s",
            "istructure.bound_errors": "count",
            "bieberbach.freeness.words": "count",
            "bieberbach.freeness.isometries": "count",
            "bieberbach.freeness.distinct_ratio": "ratio",
            "bieberbach.tiling.elements": "count",
            "trace.untraced_pass_s": "s",
            "trace.traced_pass_s": "s",
            "trace.overhead_s": "s",
        }
    )
    for name in COMPUTED:
        units[name] = "count-computed"
    return units


def import_program():
    """A fresh import of the itype package from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "itype" or m.startswith("itype.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    itype = importlib.import_module("itype")
    importlib.import_module("itype.cli")
    if SRC.resolve() not in Path(itype.__file__).resolve().parents:
        raise ImportError(f"itype was imported from {itype.__file__}, not from {SRC}")
    return itype


class Loop:
    """Closed-loop passes over a workload's operations.

    Each pass records its time, the time spent inside its operations and
    their p50 and p90 latency; the run reports medians over passes, which
    move less with a few slowed passes than percentiles pooled over every
    operation of the run.  While passes run, a timer signal every
    ``PROBE_EVERY_S`` records ``host_time()`` into ``probes``, in the
    middle of an operation too; the probes' own time is left out of the
    pass and operation times."""

    def __init__(self, ops, probes: list[float]):
        self.ops = ops
        self.probes = probes
        self.probing_s = 0.0
        self.raw_pass_s: list[float] = []
        self.pass_s: list[float] = []
        self.busy_s: list[float] = []
        self.p50_s: list[float] = []
        self.p90_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def probe(self, *_signal) -> None:
        t0 = perf_counter()
        self.probes.append(host_time())
        self.probing_s += perf_counter() - t0

    def run(self, seconds: float, between=None, every: float = 0.0) -> None:
        """Whole passes while the next one, taking as long as the last,
        still ends within ``seconds``; at least one.  ``between``, if
        given, is called after a pass once every ``every`` seconds,
        outside the pass times and with the probe timer stopped."""
        deadline = perf_counter() + seconds
        due = perf_counter() + every
        passes = 0
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            while not passes or perf_counter() + self.raw_pass_s[-1] <= deadline:
                passes += 1
                latencies = []
                windows = []
                probed_before = self.probing_s
                start = perf_counter()
                for op in self.ops:
                    self.attempted += 1
                    # A probe between reading the clock and the probe
                    # total lengthens this sample; it never shortens one.
                    k0 = len(self.probes)
                    t0 = perf_counter()
                    p0 = self.probing_s
                    try:
                        result = op.run()
                    except Exception as exc:  # an unexpected raise fails the op
                        result, error = None, exc
                    else:
                        error = None
                    probed_op = self.probing_s - p0
                    latencies.append(perf_counter() - t0 - probed_op)
                    windows.append((k0 - 1, len(self.probes) + 1))
                    if error is not None:
                        self.fail(f"{op.kind} raised {type(error).__name__}: {error}")
                        continue
                    reason = op.check(result)
                    if reason is not None:
                        self.fail(f"{op.kind}: {reason}")
                probed = self.probing_s - probed_before
                self.raw_pass_s.append(perf_counter() - start - probed)
                self.probe()
                # The host's speed over an operation: the last probe
                # before it, those during it and the first after it.
                scales = {
                    w: statistics.fmean(HOST_REF_S / p for p in self.probes[w[0] : w[1]])
                    for w in set(windows)
                }
                busy = sum(latencies)
                latencies = [t * scales[w] for t, w in zip(latencies, windows)]
                self.busy_s.append(sum(latencies))
                self.pass_s.append(self.raw_pass_s[-1] * self.busy_s[-1] / busy)
                self.p50_s.append(quantile(latencies, 0.50))
                self.p90_s.append(quantile(latencies, 0.90))
                if between is not None and perf_counter() >= due:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    between()
                    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
                    due += every
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append(reason)


def host_time() -> float:
    """Seconds that a fixed piece of pure-Python work takes right now.

    The host this benchmark runs on may be shared: the same code can run
    up to twice as slowly, in phases of under a second to minutes.  Each
    operation's time is multiplied by the mean of ``HOST_REF_S`` over
    each probe from the last one before it to the first one after it, a
    pass's by the same factor as the sum of its operations, and each
    set-up round's by ``HOST_REF_S`` over the mean of the probes on
    either side.  The end-to-end metrics thus read as seconds on a host
    where the probe takes ``HOST_REF_S``; raw times are printed as
    well."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        table = {}
        for i in range(5000):
            table[i % 97] = (i, i * 3 % 11)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(loop: Loop, setup_s: list[float], peak_mib: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(loop.pass_s),
        "ops_per_s": statistics.median(len(loop.ops) / busy for busy in loop.busy_s),
        "op_p50_ms": 1e3 * statistics.median(loop.p50_s),
        "op_p90_ms": 1e3 * statistics.median(loop.p90_s),
        "peak_rss_mib": peak_mib,
    }


def per_layer(tr: Tracer, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics per traced pass, and the tracing overhead from
    the scaled times of the untraced and traced passes."""
    passes = len(traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    g = tr.group
    c = tr.counts
    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = g(name).calls / passes
    for name in TIMED:
        out[f"{name}.busy_s"] = g(name).busy_s / passes
        out[f"{name}.self_s"] = g(name).self_s / passes
    for name in (
        "ybr.enumerate.candidates",
        "ybr.enumerate.solutions",
        "istructure.build.rows",
        "bieberbach.freeness.words",
        "bieberbach.freeness.isometries",
        "bieberbach.tiling.elements",
    ):
        out[name] = c[name] / passes
    out["ybr.enumerate.yield"] = ratio(c["ybr.enumerate.solutions"], c["ybr.enumerate.candidates"])
    out["istructure.build.rows_per_s"] = ratio(
        c["istructure.build.rows"], g("istructure.build").busy_s
    )
    out["istructure.decode.letters_per_s"] = ratio(
        c["istructure.decode.letters"], g("istructure.decode").busy_s
    )
    out["istructure.bound_errors"] = sum(
        g(name).errors.get("DegreeBoundError", 0) for name in ("istructure.decode", "istructure.encode")
    ) / passes
    out["bieberbach.freeness.distinct_ratio"] = ratio(
        c["bieberbach.freeness.isometries"], c["bieberbach.freeness.words"]
    )
    out["trace.untraced_pass_s"] = statistics.median(untraced)
    out["trace.traced_pass_s"] = statistics.median(traced)
    out["trace.overhead_s"] = out["trace.traced_pass_s"] - out["trace.untraced_pass_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s: list[float] = []
    raw_setup_s: list[float] = []
    probes: list[float] = []

    def set_up():
        before = host_time()
        t0 = perf_counter()
        workload = WORKLOADS[args.workload](import_program(), random.Random(args.seed), manifest)
        raw_setup_s.append(perf_counter() - t0)
        probes.append(host_time())
        setup_s.append(raw_setup_s[-1] * HOST_REF_S / ((before + probes[-1]) / 2))
        return workload

    try:
        manifest = load_manifest()
        workload = set_up()
    except (ImportError, OSError) as exc:
        print(f"bench: cannot load the program or its corpus: {exc}", file=sys.stderr)
        return 2

    # Objects made during set-up live for the whole run: keep them out of
    # the garbage collector's full passes, whose cost would otherwise
    # depend on how much set-up the workload did.
    gc.collect()
    gc.freeze()
    loop = Loop(workload.ops, probes)
    if args.trace:
        loop.run(args.seconds / 2)
        untraced = len(loop.pass_s)
        with Tracer() as tr:
            loop.run(args.seconds / 2)
        metrics = per_layer(tr, loop.pass_s[:untraced], loop.pass_s[untraced:])
        units = per_layer_units()
        for name in tr.dropped:
            print(f"dropped span: {name} (not found)")
        for name, n in tr.hook_failures.items():
            print(f"dropped counts: {name} ({n} hook failures)")
    else:
        # The host's speed changes over seconds, so the set-up rounds are
        # spread over the run rather than taken back to back.  Each round
        # imports itype afresh; the loop keeps using the first round's.
        # The peak memory is read before the first extra round, which
        # holds a second copy of the package and the workload.
        peak: list[float] = []

        def extra_round():
            if not peak:
                peak.append(peak_rss_mib())
            set_up()
            gc.collect()

        # At most one round per pass, and at most a tenth of the run.
        every = max(args.seconds / MAX_SETUP_ROUNDS, 10 * raw_setup_s[0])
        loop.run(args.seconds, extra_round, every)
        while len(setup_s) < SETUP_ROUNDS:
            extra_round()
        metrics = end_to_end(loop, setup_s, peak[0])
        units = END_TO_END

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"passes: {len(loop.pass_s)}  ops per pass: {len(workload.ops)}")
    print("raw pass s: " + " ".join(f"{t:.4f}" for t in loop.raw_pass_s))
    print("scaled pass s: " + " ".join(f"{t:.4f}" for t in loop.pass_s))
    print("raw setup s: " + " ".join(f"{t:.4f}" for t in raw_setup_s))
    print(f"host probe: median {statistics.median(probes) * 1e3:.4f} ms of {len(probes)}")
    n = len(workload.ops)
    print(f"op latency samples per pass: {n} ({n // 10} beyond p90), medians over passes")
    print(f"failed_frac: {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted})")
    for reason in loop.failures:
        print(f"failure: {reason}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
