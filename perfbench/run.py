"""primesplit benchmark: seeded query corpora replayed through the CLI in process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload poly-route --seed 1 --seconds 20 --trace 0

The loop is closed, with one client, one process and no threads: each
query is one ``primesplit.cli.main(["--json", ...])`` call, timed alone,
and the next starts when it returns; consecutive queries take the
allowed CPUs in turn.  The corpus is replayed in whole
passes until the timed total reaches ``--seconds``.  Every answer is
verified outside the timed region (perfbench/verify.py); a query that
raises, exits nonzero or fails verification counts as failed.  Once per
invocation ``paper-examples --json`` must match perfbench/golden byte for
byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with no tracer installed.  With ``--trace 1`` untraced and
traced passes alternate and the line carries the per-layer metrics of
the traced passes (perfbench/tracer.py), per pass and per query, plus
the tracing overhead.  The line before it is a report with sample
counts, input-property shares and failure reasons; the same report and
the spans are written under perfbench/out/.
"""

import argparse
import importlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import corpus, tracer, verify  # noqa: E402

SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
GOLDEN = os.path.join(BENCH_DIR, "golden", "paper_examples.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# even, so the median averages the two middle set-ups, which ran on different CPUs
SETUP_REPEATS = 6
MEASURE_WALL_CAP_S = 120  # no new pass starts after this much wall time

# one fixed, cheap query per workload, run untimed at the end of each set-up
WARMUP = {
    "poly-route": ("split-prime", "t^3 - t^2 - 2*t - 8", "7"),
    "order-route": ("split-prime", "t^3 - t^2 - 2*t - 8", "2"),
    "forms": ("index-form", "t^3 - t^2 - 2*t - 8", "--divisor", "2"),
}

# name, unit, better, bound.  Timings get the widest allowed bound: on a
# shared two-core VM the same corpus reads up to 20-30% apart between
# runs minutes apart, with the CPU itself running slower (CPU time tracks
# wall time), so a tighter bound would flag noise as regressions.
END_TO_END = (
    ("throughput_qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# function metrics: ".calls" counts calls, ".self_s" sums self time, ".s" sums
# the inclusive time of outermost calls
FUNCTION_METRICS = (
    "orders.charpoly_matrix.calls",
    "orders.charpoly_matrix.self_s",
    "orders.p_enlarge.calls",
    "ideals.factor_p_in_order.s",
    "ideals.hnf.calls",
    "fppoly.fp_factor.calls",
    "fppoly.fp_powmod.calls",
    "criteria.index_divisible.self_s",
    "zpoly.discriminant.s",
    "zpoly.bareiss_determinant.calls",
    "indexform.index_form.s",
    "indexform.common_value_divisor.s",
)
# share of calls whose result satisfies tracer.OUTCOMES[function]
RATIO_METRICS = (
    ("orders.p_enlarge.useful_ratio", "orders.p_enlarge", "higher"),
    ("criteria.index_divisible.true_ratio", "criteria.index_divisible", "lower"),
)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    base = []
    for layer in tracer.LAYERS:
        base += ["%s.calls" % layer, "%s.self_s" % layer]
    base += list(FUNCTION_METRICS) + ["trace.spans"]
    spec = []
    for name in base:
        unit = "count" if name.endswith(".calls") else "s"
        spec.append((name, unit, "lower"))
        spec.append((name + ".per_query", unit, "lower"))
    spec += [(name, "ratio", better) for name, _, better in RATIO_METRICS]
    spec.append(("trace.overhead_frac", "ratio", "lower"))
    return spec


def _load_primesplit():
    """Import primesplit from this checkout's src/ afresh, dropping any earlier import."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "primesplit" or m.startswith("primesplit.")]:
        del sys.modules[name]
    cli = importlib.import_module("primesplit.cli")
    origin = os.path.dirname(os.path.abspath(sys.modules["primesplit"].__file__))
    if origin != os.path.join(SRC, "primesplit"):
        raise ImportError("primesplit was imported from %s, not from %s" % (origin, SRC))
    return cli


def call_cli(cli, argv):
    """One timed CLI call: (seconds, exit status, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(["--json", *argv])
    except SystemExit as exc:  # argparse rejects its input this way
        status = exc.code
    except Exception:  # a crash is this query's failure, not the benchmark's
        status = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return perf_counter() - start, status, out.getvalue()


def set_up(workload, seed):
    """Import, corpus generation and one warm-up query: (seconds, cli, queries)."""
    start = perf_counter()
    cli = _load_primesplit()
    queries = corpus.build(workload, seed)
    _, status, _ = call_cli(cli, WARMUP[workload])
    elapsed = perf_counter() - start
    if status != 0:
        raise RuntimeError("warm-up query %s exited with %r" % (WARMUP[workload], status))
    return elapsed, cli, queries


def _pin(cpus, turn):
    """Move this process to the turn-th of `cpus`, round robin (no-op for one CPU).

    On a shared VM one vCPU can run 20-30% slower than another for tens
    of seconds, so a single-threaded run that stays on one vCPU reads fast
    or slow as a whole.  Spreading consecutive queries, and set-ups, over
    every allowed CPU samples them evenly.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


class Replay:
    """Whole passes over a corpus; answers are verified once and must then repeat."""

    def __init__(self, cli, queries, cpus=()):
        self.cli = cli
        self.queries = queries
        self.cpus = list(cpus)
        self.passes = 0
        self.first = [None] * len(queries)
        self.reason = [None] * len(queries)
        self.latencies = [[] for _ in queries]  # per query, one entry per pass
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0

    def run_pass(self, trace=None):
        timed = 0.0
        for i, query in enumerate(self.queries):
            if trace is not None:
                trace.query_id = i
            _pin(self.cpus, i + self.passes)
            seconds, status, stdout = call_cli(self.cli, query.argv)
            timed += seconds
            self.latencies[i].append(seconds)
            self.attempted += 1
            if self.first[i] is None:
                self.first[i] = (status, stdout)
                self.reason[i] = verify.check(query, status, stdout)
            elif self.first[i] != (status, stdout) and self.reason[i] is None:
                self.reason[i] = "answer changed between passes"
            self.failed += self.reason[i] is not None
        self.passes += 1
        self.timed_s += timed
        return timed

    def failures(self, limit=5):
        return [
            {"argv": list(q.argv), "reason": r}
            for q, r in zip(self.queries, self.reason)
            if r is not None
        ][:limit]

    def median_latencies(self):
        """Each query's median time over the passes, so a slow spell hits one pass only."""
        return [statistics.median(times) for times in self.latencies]


def end_to_end_metrics(replay, setup_times):
    lat = replay.median_latencies()
    return {
        "throughput_qps": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(trace, passes, queries_per_pass, overhead):
    values = {}
    for layer, (calls, self_s) in trace.layer_totals().items():
        values["%s.calls" % layer] = calls
        values["%s.self_s" % layer] = self_s
    for name in FUNCTION_METRICS:
        func, kind = name.rsplit(".", 1)
        values[name] = trace.total(func, kind)
    values["trace.spans"] = trace.span_count()
    out = {}
    for name, _, _ in per_layer_spec():
        if name.endswith(".per_query"):
            total = values[name[: -len(".per_query")]]
            out[name] = total / passes / queries_per_pass
        elif name in values:
            out[name] = values[name] / passes
    for name, func, _ in RATIO_METRICS:
        calls = trace.total(func, "calls")
        out[name] = trace.total(func, "true") / calls if calls else 0.0
    out["trace.overhead_frac"] = overhead
    return out


def golden_gate(cli):
    """paper-examples --json must be byte-identical to the golden copy."""
    _, status, stdout = call_cli(cli, ("paper-examples",))
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    return status == 0 and stdout == golden


def measure(replay, seconds, trace):
    """Run whole passes until the timed total reaches `seconds`.

    With a tracer, untraced and traced passes alternate (at least one
    of each) and the untraced/traced throughput pair is returned.
    """
    wall_start = perf_counter()
    plain = [0, 0.0]  # passes, timed seconds
    traced = [0, 0.0]
    while True:
        if trace is not None and plain[0] > traced[0]:
            trace.install()
            try:
                timed = replay.run_pass(trace)
            finally:
                trace.uninstall()
            traced[0] += 1
            traced[1] += timed
        else:
            timed = replay.run_pass()
            plain[0] += 1
            plain[1] += timed
        if trace is None or traced[0]:
            if replay.timed_s >= seconds or perf_counter() - wall_start > MEASURE_WALL_CAP_S:
                return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "primesplit", "__init__.py")):
        print("error: no primesplit sources under %s" % SRC, file=sys.stderr)
        return 2

    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    cpus = sorted(allowed)
    try:
        if len(cpus) > 1:
            os.sched_setaffinity(0, allowed)
    except OSError:  # pinning is not permitted here: measure without rotating
        cpus = []
    setup_times = []
    try:
        for turn in range(SETUP_REPEATS):
            _pin(cpus, turn)
            seconds, cli, queries = set_up(args.workload, args.seed)
            setup_times.append(seconds)
        gate_ok = golden_gate(cli)
        replay = Replay(cli, queries, cpus)
        trace = tracer.Tracer() if args.trace else None
        plain, traced = measure(replay, args.seconds, trace)
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, allowed)
    medians = replay.median_latencies()
    p90 = statistics.quantiles(medians, n=10)[-1]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "queries_per_pass": len(queries),
        "passes": plain[0] + traced[0],
        "latency_samples": len(medians),  # per-query medians over the passes
        "latency_samples_above_p90": sum(x > p90 for x in medians),
        "timed_s": replay.timed_s,
        "setup_s": setup_times,
        "golden_gate": gate_ok,
        "attempted": replay.attempted,
        "failed_frac": replay.failed / replay.attempted,
        "failures": replay.failures(),
        "inputs": corpus.input_properties(args.workload, queries),
        "closed_loop": {"clients": 1, "processes": 1, "threads": 1},
    }
    if trace is None:
        metrics = end_to_end_metrics(replay, setup_times)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        # share of untraced throughput lost when the tracer is installed
        overhead = 1 - (traced[0] / traced[1]) / (plain[0] / plain[1])
        metrics = per_layer_metrics(trace, traced[0], len(queries), overhead)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        report["traced_passes"] = traced[0]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if trace is not None:
        trace.dump(stem + "-spans.tsv.gz")
    report["metrics"] = metrics
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    result = {
        "correct": gate_ok and replay.failed == 0,
        "attempted": replay.attempted,
        "failed": replay.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
