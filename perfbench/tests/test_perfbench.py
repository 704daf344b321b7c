"""Self-tests of the benchmark: corpora, verifiers, tracer and BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import io
import json
import os
import random
import sys
import types
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from perfbench import arith, corpus, run, tracer, verify
from primesplit import cli
from primesplit.criteria import index_divisible
from primesplit.fppoly import FpPoly, PrimeModulus, fp_is_irreducible
from primesplit.zpoly import ZPoly, discriminant


# -- corpora ----------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_corpus(workload):
    first = corpus.build(workload, 11)
    assert first == corpus.build(workload, 11)
    assert first != corpus.build(workload, 12)
    assert len(first) >= 100  # at least 10 samples above p90 in one pass


def test_corpus_properties_hold():
    poly = corpus.build("poly-route", 3)
    for q in poly:
        assert 4 <= q.degree <= 16 and q.f[-1] == 1
        assert not arith.has_integer_root(list(q.f))
        if q.p is not None:
            assert arith.discriminant(list(q.f)) % (q.p * q.p)
    props = corpus.input_properties("poly-route", poly)
    assert 0.2 < props["share_abs_a0_gt_1e4"] < 0.5
    order = corpus.build("order-route", 3)
    for q in order:
        bad = corpus.bad_primes(arith.discriminant(list(q.f)), q.degree)
        assert bad and all(r**q.degree <= corpus.ENUM_BOUND for r in bad)
        if q.command == "split-prime":
            assert arith.index_divisible(list(q.f), q.p)
    assert 0 < corpus.input_properties("order-route", order)["share_fields_with_wasted_p_enlarge_prime"] < 1


def test_independent_arithmetic_agrees_with_library():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(2, 7)
        f = [rng.randint(-30, 30) for _ in range(n)] + [1]
        if f[0] == 0 or arith.has_integer_root(f):
            continue
        assert arith.discriminant(f) == discriminant(ZPoly(f))
        for p in (2, 3, 5, 7, 2**31 - 1):
            assert arith.index_divisible(f, p) == index_divisible(ZPoly(f), PrimeModulus(p)).divisible
            g = arith.fp(f, p)
            assert arith.fp_is_irreducible(g, p) == fp_is_irreducible(FpPoly(PrimeModulus(p), g))


# -- verifiers ----------------------------------------------------------------------------

class CorruptingCli:
    """Stands in for primesplit.cli and rewrites the JSON answer of one argv."""

    def __init__(self, target, corrupt):
        self.target = list(target)
        self.corrupt = corrupt

    def main(self, argv):
        if argv[1:] != self.target:
            return cli.main(argv)
        buf = io.StringIO()
        with redirect_stdout(buf):
            status = cli.main(argv)
        payload = json.loads(buf.getvalue())
        self.corrupt(payload["results"])
        print(json.dumps(payload, indent=2))
        return status


def _wrong_e(results):
    key = "generators" if "generators" in results else "ideals"
    results[key][0]["e"] += 1
    results["parts"][0]["e"] += 1


def _perturbed_row(results):
    rows = results["basis_in_power_coordinates"]
    doubled = [2 * Fraction(c) for c in rows[-1].strip("[]").split(",")]
    rows[-1] = "[%s]" % ", ".join(str(c) for c in doubled)


def _first(queries, command):
    for q in queries:
        if q.command == command:
            return q
    raise AssertionError("no %s query" % command)


CORRUPTIONS = [
    ("poly-route", "split-prime", _wrong_e),
    ("order-route", "split-prime", _wrong_e),
    ("order-route", "maximal-order", _perturbed_row),
    ("poly-route", "factor-mod-p", lambda r: r["factors"][0].update(e=r["factors"][0]["e"] + 1)),
    ("poly-route", "discriminant", lambda r: r.update(discriminant=r["discriminant"] + 1)),
    ("forms", "index-form", lambda r: r.update(index_form="2" + r["index_form"])),
]


@pytest.mark.parametrize("workload,command,corrupt", CORRUPTIONS)
def test_corrupted_answer_is_counted_in_failed_frac(workload, command, corrupt):
    queries = corpus.build(workload, 2)
    target = _first(queries, command)
    picked = [target] + [q for q in queries if q is not target and q.degree <= 4][:3]
    honest = run.Replay(cli, picked)
    honest.run_pass()
    assert honest.failed == 0, honest.failures()
    replay = run.Replay(CorruptingCli(target.argv, corrupt), picked)
    replay.run_pass()
    replay.run_pass()
    assert replay.failed == 2
    assert replay.failed / replay.attempted == 1 / len(picked)
    assert replay.failures()[0]["argv"] == list(target.argv)


def test_golden_gate_rejects_a_changed_paper_examples_report():
    assert run.golden_gate(cli)
    assert not run.golden_gate(CorruptingCli(["paper-examples"], lambda r: r.update(passed=0)))


def test_nonzero_exit_and_crash_are_failures():
    q = corpus.Query(("maximal-order", "t^3 - 1"), (-1, 0, 0, 1))  # integer root: refused
    assert verify.check(q, 2, "") == "exit status 2"
    assert verify.check(q, 0, "not json").startswith("malformed answer")


def test_form_parser_reads_the_paper_form():
    terms = verify.parse_form("2x^3 - x^2y - xy^2 - 2y^3")
    assert terms == {(3, 0, 0, 0): 2, (2, 1, 0, 0): -1, (1, 2, 0, 0): -1, (0, 3, 0, 0): -2}


# -- tracer --------------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(monkeypatch, clock):
    """fakepkg.outer.run -> fakepkg.inner.work, the latter imported by name."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    inner.clock = outer.clock = clock
    exec("def work():\n    clock.now += 3.0\n    return 7\n", inner.__dict__)
    outer.work = inner.work  # as after "from .inner import work"
    exec(
        "def run():\n    clock.now += 2.0\n    v = work()\n    clock.now += 1.0\n    return v\n",
        outer.__dict__,
    )
    pkg.run = outer.run  # as the package __init__ re-exports it
    for name, mod in (("fakepkg", pkg), ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, outer, inner


def test_self_time_of_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    pkg, outer, inner = _fake_package(monkeypatch, clock)
    original_work = inner.work
    trace = tracer.Tracer(package="fakepkg", layers=("outer", "inner"))
    trace.install()
    assert outer.work is not original_work and pkg.run is outer.run
    trace.query_id = 4
    assert pkg.run() == 7
    trace.uninstall()
    assert outer.work is original_work and inner.work is original_work
    assert trace.total("outer.run", "calls") == trace.total("inner.work", "calls") == 1
    assert trace.total("outer.run", "self_s") == 3.0  # 6 s inclusive minus the 3 s child
    assert trace.total("inner.work", "self_s") == 3.0
    assert trace.total("outer.run", "s") == 6.0
    assert trace.layer_totals() == {"outer": (1, 3.0), "inner": (1, 3.0)}
    # spans: the child ends first and names the outer span as its parent
    assert [trace.names[i] for i in trace.span_name] == ["inner.work", "outer.run"]
    assert trace.span_parent[0] == trace.span_id[1] and trace.span_parent[1] == -1
    assert list(trace.span_query) == [4, 4]


def test_tracer_reaches_calls_made_through_from_imports():
    queries = corpus.build("order-route", 2)
    split = _first(queries, "split-prime")
    trace = tracer.Tracer()
    trace.install()
    try:
        run.call_cli(sys.modules["primesplit.cli"], split.argv)
    finally:
        trace.uninstall()
    for name in ("cli.main", "criteria.index_divisible", "orders.maximal_order",
                 "orders.p_enlarge", "orders.charpoly_matrix", "ideals.factor_p_in_order"):
        assert trace.total(name, "calls") >= 1, name
    assert trace.total("criteria.index_divisible", "true") >= 1


# -- BENCHMARK.json ----------------------------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
