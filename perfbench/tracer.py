"""Outside-in tracer: spans around primesplit's public functions, from the benchmark.

The library has no tracing of its own yet, so the tracer wraps every
module-level public function defined in each layer module and rebinds
the wrapper in every primesplit namespace that holds the original,
including the package ``__init__`` and modules that did
``from .x import y``.  ``uninstall`` puts the originals back.

Each wrapped call becomes a span (name, start, end, parent span, query
id), kept in memory in compact arrays and written out by ``dump``.
Self time is a span's duration minus the time covered by its child
spans.  Time spent in methods, private helpers and generator functions
(which are not wrapped) counts as self time of the nearest wrapped
caller.
"""

import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "textfmt", "criteria", "fppoly", "zpoly", "orders", "ideals", "indexform")
PACKAGE = "primesplit"


def _p_enlarge_useful(order):
    """p_enlarge returned a strictly larger order (its basis is not the identity)."""
    rows = order.basis_in_parent
    return any(c != (1 if i == j else 0) for i, row in enumerate(rows) for j, c in enumerate(row))


# per-function outcome counters: name -> predicate on the return value
OUTCOMES = {
    "orders.p_enlarge": _p_enlarge_useful,
    "criteria.index_divisible": lambda verdict: verdict.divisible,
}


class Tracer:
    def __init__(self, package=PACKAGE, layers=LAYERS):
        self.package = package
        self.layers = layers
        self.names = []  # function id -> "layer.function"
        self.calls = []
        self.self_s = []
        self.incl_s = []  # outermost calls only, so recursion is not counted twice
        self.outcome_true = []
        self._depth = []
        self._rebound = []  # (namespace, attribute, original)
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self.query_id = -1
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_query = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation --------------------------------------------------------------

    def install(self):
        """Wrap every public function of the eight layers and rebind it everywhere."""
        originals = {}
        for layer in self.layers:
            module = sys.modules["%s.%s" % (self.package, layer)]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    originals[obj] = self._wrap("%s.%s" % (layer, attr), obj)
        for name, module in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []

    def _wrap(self, name, func):
        if name in self.names:
            fid = self.names.index(name)
        else:
            fid = len(self.names)
            self.names.append(name)
            for series in (self.calls, self.outcome_true, self._depth):
                series.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        outcome = OUTCOMES.get(name)
        stack, calls, self_s, incl_s, depth = (
            self._stack, self.calls, self.self_s, self.incl_s, self._depth,
        )
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[fid] += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[fid] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[fid] += 1
                self_s[fid] += duration - frame[1]
                if not depth[fid]:
                    incl_s[fid] += duration
                tracer._record(fid, sid, parent, start, end)
            if outcome is not None and outcome(result):
                tracer.outcome_true[fid] += 1
            return result

        traced.__wrapped__ = func
        return traced

    def _record(self, fid, sid, parent, start, end):
        self.span_name.append(fid)
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_query.append(self.query_id)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- results ----------------------------------------------------------------------

    def total(self, name, kind):
        """calls, self_s, s (inclusive) or true (outcome count) of one function; 0 if absent."""
        if name not in self.names:
            return 0
        series = {"calls": self.calls, "self_s": self.self_s, "s": self.incl_s, "true": self.outcome_true}
        return series[kind][self.names.index(name)]

    def layer_totals(self):
        """{layer: (calls, self seconds)} summed over that layer's functions."""
        out = {layer: [0, 0.0] for layer in self.layers}
        for fid, name in enumerate(self.names):
            agg = out[name.split(".", 1)[0]]
            agg[0] += self.calls[fid]
            agg[1] += self.self_s[fid]
        return {layer: tuple(v) for layer, v in out.items()}

    def span_count(self):
        return len(self.span_id)

    def dump(self, path):
        """Write every span as a gzip'd TSV: id, parent, query, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tquery\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_id)):
                out.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                    % (
                        self.span_id[i],
                        self.span_parent[i],
                        self.span_query[i],
                        names[self.span_name[i]],
                        self.span_start[i],
                        self.span_end[i],
                    )
                )
