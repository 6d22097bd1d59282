"""Per-layer spans measured from outside the program.

Each traced public function of `mstint` is rebound, in every module that
holds a reference to it, to a wrapper that records a span (name, start, end,
parent) and the counts read off its arguments and result.  A span's self
time is its duration minus the spans it directly caused.  Time spent
computing counts is charged to no span, so it shows only as tracing overhead.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _net_edges(args, kwargs) -> int:
    g = args[0]
    edge_filter = args[3] if len(args) > 3 else kwargs.get("edge_filter")
    if edge_filter is None:
        return g.n_edges
    return sum(1 for i, e in enumerate(g.edges) if edge_filter(i, e))


def _on_parse(c: Counter, args, kwargs, result, _op) -> None:
    c["graph.parse.edges"] += result[0].n_edges


def _on_contract(c, args, kwargs, result, _op) -> None:
    c["eps.aux_vertices"] += result.aux.n_vertices
    c["eps.aux_edges"] += result.aux.n_edges


def _on_min_cut(c, args, kwargs, result, _op) -> None:
    c["cuts.net_vertices"] += args[0].n_vertices
    c["cuts.net_edges"] += _net_edges(args, kwargs)
    c["cuts.infinite"] += not result.cost.is_finite


def _on_enumerate(c, args, kwargs, result, _op) -> None:
    cuts, truncated = result
    c["cuts.enumerated"] += len(cuts)
    c["cuts.truncated"] += bool(truncated)


def _on_budget(c, args, kwargs, result, _op) -> None:
    c["budget.answers"] += 1
    # an answer without a greedy trace is the global-min-cut fallback
    c["budget.fallback"] += result.trace is None
    c["budget.rounds"] += len(result.trace.rounds) if result.trace else 0


def _on_single_cut(c, args, kwargs, result, op) -> None:
    op["single_cut"] = result[0]


def _on_profit(c, args, kwargs, result, op) -> None:
    single = op.pop("single_cut", None)
    c["profit.answers"] += 1
    c["profit.rounds"] += len(result.trace.rounds) if result.trace else 0
    c["profit.single_won"] += single is not None and result.edges == single.edges


def _on_build(c, args, kwargs, result, _op) -> None:
    c["relax.components"] += len(result.small_sides_cc) + 1


def _on_list(c, args, kwargs, result, _op) -> None:
    c["protect.listings"] += 1
    c["protect.listed_cuts"] += len(result.cuts)
    c["protect.complete"] += bool(result.complete)


# (module, function, span name, count hook)
TARGETS = (
    ("graph", "parse_instance_full", "graph.parse", _on_parse),
    ("solution", "make_solution", "solution.make", None),
    ("mst", "mst", "mst.mst", None),
    ("mst", "profit", "mst.profit", None),
    ("mst", "partial_cut", "mst.partial_cut", None),
    ("eps", "contracted_instance", "eps.contract", _on_contract),
    ("eps", "eps_increase", "eps.solve", None),
    ("cuts", "min_st_cut", "cuts.min_st_cut", _on_min_cut),
    ("cuts", "global_min_cut", "cuts.global_min_cut", None),
    ("cuts", "enumerate_min_st_cuts", "cuts.enumerate", _on_enumerate),
    ("budget", "budget_approximate", "budget.solve", _on_budget),
    ("budget", "budget_approximate_fast", "budget.solve", _on_budget),
    ("budget", "collect_candidate_cuts", "budget.pool", None),
    ("profit", "best_single_cut", "profit.single_cut", _on_single_cut),
    ("profit", "profit_approximate", "profit.solve", _on_profit),
    ("relaxation", "build_cut_sequence", "relax.build", _on_build),
    ("relaxation", "certify", "relax.certify", None),
    ("protection", "list_optimal_cuts", "protect.list", _on_list),
    ("protection", "protect", "protect.cover", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Spans and counts for traced ops; install() before an op, remove() after."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._op: dict = {}
        self._op_id = -1
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()

    def bind(self) -> None:
        """Find every module attribute that refers to a traced function."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mstint"]
        for mod_name, func_name, span, hook in TARGETS:
            home = sys.modules.get(f"mstint.{mod_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue  # the function is gone; its metrics read 0
            wrapper = self._wrap(original, span, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def begin_op(self, name: str) -> None:
        """Open the op's root span; per-op totals restart from zero."""
        self._op_id += 1
        self._op = {}
        self.self_time = Counter()
        self.counts = Counter()
        self._root = (name, len(self.spans))
        self.spans.append(None)
        self._stack.append(self._root[1])
        self._child_time.append(0.0)
        self._root_start = perf_counter()

    def end_op(self) -> tuple[Counter, Counter]:
        end = perf_counter()
        name, index = self._root
        self._stack.pop()
        children = self._child_time.pop()
        self.spans[index] = (name, self._root_start, end, -1, self._op_id)
        self.self_time[name] += end - self._root_start - children
        return self.self_time, self.counts

    def _wrap(self, func, span: str, hook):
        spans, stack, child_time = self.spans, self._stack, self._child_time

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                children = child_time.pop()
                spans[index] = (span, start, end, parent, self._op_id)
                self.self_time[span] += end - start - children
                self.counts[f"{span}.calls"] += 1
            if hook is not None:
                hook(self.counts, args, kwargs, result, self._op)
            if child_time:
                # the parent excludes this call, its count hook included
                child_time[-1] += perf_counter() - start
            return result

        return traced
