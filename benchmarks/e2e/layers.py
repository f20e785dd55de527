"""Which entry points each workload traces, and the per-layer metrics.

Every entry is ``(dotted name, span name[, count hook])``.  The dotted
name is where the *caller* looks the function up — ``EpochSimulator.step``
resolves ``build_new_graph`` through ``repro.core.dynamic``'s globals,
the serving loop resolves ``build_snapshot`` through
``repro.serve.service``'s — so wrapping it there sees every call the
program makes.  A rename in ``src/`` leaves an entry that no longer
resolves or no longer sees calls; :func:`guard` turns both into a
failed run naming the entry.
"""

from __future__ import annotations

import inspect

# -- count hooks -----------------------------------------------------------


def _build_counts(result, args, kwargs) -> dict[str, int]:
    """Searches and hops one ``build_new_graph`` call routed.

    Every construction search is charged ``hops * s * s`` routing
    messages (``s`` = solicited group size), so hops divide out exactly.
    """
    from repro.core.membership import build_new_graph

    params = inspect.signature(build_new_graph).bind(*args, **kwargs)
    s = params.arguments["params"].group_solicit_size
    return {
        "searches": int(result.searches_routed),
        "hops": int(result.routing_messages) // (s * s),
    }


def _probe_counts(result, args, kwargs) -> dict[str, int]:
    return {"probes": int(result.paths.shape[0])}


def _query_counts(result, args, kwargs) -> dict[str, int]:
    return {"queries": int(len(result.delivered))}


# -- trace maps ------------------------------------------------------------

EPOCH = [
    ("repro.core.dynamic.EpochSimulator.step", "step"),
    ("repro.churn.models.ChurnModel.apply", "churn"),
    ("repro.adversary.base.Adversary.population", "population"),
    ("repro.core.dynamic.make_input_graph", "make_input_graph"),
    ("repro.core.dynamic.build_new_graph", "build_new_graph", _build_counts),
    ("repro.inputgraph.chord.ChordGraph.route_many", "route_many"),
    ("repro.core.group_graph.GroupGraph.evaluate", "evaluate"),
    ("repro.core.dynamic.measure_qf", "measure_qf"),
    ("repro.core.dynamic.evaluate_robustness", "evaluate_robustness"),
]

SERVE = [
    ("repro.serve.snapshot.EpochSnapshot.answer", "answer"),
    ("repro.core.secure_routing.SecureRouter.search_batch", "search_batch",
     _query_counts),
    ("repro.serve.service.canonical_response", "canonical_response"),
]

TRACE_MAPS = {
    # the benchmark itself calls repro.serve.build_snapshot after each step
    "epoch-4k": EPOCH + [("repro.serve.build_snapshot", "build_snapshot")],
    # the benchmark calls these through their modules, as bench_scale does
    "static-1m": [
        ("repro.inputgraph.make_input_graph", "make_input_graph"),
        ("repro.core.groups.build_groups_fast", "build_groups_fast"),
        ("repro.core.static_case.measure_static_search",
         "measure_static_search"),
        ("repro.inputgraph.chord.ChordGraph.route_many", "route_many",
         _probe_counts),
        ("repro.core.secure_routing.SecureRouter.route_outcomes",
         "route_outcomes"),
    ],
    "serve-frozen": SERVE,
}

# The span each unit of work hangs from, opened by the benchmark.  The
# serving loop has no root span: its busy time comes from the loop
# thread's CPU clock instead.
ROOTS = {"epoch-4k": "transition", "static-1m": "pass"}

# Spans whose self time is glue nobody wrapped; it counts as unattributed.
CONTAINERS = {"transition", "pass", "step", "measure_static_search"}

MAX_UNATTRIBUTED = 0.10


# -- reading a tracer summary ----------------------------------------------


class Spans:
    """Sums over a :meth:`spans.Tracer.summary`."""

    def __init__(self, summary: dict):
        self.rows = summary["spans"]
        self.counts = summary.get("counts", {})
        self.threads = summary.get("threads", [])

    def total(self, name: str, field: str = "wall_s",
              under: str | None = None, root: bool = False) -> float:
        return sum(
            r[field] for r in self.rows
            if r["path"][-1] == name
            and (under is None or under in r["path"][:-1])
            and (not root or len(r["path"]) == 1)
        )

    def calls(self, name: str) -> int:
        return int(self.total(name, "calls"))

    def unattributed(self, root: str) -> float:
        """Self time of ``root`` and of the containers under it."""
        return sum(
            r["self_s"] for r in self.rows
            if r["path"][0] == root and r["path"][-1] in CONTAINERS
        )

    def attributed_share(self, root: str) -> float:
        wall = self.total(root, root=True)
        return 1.0 - self.unattributed(root) / wall if wall else 0.0

    def loop_cpu_s(self) -> float:
        """CPU the serving loop thread spent from first answer to last reply."""
        for t in self.threads:
            cpu = t["cpu"]
            if "answer" in cpu and "canonical_response" in cpu:
                return cpu["canonical_response"][1] - cpu["answer"][0]
        return 0.0


def guard(workload: str, spans: Spans) -> list[str]:
    """Problems that make a traced run's breakdown untrustworthy."""
    problems = [
        f"stale trace entry {entry[0]}: wrapped but never called"
        for entry in TRACE_MAPS[workload]
        if spans.calls(entry[1]) == 0
    ]
    root = ROOTS.get(workload)
    if root is not None:
        wall = spans.total(root, root=True)
        share = 1.0 - spans.attributed_share(root)
        if wall and share > MAX_UNATTRIBUTED:
            problems.append(
                f"root span {root}: {share:.1%} of its wall is not in any "
                f"wrapped call (limit {MAX_UNATTRIBUTED:.0%})"
            )
    return problems


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def epoch_layers(spans: Spans, transitions: int) -> dict[str, float]:
    """Epoch-step layers, per transition."""
    search = (spans.total("route_many", under="build_new_graph")
              + spans.total("evaluate", under="build_new_graph"))
    searches = spans.counts.get("searches", 0)
    return {
        "churn.s": _div(spans.total("churn"), transitions),
        "population.s": _div(spans.total("population", under="step"),
                             transitions),
        "inputgraph.build_s": _div(
            spans.total("make_input_graph", under="step"), transitions),
        "membership.search_s": _div(search, transitions),
        "membership.compose_s": _div(
            spans.total("build_new_graph", "self_s"), transitions),
        "membership.searches": _div(searches, transitions),
        "membership.hops": _div(spans.counts.get("hops", 0), transitions),
        "membership.us_per_search": _div(search * 1e6, searches),
        "measure.s": _div(spans.total("measure_qf")
                          + spans.total("evaluate_robustness"), transitions),
        "snapshot.build_s": _div(spans.total("build_snapshot"),
                                 spans.calls("build_snapshot")),
        "step.self_s": _div(spans.total("step", "self_s"), transitions),
    }


def static_layers(spans: Spans, passes: int) -> dict[str, float]:
    """Static-pipeline layers, per pass."""
    route = spans.total("route_many", under="pass")
    classify = spans.total("route_outcomes", under="pass")
    probes = spans.counts.get("probes", 0)
    return {
        "inputgraph.build_s": _div(
            spans.total("make_input_graph", under="pass"), passes),
        "groups.build_s": _div(spans.total("build_groups_fast"), passes),
        "routing.route_s": _div(route, passes),
        "routing.classify_s": _div(classify, passes),
        "routing.probes": _div(probes, passes),
        "routing.us_per_probe": _div((route + classify) * 1e6, probes),
        "static.self_s": _div(spans.unattributed("pass"), passes),
    }


def serve_layers(spans: Spans, p50_ms: float) -> dict[str, float]:
    """Request-path layers inside the server, per request."""
    answers = spans.calls("answer")
    kernel_calls = spans.calls("search_batch")
    answer = spans.total("answer")
    serialize = spans.total("canonical_response")
    busy = spans.loop_cpu_s()
    return {
        "serve.kernel_us": _div(spans.total("search_batch") * 1e6,
                                kernel_calls),
        "serve.kernel_calls": float(kernel_calls),
        "serve.queries_per_call": _div(spans.counts.get("queries", 0),
                                       kernel_calls),
        "serve.answer_us": _div(spans.total("answer", "self_s") * 1e6,
                                answers),
        "serve.serialize_us": _div(serialize * 1e6,
                                   spans.calls("canonical_response")),
        "serve.loop_us": _div((busy - answer - serialize) * 1e6, answers),
        "serve.wait_ms": p50_ms - _div(busy * 1e3, answers),
    }
