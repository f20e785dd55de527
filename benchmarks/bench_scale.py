#!/usr/bin/env python3
"""Bench scale — the million-node static pipeline inside a memory budget.

The memory-scaling ledger (ROADMAP item 4's acceptance evidence): run the
E2-shaped static pipeline — ring build, input-graph construction (no
table: the searches compute the few Chord finger cells they read, and
never read the neighbor CSR, so neither is built), hashed group
construction, one 100k-probe batched secure search — at growing ``n``
and record ``{experiment, n, backend, wall_s, cells,
trials, peak_rss_mb}`` rows into ``BENCH_scale.json``
(:data:`repro.analysis.benchio.SCALE_BENCH_FILENAME`).

What makes the default point set (n = 2^17 and 2^20 — the latter *is* the
million-node case) fit a ~4 GB budget is exactly this PR's hot-path work:

* ``--index-dtype auto`` narrows every stored index array (ring LUTs, the
  finger table, routed paths, group member lists) to int32 whenever
  ``n`` fits, halving the resident footprint — ``int64`` runs the
  byte-identity oracle at double width;
* ``--probe-chunk`` streams the probe batch through fixed-size windows
  (:func:`repro.core.static_case.measure_static_search_streamed`), so the
  transient ``(q, hops)`` route/outcome tables are window-bounded instead
  of scaling with the whole workload;
* the hashed groups (and a Chord finger table, where one is built) are
  built in row blocks of ~2^18 points over the thread count, two per
  thread in flight (~2^19 points in all), run on up to four threads
  (:func:`repro.idspace.ring.map_blocks`; ``taskset -c 0`` runs them on
  the calling thread as blocks of ~2^18), so no ``(n, m)`` point array
  is ever held.

Each phase emits a ``mem.peak`` telemetry event, so ``repro telemetry
report --mem`` summarizes the run; the rows themselves live only in the
JSON file.  ``ru_maxrss`` is the *process-lifetime* high-water mark, so
points run in ascending ``n`` — a point's peak column can only be
inflated by a *larger* earlier point, never understated (run one ``--n``
per process for exact per-point attribution).

CI (``smoke-scale``) runs both points under ``--max-rss-mb 4096`` and
gates the resulting rows' ``peak_rss_mb`` against the previous run via
``tools/perf_ledger.py --scale-baseline/--scale-current``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # 2^17 + 2^20
    PYTHONPATH=src python benchmarks/bench_scale.py \
        --n 131072 --n 1048576 --max-rss-mb 4096               # CI smoke
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

DEFAULT_NS = (2**17, 2**20)


def run_point(
    n: int,
    *,
    topology: str,
    index_dtype: str,
    probes: int,
    probe_chunk: int | None,
    pf: float,
    seed: int,
) -> dict:
    """One ledger row: the E2-shaped pipeline at ``n``."""
    import numpy as np

    from repro.analysis.benchio import bench_row
    from repro.core.groups import build_groups_fast
    from repro.core.group_graph import GroupGraph
    from repro.core.params import SystemParams
    from repro.core.static_case import measure_static_search
    from repro.idspace.ring import index_dtype_for
    from repro.inputgraph import make_input_graph
    from repro.telemetry import emit_peak, peak_rss_mb

    backend = str(index_dtype_for(n, index_dtype))
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    # same substrate recipe as E2's cell: ids keyed by the seed alone
    ids = np.random.default_rng(seed).random(n)
    H = make_input_graph(topology, ids, index_dtype=index_dtype)
    emit_peak("scale.graph", n=n)
    params = SystemParams(n=n, seed=seed)
    groups = build_groups_fast(H.ring, params, rng)
    emit_peak("scale.groups", n=n)
    gg = GroupGraph(H, params, red=rng.random(n) < pf, groups=groups)
    stats = measure_static_search(gg, probes, rng, probe_chunk=probe_chunk)
    emit_peak("scale.search", n=n)
    wall = time.perf_counter() - t0
    row = bench_row(
        experiment="SCALE", n=n, backend=backend, wall_s=wall,
        cells=1, trials=probes, peak_rss_mb=peak_rss_mb(),
    )
    print(
        f"[scale] n={n:<8} {topology}/{backend}: wall {wall:.2f}s, "
        f"peak RSS {row.get('peak_rss_mb', float('nan')):.1f}MB, "
        f"X={stats.failure_rate:.4f}, success={stats.success_rate:.4f}"
    )
    return row


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="benchmarks/output/BENCH_scale.json",
                    help="scale ledger JSON to merge rows into")
    ap.add_argument("--n", type=int, action="append", default=None,
                    help="measurement point (repeatable; default 2^17 and "
                         "2^20 — the million-node case)")
    ap.add_argument("--full", action="store_true",
                    help="also run the int64 oracle rows (double-width "
                         "storage) at every point, for the narrowing delta")
    ap.add_argument("--probes", type=int, default=100_000,
                    help="secure-search probes per point (paper E2 scale)")
    ap.add_argument("--probe-chunk", type=int, default=16_384,
                    help="streaming window for the search kernel "
                         "(0 = one-shot, whole batch at once)")
    ap.add_argument("--topology", default="chord",
                    help="input-graph family (chord is the paper default)")
    ap.add_argument("--index-dtype", default="auto",
                    choices=("auto", "int32", "int64"),
                    help="stored-index policy (auto narrows when n fits)")
    ap.add_argument("--pf", type=float, default=0.02,
                    help="S2 red probability for the marked graph")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-rss-mb", type=float, default=None,
                    help="fail (exit 1) if the process peak RSS exceeds "
                         "this after any point — the memory budget gate")
    ap.add_argument("--telemetry-out", default=None,
                    help="write mem.peak events to this jsonl file "
                         "(default: $REPRO_TELEMETRY if set)")
    args = ap.parse_args(argv)

    from repro.analysis.benchio import record_bench_rows
    from repro.telemetry import peak_rss_mb, telemetry_to

    from contextlib import nullcontext

    ns = sorted(set(args.n or DEFAULT_NS))  # ascending: see module docstring
    policies = [args.index_dtype]
    if args.full and args.index_dtype != "int64":
        policies.append("int64")
    sink = (
        telemetry_to(args.telemetry_out) if args.telemetry_out
        else nullcontext()
    )
    rows: list[dict] = []
    budget_broken = False
    with sink:
        for n in ns:
            for policy in policies:
                rows.append(run_point(
                    n, topology=args.topology, index_dtype=policy,
                    probes=args.probes, probe_chunk=args.probe_chunk,
                    pf=args.pf, seed=args.seed,
                ))
                peak = peak_rss_mb()
                if (
                    args.max_rss_mb is not None
                    and peak is not None
                    and peak > args.max_rss_mb
                ):
                    print(
                        f"bench-scale: peak RSS {peak:.1f}MB exceeds the "
                        f"{args.max_rss_mb:.0f}MB budget after n={n} "
                        f"({policy})", file=sys.stderr,
                    )
                    budget_broken = True
    out = pathlib.Path(args.out)
    record_bench_rows(out, rows)
    print(f"bench-scale: merged {len(rows)} row(s) into {out}")
    return 1 if budget_broken else 0


if __name__ == "__main__":
    sys.exit(main())
