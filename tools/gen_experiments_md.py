#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from benchmarks/output/*.txt.

Run the benchmark suite first (it writes the rendered tables), then this
script assembles them with the paper-claim commentary.  The bench files
do not match pytest's default ``test_*.py`` collection pattern, so name
them explicitly:

    pytest benchmarks/bench_*.py
    python tools/gen_experiments_md.py

A table whose ``benchmarks/output/<key>.txt`` source is missing (a fresh
checkout regenerating only the prose) is carried over verbatim from the
existing EXPERIMENTS.md rather than replaced with a placeholder — the
header/commentary resync never destroys measured results.
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "benchmarks" / "output"

CLAIMS = {
    "E1": (
        "Lemma 1 / P4 — responsibility `rho(G_v) = O(log^c n / n)`",
        "Paper: the probability any fixed group lies on a random search path "
        "is bounded by the input graph's congestion. Expected shape: max "
        "responsibility under the bound at every n, shrinking ~log^c n / n.",
    ),
    "E2": (
        "Lemmas 2-4 — static failure probability `X = O(p_f log^c n)`",
        "Paper: with groups red i.i.d. at rate p_f, the search failure "
        "probability is linear in p_f with slope = expected traversed "
        "groups; success >= 1 - O(1/log^(k-c) n) at p_f = 1/log^k n. "
        "Expected shape: constant X/p_f slope across the sweep.",
    ),
    "E3": (
        "§I-C / Lemma 7 — bad-group probability vs group size",
        "Paper: a u.a.r. group of size d ln ln n has a bad majority with "
        "probability 1/poly(log n) (Chernoff). Expected shape: measured "
        "fraction tracks the exact binomial tail; the notes give the "
        "headline log log n vs log n sizes per target.",
    ),
    "E4": (
        "Theorem 3 — ε-robustness maintained over epochs under churn",
        "Paper: over polynomially many joins/departures all but a "
        "1/poly(log n) fraction of groups stay good. Expected shape: flat "
        "red-fraction series across epochs (no drift), eps within envelope. "
        "Execution: each epoch *step* runs on batched kernels (batched "
        "construction searches, bucket-LUT successors, row-sorted group "
        "composition); the test suite's per-probe / per-group reference "
        "loops (`tests/oracles.py`) pin whole trajectories bit-identical, "
        "and one paper-scale epoch (n=2048) in the slow set. Measured one "
        "core, n=2048, one epoch: loops ~40s vs kernels ~0.17s (~240x).",
    ),
    "E5": (
        "§III motivation — two group graphs vs one (ablation)",
        "Paper: a single group graph accumulates error (capture rate q_f); "
        "two graphs square it (q_f^2). Expected shape: one-transition red "
        "fraction quadratically smaller for dual; analytic map shows single "
        "escaping to 1 while dual converges.",
    ),
    "E6": (
        "Corollary 1 — cost comparison vs Θ(log n) groups",
        "Paper: group comm O(poly(log log n)), routing O(D poly(log log n)), "
        "state O(poly(log log n)). Expected shape: classic/tiny routing "
        "ratio ~(log n / log log n)^2, growing with n.",
    ),
    "E7": (
        "Lemma 10 — per-ID state",
        "Paper: each good ID belongs to O(log log n) groups in expectation "
        "and erroneously accepts O(1) spam requests. Expected shape: mean "
        "memberships ~ d2 ln ln n; spam accepts ~ spam * q_f^2.",
    ),
    "E8": (
        "Lemma 11 — PoW bounds the adversary to (1+eps)βn u.a.r. IDs",
        "Paper: compute-bounded minting over the 1.5-epoch window; the "
        "two-hash composition makes placement u.a.r. Expected shape: count "
        "within budget; KS accepts uniformity for two-hash, rejects for the "
        "one-hash ablation (aimed IDs). Execution: the window Monte-Carlo "
        "draws all solution counts as one `mint_count_windows` array op "
        "(differential-tested draw-for-draw against a per-window loop in "
        "`tests/oracles.py`); the KS inputs come from the "
        "`uniformity_windows` generator (each window is one array draw, "
        "differential-tested against the sequential oracle pair). The cell "
        "is KS-dominated, so it carries no speed measurement.",
    ),
    "E9": (
        "Lemma 12 / App. VIII — global random-string propagation",
        "Paper: every good ID's chosen string lands in every solution set; "
        "|R| = O(ln n); messages O~(n ln T). Expected shape: agreement "
        "holds in all scenarios including delayed release; the forced-min "
        "variant breaks unanimity of s* but not verifiability.",
    ),
    "E10": (
        "§IV-B — pre-computation attack",
        "Paper: without fresh strings the adversary hoards solutions and "
        "floods; with them the usable hoard is capped at the 1.5-epoch "
        "window. Expected shape: bad fraction grows to majority loss "
        "without defense, flat ~25% with it.",
    ),
    "E11": (
        "§I-D — group-size limits (`can we do better?`)",
        "Paper: Θ(log log n) is the knee — below it a union bound over D "
        "traversed groups exceeds 1. Expected shape: theory sizes grow "
        "log log n vs log n; measured failure collapses below the knee.",
    ),
    "E12": (
        "§I-B / [47] — cuckoo-rule comparison",
        "Paper quotes Sen-Freedman: n=8192, beta~0.002 needs |G|=64 for "
        "1e5 events. Expected shape: survival grows steeply with |G|; tiny "
        "groups need none of it because PoW throttles rejoins. Execution: "
        "each churn case draws from its own stream spawned off the cell's "
        "sweep stream (single entropy source, reproducible at any worker "
        "count); the event loop is inherently sequential, but each event's "
        "relocation cohort (occupancy query, eviction sample, counter "
        "bookkeeping) runs as one batched array update — the test suite's "
        "bucket-set reference loop pins it trajectory-bit-identical (the "
        "batching gained ~1-3x; commensal cases gain most).",
    ),
    "E13": (
        "§I footnote 2 — quarantine damps spam",
        "Paper: group members agree to ignore an ID that misbehaves too "
        "often. Expected shape: per-epoch processed spam drops to ~0 after "
        "the threshold epoch while honest traffic is untouched.",
    ),
    "E14": (
        "§I footnote 2 / §I-A — redundant storage durability",
        "Paper: data stored at all group members survives as long as the "
        "group keeps a good majority. Expected shape: object availability "
        "~(1 - eps) under churn with repair, collapsing without repair "
        "only after the churn cap is violated.",
    ),
    "E15": (
        "§III remark — system size Θ(n) drift",
        "Paper: the guarantees hold when the population varies by a "
        "constant factor. Expected shape: red fraction stays pinned while "
        "n oscillates within [n/2, 2n].",
    ),
    "F1": (
        "Figure 1 — secure search microbenchmark",
        "The all-to-all + majority-filter search of Figure 1, measured: "
        "hop counts, failure rate, and message cost vs the classic "
        "construction.",
    ),
}

HEADER = """\
# EXPERIMENTS — paper claims vs measured results

Generated from `benchmarks/output/` (run `pytest benchmarks/bench_*.py`
to refresh, then `python tools/gen_experiments_md.py`).

The paper is a theory/protocol paper: its "tables and figures" are the
quantitative claims of Theorem 3, Corollary 1, Lemmas 1-12, the §I-D scaling
argument, and the related-work numbers it quotes ([47]).  Each section
below reproduces one of them, and its heading names the claim.  Absolute
numbers depend on the simulator's constants; the **shapes** (who wins,
scaling exponents, where knees sit, flat-vs-diverging series) are the
reproduction targets, and each section states the expected shape next to
the measured table.

Execution: every experiment declares its grid as a `repro.sim.sweep.SweepSpec`
(axes + a per-cell function); the substrate spawns one independent RNG
stream per cell (`SeedSequence.spawn`, keyed by the cell's grid
coordinates) and assembles rows in deterministic grid order.  `python -m
repro experiments` accepts `--backend {serial,process}` (`serial`, the
default, runs cells in-process) and, with `--backend process`, `--workers
W`: the `process` backend dispatches sweep cells (E1/E2/E3/E5/E6
genuinely cell-parallel), E12's churn cases, and — via `run_all` — whole
experiments across a spawn-safe pool, **bit-identical** to serial for a
fixed `--seed`, so every table below is reproducible at any worker count.

Backend selection: the `process` backend dispatches through a
**process-wide warm pool** (`repro.sim.pool` — spawn's interpreter-boot
cost is paid once per process, not once per sweep) and splits each
multi-cell sweep (E1, E2, E3, E5, E6) into **contiguous spans** — one
task per worker that runs its span's cells in grid order, instead of one
task per cell.  A task ships the pickled cell function, the cells'
coordinates and `SeedSequence`s and the sweep's scalar context; it
returns table rows and notes.  At `--seed 3` the five multi-cell fast
sweeps move 11.6 KB through the executor's pipe in all.
Together these flip the old economics: per-cell dispatch overhead no
longer swamps the batched kernels, so on a multi-core host `--backend
process` beats the in-process default on every multi-cell experiment at
paper scale (the `cells-serial`/`cells-process` rows in
`BENCH_vectorized.json`; CI enforces the ratio on >= 4-core runners).
Use `--backend process` for paper-scale multi-cell sweeps on multi-core
hosts; stay with the default in-process path for quick-scale runs,
single-cell experiments (E4/E8-style trajectories parallelize their
inner loops instead), or single-core machines, where the pool cannot
win.  A cell that fails to pickle degrades to in-process execution with
a `RuntimeWarning` plus a `sweep.degrade` telemetry event — the table is
still produced, and still bit-identical, but serially; module-level cell
functions avoid it.  Determinism is never backend-dependent: per-cell
`SeedSequence` streams are spawned in the parent, so in-process and
process execution render byte-identical tables at any worker count
(property-tested in `tests/property/test_stacked_equivalence.py`).
`tools/smoke_parallel.py` separately checks the experiment-level pool
(`run_all` on the process backend, one experiment per task) against the
in-process suite: all fifteen fast tables must render byte-identical.

Both the static-case pipeline and the sequential-trajectory experiments
run on batched kernels: group construction is a one-pass CSR kernel (flat
`(leader, member)` edge array, single sort + segment dedup — no per-group
`np.unique`), E2-style secure searches evaluate every probe in one
lockstep batch over the group graph (`SecureRouter.search_batch`,
good-majority tests precomputed as boolean arrays), and the dynamic case
(E4 epochs, E8 PoW windows, E12 churn) keeps each epoch/window/event
*step* sequential while batching the step's inner work — batched
construction searches + row-sorted group composition per epoch, whole
solution-count windows as one array draw, one fused relocation update
per churn event.  The loop implementations live in the test suite
(`tests/oracles.py`) as reference oracles; one fixture swaps them in at
the leaf kernels, so whole tables — and for E4 the *entire trajectory*,
every per-epoch report field — are pinned bit-identical.  Measured on one
core at paper-scale n, the kernels were >= 5x (E3 construction grid,
n=8192, ~8x) to ~240x (E4 one epoch, n=2048) and ~70x (E2 probe batch,
n=4096) faster than the loops; `BENCHMARK.json`'s `static-1m` and
`epoch-4k` workloads now track the E2/E3/E4 kernels' speed end to end.
CI's `smoke-vectorized` job is the tracked process-backend ledger
(`benchmarks/output/BENCH_vectorized.json`, from
`tools/smoke_vectorized.py`): it downloads the previous run's artifact
and gates via `tools/perf_ledger.py` on the machine-invariant
`cells-serial`/`cells-process` **speedup ratio** per `(experiment, n)` —
a >20% ratio drop fails, absolute wall-clock drift is warn-only with a
per-run `CALIBRATION` row as host context, so heterogeneous runner
generations can't flap the gate (warn-only on the bootstrap run).

**Scale bench — the million-node memory budget.**
`benchmarks/bench_scale.py` runs the E2-shaped static pipeline (ring
build → Chord finger table → hashed group construction → one 100k-probe
batched secure search) at n = 2^17 and 2^20 (the million-node case) and
records `{experiment: "SCALE", n, backend, wall_s, cells, trials,
peak_rss_mb}` rows into `benchmarks/output/BENCH_scale.json`.  Searches
read only the finger table, and an input graph builds its neighbor CSR
on first use, so this pipeline never builds one.  Two knobs make 2^20
fit a ~4 GB budget (measured on a 2-vCPU host: ~0.39 GB peak, ~1.6-2.7 s
wall, vs ~0.59 GB for the int64 oracle): `--index-dtype auto` narrows
every stored index array — ring successor LUTs, the finger table,
routed paths, group member lists — to int32 whenever n fits (`int64`
stays the byte-identity oracle at double width; RNG draws and
accumulators are never narrowed, so statistics are
value-identical — property-tested in
`tests/property/test_index_dtype.py`), and `--probe-chunk` streams the
probe batch through fixed-size windows
(`measure_static_search_streamed`: integer accumulators ÷ probes, so
bit-equal at any window size) with one `mem.peak` telemetry event per
window.  The Chord finger table and the hashed groups are built in row
blocks that hold ~2^18 points in all (`repro.idspace.ring.row_blocks`),
so no `(n, m)` point or index array is ever held.  The blocks' lookups,
row sorts and dedups run on up to four threads
(`repro.idspace.ring.map_blocks`; NumPy releases the GIL inside them)
while the calling thread draws the blocks and writes the tables in
order, so every array, dtype and the generator's next draw are the same
at any thread count; `taskset -c 0` runs every block on the calling
thread.  E2 accepts the same `probe_chunk=`
override through `build_spec`.  CI's `smoke-scale` job runs the 2^17
and 2^20 points under `--max-rss-mb 4096` and gates `peak_rss_mb` per
row against the previous run's artifact via
`tools/perf_ledger.py --scale-baseline` (>20% growth fails; bootstrap
is warn-only).

**Serving layer — live queries under churn (`repro.serve`).**
`python -m repro serve run` exposes the secure-routing machinery as an
asyncio TCP service speaking JSON lines: each `{"op": "query", "source":
S, "target": T}` is answered from the **current epoch's snapshot** while
a background task advances the `EpochSimulator` under `UniformChurn` on
a fixed period, publishing each new epoch **copy-on-publish** (red mask
copied, `SecureRouter` rebuilt off the event loop, then swapped in by
one reference assignment — a query is answered wholly from one epoch,
never a half-built one).  The epoch trajectory is a pure function of the
config — queries consume no simulator RNG — so an offline replay
(`repro.serve.oracle`) recomputes every recorded response line
**byte-identically**; `python -m repro serve load` drives closed-loop
(saturated back-pressure) or open-loop (Poisson arrivals; latency from
scheduled arrival, so queueing counts — no coordinated omission)
traffic, `--min-epoch` guarantees the drill overlapped N live
transitions, and `--out` records response lines for the oracle check.
Every query emits a `serve.request` event and every swap a
`serve.publish`; `repro telemetry report` renders QPS, p50/p95/p99
latency, per-epoch breakdown, and publish walls from the stream.
`benchmarks/bench_serve.py` records `("SERVE", n, "offline")` (the same
per-query code path as a plain loop) vs `("SERVE", n, "closed")`
(through the live service) into `benchmarks/output/BENCH_serve.json`;
CI's `smoke-serve` job runs `tools/smoke_serve.py` (>= 500 concurrent
queries across >= 3 live epochs, every response oracle-verified) and
gates the machine-invariant offline/closed wall ratio against the
previous run via `tools/perf_ledger.py --serve-baseline` (>25% drop
fails; bootstrap is warn-only).

Telemetry (TELEMETRY.md, `repro.telemetry`): every sink above — the
dispatch spool's `events.log`, sweep runs (opt-in via
`REPRO_TELEMETRY=/path.jsonl`), and the benchmark suite
(`benchmarks/output/telemetry.jsonl`) — emits versioned schema-checked
jsonl events through one writer (atomic O_APPEND lines, safe under
concurrent OS-process workers).  `python -m repro telemetry
report --events run.jsonl` renders the dispatch funnel (lease/verdict/
requeue counts, latency percentiles), sweep cell-timing stats, and the
bench ledger with derived speedups; `--check-bench`
proves `BENCH_vectorized.json` is byte-reproducible from `bench.row`
events alone (CI runs both against the smoke artifacts).

`--cache` / `--no-cache` / `--force` drive the on-disk result cache
(`benchmarks/output/cache/`, keyed by experiment/seed/fast/overrides/
version): a warm run loads tables without executing a single cell;
`repro cache ls` / `repro cache prune [--older-than N] [--max-bytes B]
[--keep-latest-per-experiment]` inspect and bound the store (the last
flag preserves each experiment's newest entry across version bumps — the
post-release janitor).  `benchmarks/output/timings.txt` (from
`pytest benchmarks/bench_parallel.py benchmarks/bench_sweep.py`) records
serial vs cell-parallel vs cache-hit wall clock.

Sharded execution (`repro dispatch serve / work / collect`,
`repro.sim.dispatch`): any sweep can also run as self-contained JSON work
units over a filesystem spool (`benchmarks/output/dispatch/`), with
pull-based workers in separate OS processes — or separate invocations —
leasing units under deadlines with at-least-once retry.  The collector
verifies every result (payload SHA-256 + sweep fingerprint = the result
cache's key), requeues rejected or abandoned units, and reassembles rows
in grid order through the same assembly path as `run_sweep`, so the
dispatched table is **byte-identical** to the local one at any worker
count — property-tested under injected Byzantine faults (worker kills,
duplicate completions, stale/corrupt payloads, lease-deadline stalls;
`repro.sim.dispatch.chaos`, `tools/smoke_dispatch.py` in CI).  The
multi-cell grids (E1/E2/E3/E5/E6) shard across workers; the
sequential-trajectory experiments travel as a single unit.  `--set
key=value` overrides participate in the fingerprint, and serve/collect
integrate the result cache: a warm serve stages the cached table and
enqueues zero units, `--force` invalidates completed shards.

Quorum mode (`repro dispatch serve EXP --replicas R`) extends the
verification from *hash-consistent* to *majority-attested*: every unit
is leased to R distinct workers and the reassembler groups results by
payload SHA-256, accepting a value only once a strict majority of
distinct workers (ceil(R/2)) vote for the same hash — so a worker whose
wrong answers verify clean (an *equivocator*, the adversary the
paper's tiny groups defend against) is simply outvoted rather than
trusted.  Ties requeue a tiebreaker replica; `--max-attempts N` bounds
retries per slot, retiring hopeless units into `<spool>/poison/`
(`dispatch.poison`) instead of livelocking the pool.  Per-worker
`dispatch.suspect` counters name equivocators in the telemetry report.
The guarantee is property-tested through the spool: for every fault
schedule with strictly fewer than ceil(R/2) equivocators per unit —
including coordinated split-vote pairs and adaptive liars that turn
Byzantine mid-run — the assembled table stays byte-identical to the
serial oracle.  `--replicas 1` (the default) is exactly the legacy
single-attestation pipeline.  Expect roughly R× the compute (every
cell runs on R workers, plus a tiebreaker replica per split tally), so
quorum pays off only when the worker pool itself is untrusted —
volunteer or foreign machines that might compute wrong answers
convincingly; for a trusted local pool, r=1's hash + fingerprint
verification already catches accidental corruption at no overhead.

"""


def existing_tables(md_path: pathlib.Path) -> dict[str, str]:
    """The ```text blocks already embedded per section of EXPERIMENTS.md."""
    if not md_path.exists():
        return {}
    text = md_path.read_text()
    tables: dict[str, str] = {}
    for match in re.finditer(
        r"^## (\w+) — .*?```text\n(.*?)```", text, re.S | re.M
    ):
        tables[match.group(1)] = match.group(2).rstrip()
    return tables


def main() -> None:
    md_path = ROOT / "EXPERIMENTS.md"
    carried = existing_tables(md_path)
    parts = [HEADER]
    order = sorted(
        CLAIMS, key=lambda k: (k[0] != "E", int(k[1:]) if k[1:].isdigit() else 0)
    )
    for key in order:
        title, commentary = CLAIMS[key]
        parts.append(f"## {key} — {title}\n\n{commentary}\n")
        path = OUTPUT / f"{key.lower()}.txt"
        if path.exists():
            parts.append("```text\n" + path.read_text().rstrip() + "\n```\n")
        elif key in carried:
            parts.append("```text\n" + carried[key] + "\n```\n")
        else:
            parts.append("_(table not yet generated — run the benchmarks)_\n")
    md_path.write_text("\n".join(parts))
    print(f"wrote {md_path} ({len(carried)} carried-over table(s))")


if __name__ == "__main__":
    main()
