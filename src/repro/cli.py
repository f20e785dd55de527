"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments [IDs...] [--workers W] [--backend B] [--cache] [--force]``
    Run experiments (default: all) and print their tables.
    ``--backend`` selects the execution backend (``serial`` | ``process``
    | ``vectorized``) for sweep cells; when omitted the
    substrate default applies — serial cell scheduling with the
    *vectorized* array kernels, while an explicit ``--backend serial``
    requests the reference loop implementations.  All backends render
    bit-identical tables for a fixed ``--seed``; ``--workers`` sizes the
    ``process`` pool (default: CPU count).
    ``--cache``/``--no-cache`` toggles the on-disk result cache
    (``benchmarks/output/cache/``; a warm run re-executes nothing),
    ``--force`` recomputes and refreshes cached entries, and
    ``--cache-dir`` relocates the store.
``dispatch serve EXP [--spool D] [--replicas R] [--max-attempts N] [--cache]``
``dispatch work --spool D [--max-units N] [--timeout S] [--chaos SPEC]``
``dispatch collect --spool D [--wait] [--timeout S] [--cache]``
    Sharded execution: ``serve`` serializes one experiment's sweep grid
    into self-contained work units under a filesystem spool
    (``benchmarks/output/dispatch/``; with ``--cache`` a warm table
    short-circuits and zero units are enqueued), ``work`` is a pull
    worker that leases, executes, and completes units (run any number,
    in any processes; a worker killed mid-unit merely delays others by
    the lease timeout), and ``collect`` verifies results (payload hash +
    sweep fingerprint), requeues rejected units, and reassembles the
    table — byte-identical to a local run at any worker count.
    ``--replicas R`` (serve) turns on quorum mode: each unit is executed
    by R workers and collect accepts the majority payload hash, so even
    a worker computing *plausible wrong answers* is outvoted;
    ``--max-attempts`` bounds per-slot retries (poison instead of
    livelock).  Both are recorded in the manifest, so work/collect need
    no extra flags.
``cache ls [--cache-dir D]`` / ``cache prune [--older-than N] [--max-bytes B]
[--keep-latest-per-experiment]``
    Inspect or evict stored result tables: ``ls`` lists entries with
    size and age; ``prune`` drops entries older than N days and/or
    evicts oldest-first down to a total-size budget.
    ``--keep-latest-per-experiment`` exempts each experiment's newest
    entry from eviction (alone, it evicts everything else) — the janitor
    policy for stores that accumulated entries across version bumps.
``telemetry report --events F [--json] [--mem] [--check-bench BENCH] [--write-bench BENCH]``
    Summarise a :mod:`repro.telemetry` jsonl stream (dispatch funnel with
    lease-latency percentiles, per-sweep cell timing trends, bench ledger
    rows + host calibration).  ``--check-bench``
    verifies the stream's ``bench.row`` events against a
    ``BENCH_vectorized.json`` file (every derivable row must match
    byte-for-byte — the CI sanity gate); ``--write-bench`` merges the
    reconstructed rows into such a file.
``serve run [-n N] [--epochs E] [--churn R] [--epoch-period S] [--port P] [--telemetry F]``
``serve load --port P [--requests N] [--concurrency C] [--mode closed|open] [--rate R] [--out F]``
    The serving layer (ROADMAP item 4): ``run`` answers secure-routing
    queries over TCP JSON lines from consistent copy-on-publish epoch
    snapshots while the simulator's epochs advance live under uniform
    churn (per-request ``serve.request`` + per-epoch ``serve.publish``
    telemetry; runs until a client sends ``{"op": "stop"}``).  ``load``
    drives open- or closed-loop traffic at such a service, prints
    QPS/latency percentiles, optionally records raw response lines
    (``--out``) for offline-oracle verification, and with
    ``--min-epoch``/``--stop`` guarantees epoch coverage and shuts the
    service down after the drill.
``validate TOPOLOGY [-n N]``
    Build an input graph and check properties P1-P4.
``simulate [-n N] [--beta B] [--epochs E] [--churn R]``
    Run the dynamic epoch protocol and print per-epoch stats.
``info``
    Print version, parameters, and the experiment registry.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _cmd_experiments(args) -> int:
    from .experiments import run_experiment
    from .sim.montecarlo import ExecutionConfig

    # no --backend: leave the config unset so the substrate default applies
    # (serial cell scheduling + vectorized kernels); --workers only matters
    # for the process pool, which requires an explicit --backend process
    exec_config = (
        ExecutionConfig(backend=args.backend, workers=args.workers)
        if args.backend is not None
        else None
    )
    # IDs arrive validated and upper-cased (_experiment_id), so a typo
    # fails as a usage error before any experiment runs
    names = args.ids or _experiment_ids()
    # a custom cache root is a request to use the cache
    cache = args.cache or args.cache_dir is not None
    for name in names:
        table = run_experiment(
            name, seed=args.seed, fast=not args.full, exec_config=exec_config,
            cache=cache, force=args.force, cache_dir=args.cache_dir,
        )
        print(table.render())
        print()
    return 0


def _cmd_validate(args) -> int:
    from .analysis.tables import render_table
    from .inputgraph import make_input_graph, validate_properties

    rng = np.random.default_rng(args.seed)
    g = make_input_graph(args.topology, rng.random(args.n))
    rep = validate_properties(g, probes=args.probes, rng=rng)
    print(render_table(
        ["property", "measured", "bound", "ok"], rep.rows(),
        title=f"{args.topology} (n={args.n})",
    ))
    return 0 if rep.ok() else 1


def _cmd_simulate(args) -> int:
    from .churn import UniformChurn
    from .core import EpochSimulator, SystemParams

    params = SystemParams(n=args.n, beta=args.beta, seed=args.seed)
    print(params.describe())
    sim = EpochSimulator(
        params,
        topology=args.topology,
        churn=UniformChurn(rate=args.churn) if args.churn > 0 else None,
        probes=args.probes,
        rng=np.random.default_rng(args.seed),
    )
    print(f"{'epoch':>5} {'red':>8} {'q_f':>8} {'eps':>8} {'memb/ID':>8}")
    for rep in sim.run(args.epochs):
        print(
            f"{rep.epoch:>5} {rep.fraction_red:>8.4f} {rep.qf:>8.4f} "
            f"{rep.robustness.epsilon_achieved:>8.4f} {rep.mean_membership:>8.1f}"
        )
    return 0


def _human_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.0f}{unit}" if unit == "B" else f"{size:.1f}{unit}"
        size /= 1024
    return f"{size:.1f}GiB"  # pragma: no cover - unreachable


def _cmd_cache(args) -> int:
    from .experiments.cache import ResultCache

    store = ResultCache(args.cache_dir)
    if args.action == "ls":
        entries = store.entries()
        if not entries:
            print(f"cache at {store.root}: empty")
            return 0
        print(f"cache at {store.root}: {len(entries)} entries, "
              f"{_human_bytes(sum(e.size for e in entries))}")
        print(f"{'experiment':>10} {'size':>10} {'age':>12}  file")
        for e in entries:
            age_days = e.age_seconds() / 86400.0
            print(
                f"{e.experiment:>10} {_human_bytes(e.size):>10} "
                f"{age_days:>10.1f}d  {e.path.name}"
            )
        return 0
    # prune
    if (
        args.older_than is None
        and args.max_bytes is None
        and not args.keep_latest_per_experiment
    ):
        print(
            "cache prune: nothing to do (pass --older-than, --max-bytes "
            "and/or --keep-latest-per-experiment)"
        )
        return 2
    removed = store.prune(
        older_than=None if args.older_than is None else args.older_than * 86400.0,
        max_bytes=args.max_bytes,
        keep_latest_per_experiment=args.keep_latest_per_experiment,
    )
    freed = sum(e.size for e in removed)
    kept = store.entries()
    print(
        f"pruned {len(removed)} entries ({_human_bytes(freed)}) from "
        f"{store.root}; {len(kept)} entries "
        f"({_human_bytes(sum(e.size for e in kept))}) remain"
    )
    return 0


def _cmd_dispatch(args) -> int:
    from .sim.dispatch import CliChaos, IncompleteSweepError, collect, serve, work

    if args.action == "serve":
        cache = args.cache or args.cache_dir is not None
        overrides = {}
        for item in args.overrides or ():
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise SystemExit(
                    f"--set expects KEY=VALUE, got {item!r}"
                )
            try:
                overrides[key] = json.loads(raw)
            except ValueError:
                overrides[key] = raw  # bare strings need no quoting
        report = serve(
            args.experiment,
            seed=args.seed,
            fast=not args.full,
            overrides=overrides,
            spool=args.spool,
            lease_timeout=args.lease_timeout,
            cache=cache,
            force=args.force,
            cache_dir=args.cache_dir,
            replicas=args.replicas,
            max_attempts=args.max_attempts,
        )
        if report.cache_hit:
            print(
                f"serve {args.experiment.upper()}: cache hit — table staged "
                f"in {report.spool}, 0 of {report.n_cells} units enqueued"
            )
        elif report.replicas > 1:
            print(
                f"serve {args.experiment.upper()}: {report.enqueued} slots "
                f"for {report.n_cells} units x{report.replicas} replicas "
                f"enqueued in {report.spool} (fingerprint {report.fingerprint})"
            )
            print(f"next: repro dispatch work --spool {report.spool}")
        else:
            print(
                f"serve {args.experiment.upper()}: {report.enqueued} of "
                f"{report.n_cells} units enqueued in {report.spool} "
                f"(fingerprint {report.fingerprint})"
            )
            print(f"next: repro dispatch work --spool {report.spool}")
        return 0
    if args.action == "work":
        chaos = CliChaos(args.chaos) if args.chaos else None
        executed = work(
            args.spool,
            worker=args.worker,
            max_units=args.max_units,
            timeout=args.timeout,
            chaos=chaos,
            replicas=args.replicas,
        )
        print(f"work: executed {executed} unit(s) from {args.spool}")
        return 0
    # collect
    cache = args.cache or args.cache_dir is not None
    try:
        table = collect(
            args.spool,
            wait=args.wait,
            timeout=args.timeout,
            cache=cache,
            cache_dir=args.cache_dir,
            replicas=args.replicas,
        )
    except IncompleteSweepError as exc:
        print(f"collect: {exc}", file=sys.stderr)
        return 1
    print(table.render())
    return 0


def _cmd_telemetry(args) -> int:
    from .analysis.telemetry_report import (
        bench_rows_from_events,
        check_bench,
        render_mem_report,
        render_report,
        summarize_events,
    )
    from .telemetry import read_events

    try:
        events = read_events(args.events)
    except OSError as exc:
        print(f"telemetry report: cannot read {args.events}: {exc}",
              file=sys.stderr)
        return 1
    if not events:
        print(f"telemetry report: no events in {args.events}", file=sys.stderr)
        return 1
    summary = summarize_events(events)
    if getattr(args, "mem", False):
        print(render_mem_report(summary))
    elif args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_report(summary))
    if args.write_bench:
        from .analysis.benchio import record_bench_rows

        rows = bench_rows_from_events(events)
        record_bench_rows(args.write_bench, rows)
        print(f"merged {len(rows)} reconstructed row(s) into {args.write_bench}")
    if args.check_bench:
        problems = check_bench(events, args.check_bench)
        if problems:
            for problem in problems:
                print(f"check-bench: {problem}", file=sys.stderr)
            return 1
        print(f"check-bench: event stream matches {args.check_bench}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import RoutingService, ServeConfig, run_load, send_stop
    from .telemetry import TelemetryWriter

    if args.action == "run":
        config = ServeConfig(
            n=args.n, beta=args.beta, seed=args.seed, topology=args.topology,
            epochs=args.epochs, churn_rate=args.churn, probes=args.probes,
            epoch_period_s=args.epoch_period,
        )
        writer = TelemetryWriter(args.telemetry) if args.telemetry else None

        async def _run() -> None:
            service = RoutingService(
                config, host=args.host, port=args.port, telemetry=writer
            )
            ready = asyncio.Event()
            task = asyncio.create_task(service.run(ready))
            await ready.wait()
            # the smoke harness parses this exact line for the bound port
            print(
                f"serving on {service.bound_host}:{service.bound_port} "
                f"({config.describe()})",
                flush=True,
            )
            await task
            print(
                f"served {service.requests} request(s) across "
                f"{service.published + 1} epoch(s)"
            )

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        finally:
            if writer is not None:
                writer.close()
        return 0

    # load
    async def _load() -> int:
        report = await run_load(
            args.host, args.port,
            requests=args.requests, concurrency=args.concurrency,
            mode=args.mode, rate=args.rate, seed=args.seed,
            min_epoch=args.min_epoch, timeout_s=args.timeout,
        )
        for line in report.summary_lines():
            print(line)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(report.responses) + "\n")
            print(f"wrote {report.requests} response line(s) to {args.out}")
        if args.stop:
            await send_stop(args.host, args.port)
            print("service stopped")
        return 0

    try:
        return asyncio.run(_load())
    except (ConnectionError, TimeoutError, OSError) as exc:
        print(f"serve load: {exc}", file=sys.stderr)
        return 1


def _cmd_info(args) -> int:
    from . import __version__
    from .core.params import DEFAULTS
    from .inputgraph import TOPOLOGIES

    print(f"repro {__version__} — Tiny Groups Tackle Byzantine Adversaries")
    print(f"defaults: {DEFAULTS.describe()}")
    print(f"topologies: {', '.join(sorted(TOPOLOGIES))}")
    print(f"experiments: {', '.join(_experiment_ids())}")
    return 0


def _experiment_ids() -> list[str]:
    """The registry's experiment IDs in numeric order (E1 .. E15)."""
    from .experiments import EXPERIMENTS

    return sorted(EXPERIMENTS, key=lambda k: int(k[1:]))


def _experiment_id(text: str) -> str:
    ids = _experiment_ids()
    if text.upper() not in ids:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {text!r}; choose from {', '.join(ids)}"
        )
    return text.upper()


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("experiments", help="run experiment tables")
    pe.add_argument(
        "ids", nargs="*", type=_experiment_id,
        help="experiment IDs (default: all)",
    )
    pe.add_argument("--full", action="store_true", help="full (slow) scale")
    pe.add_argument(
        "--backend", choices=["serial", "process", "vectorized"],
        default=None,
        help="execution backend (default: serial cell scheduling with the "
             "vectorized array kernels; 'serial' requests the reference "
             "loop kernels; 'process' dispatches cells across a spawn "
             "pool).  All backends render bit-identical tables for a "
             "fixed seed",
    )
    pe.add_argument(
        "--workers", type=_positive_int, default=None,
        help="process-pool size for --backend process (default: CPU count)",
    )
    pe.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="consult/populate the on-disk result cache keyed by "
             "(experiment, seed, fast, overrides, version); a warm run "
             "re-executes nothing",
    )
    pe.add_argument(
        "--force", action="store_true",
        help="recompute even on a cache hit and refresh the stored entry "
             "(implies --cache)",
    )
    pe.add_argument(
        "--cache-dir", default=None,
        help="cache root (default: benchmarks/output/cache, or "
             "$REPRO_CACHE_DIR); implies --cache",
    )
    pe.set_defaults(fn=_cmd_experiments)

    pc = sub.add_parser("cache", help="inspect or prune the result cache")
    pc.add_argument(
        "action", choices=["ls", "prune"],
        help="ls: list stored tables; prune: evict by age/size bounds",
    )
    pc.add_argument(
        "--cache-dir", default=None,
        help="cache root (default: benchmarks/output/cache, or "
             "$REPRO_CACHE_DIR)",
    )
    pc.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="prune: drop entries older than DAYS (may be fractional)",
    )
    pc.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="prune: evict oldest-first until the store fits BYTES",
    )
    pc.add_argument(
        "--keep-latest-per-experiment", action="store_true",
        help="prune: exempt each experiment's newest entry from eviction "
             "(alone: evict everything else — the post-version-bump janitor)",
    )
    pc.set_defaults(fn=_cmd_cache)

    pd = sub.add_parser(
        "dispatch", help="sharded sweep execution over a filesystem spool"
    )
    pdsub = pd.add_subparsers(dest="action", required=True)

    pds = pdsub.add_parser("serve", help="serialize a sweep into spool units")
    pds.add_argument("experiment", help="experiment ID (e.g. E1)")
    pds.add_argument("--full", action="store_true", help="full (slow) scale")
    pds.add_argument(
        "--spool", default=None,
        help="spool directory (default: benchmarks/output/dispatch/"
             "<experiment>-<fingerprint>)",
    )
    pds.add_argument(
        "--set", action="append", dest="overrides", metavar="KEY=VALUE",
        help="experiment override (VALUE parsed as JSON, e.g. "
             "--set probes=500 --set 'n_values=[256,512]'); repeatable, "
             "participates in the sweep fingerprint and cache key",
    )
    pds.add_argument(
        "--lease-timeout", type=_positive_float, default=300.0, metavar="S",
        help="seconds a worker may hold a unit before it is requeued "
             "(recorded in the spool manifest; default 300)",
    )
    pds.add_argument(
        "--replicas", type=_positive_int, default=1, metavar="R",
        help="quorum mode: lease every unit to R workers and accept the "
             "majority payload hash at collect time (default 1 = classic "
             "single-execution dispatch)",
    )
    pds.add_argument(
        "--max-attempts", type=_positive_int, default=None, metavar="N",
        help="retry budget per slot: a unit rejected/expired N times is "
             "poisoned (dispatch.poison) instead of retried forever "
             "(default: unbounded)",
    )
    pds.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="consult the result cache first: a warm table is staged into "
             "the spool and zero units are enqueued",
    )
    pds.add_argument(
        "--force", action="store_true",
        help="recompute: ignore cache hits and wipe completed shards from "
             "an existing spool",
    )
    pds.add_argument("--cache-dir", default=None, help="cache root (implies --cache)")
    pds.set_defaults(fn=_cmd_dispatch)

    pdw = pdsub.add_parser("work", help="pull-execute-complete spool units")
    pdw.add_argument("--spool", required=True, help="spool directory to work")
    pdw.add_argument(
        "--worker", default=None,
        help="worker name for leases/logs (default: pid-<os pid>)",
    )
    pdw.add_argument(
        "--max-units", type=_positive_int, default=None,
        help="exit after executing N units (default: drain the spool)",
    )
    pdw.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="max seconds to wait for claimable work before erroring",
    )
    pdw.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="fault injection for failure drills/tests: kill:K (hard-kill "
             "mid-unit K), corrupt:K, stale:K, equivocate:K (every "
             "completion from unit K on is a plausible wrong answer) — "
             "comma-separated",
    )
    pdw.add_argument(
        "--replicas", type=_positive_int, default=None, metavar="R",
        help="override the manifest's quorum width (rarely needed: the "
             "serve-time value is recorded in the spool)",
    )
    pdw.set_defaults(fn=_cmd_dispatch)

    pdc = pdsub.add_parser("collect", help="verify results, reassemble table")
    pdc.add_argument("--spool", required=True, help="spool directory to collect")
    pdc.add_argument(
        "--wait", action="store_true",
        help="poll (requeueing expired leases) until the sweep completes "
             "instead of erroring on missing cells",
    )
    pdc.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="with --wait: max seconds to wait for completion",
    )
    pdc.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="store the reassembled table in the result cache",
    )
    pdc.add_argument("--cache-dir", default=None, help="cache root (implies --cache)")
    pdc.add_argument(
        "--replicas", type=_positive_int, default=None, metavar="R",
        help="override the manifest's quorum width (rarely needed: the "
             "serve-time value is recorded in the spool)",
    )
    pdc.set_defaults(fn=_cmd_dispatch)

    pt = sub.add_parser(
        "telemetry", help="inspect structured telemetry event streams"
    )
    ptsub = pt.add_subparsers(dest="action", required=True)
    ptr = ptsub.add_parser("report", help="summarise a telemetry jsonl file")
    ptr.add_argument(
        "--events", required=True,
        help="telemetry jsonl file (a spool's events.log, a bench run's "
             "telemetry.jsonl, or any concatenation of them)",
    )
    ptr.add_argument(
        "--json", action="store_true",
        help="emit the structured summary as JSON instead of text",
    )
    ptr.add_argument(
        "--mem", action="store_true",
        help="render only the memory section (mem.peak phase trends)",
    )
    ptr.add_argument(
        "--check-bench", default=None, metavar="BENCH",
        help="verify the stream's bench.row events against this "
             "BENCH_vectorized.json (exit 1 on any mismatch)",
    )
    ptr.add_argument(
        "--write-bench", default=None, metavar="BENCH",
        help="merge the rows reconstructed from bench.row events into this "
             "BENCH JSON file",
    )
    ptr.set_defaults(fn=_cmd_telemetry)

    psv = sub.add_parser(
        "serve", help="asyncio secure-routing query service under live churn"
    )
    psvsub = psv.add_subparsers(dest="action", required=True)

    psr = psvsub.add_parser(
        "run", help="serve queries while epochs advance (stop op shuts down)"
    )
    psr.add_argument("-n", type=int, default=512)
    psr.add_argument("--beta", type=float, default=0.05)
    psr.add_argument("--epochs", type=int, default=3,
                     help="live epoch transitions to publish (default 3)")
    psr.add_argument("--churn", type=float, default=0.05,
                     help="UniformChurn departure rate per epoch (0 disables)")
    psr.add_argument("--topology", default="chord")
    psr.add_argument("--probes", type=int, default=500,
                     help="reclassification probes per transition")
    psr.add_argument("--epoch-period", type=float, default=0.5, metavar="S",
                     help="seconds between epoch publications (default 0.5)")
    psr.add_argument("--host", default="127.0.0.1")
    psr.add_argument("--port", type=int, default=0,
                     help="TCP port (default 0 = OS-assigned; the bound port "
                          "is printed on the 'serving on' line)")
    psr.add_argument("--telemetry", default=None, metavar="F",
                     help="write serve.request/serve.publish events to this "
                          "jsonl file (default: $REPRO_TELEMETRY sink)")
    psr.set_defaults(fn=_cmd_serve)

    psl = psvsub.add_parser(
        "load", help="drive open/closed-loop query traffic at a service"
    )
    psl.add_argument("--host", default="127.0.0.1")
    psl.add_argument("--port", type=int, required=True)
    psl.add_argument("--requests", type=int, default=500)
    psl.add_argument("--concurrency", type=_positive_int, default=16)
    psl.add_argument("--mode", choices=["closed", "open"], default="closed")
    psl.add_argument("--rate", type=float, default=500.0,
                     help="open-loop Poisson arrival rate, requests/s")
    psl.add_argument("--min-epoch", type=int, default=None, metavar="E",
                     help="keep issuing until a response carries epoch >= E")
    psl.add_argument("--timeout", type=float, default=120.0, metavar="S")
    psl.add_argument("--out", default=None, metavar="F",
                     help="record raw response lines for oracle verification")
    psl.add_argument("--stop", action="store_true",
                     help="send the stop op after the drill")
    psl.set_defaults(fn=_cmd_serve)

    pv = sub.add_parser("validate", help="check P1-P4 on a topology")
    pv.add_argument("topology")
    pv.add_argument("-n", type=int, default=1024)
    pv.add_argument("--probes", type=int, default=10_000)
    pv.set_defaults(fn=_cmd_validate)

    ps = sub.add_parser("simulate", help="run the dynamic epoch protocol")
    ps.add_argument("-n", type=int, default=512)
    ps.add_argument("--beta", type=float, default=0.05)
    ps.add_argument("--epochs", type=int, default=6)
    ps.add_argument("--churn", type=float, default=0.05)
    ps.add_argument("--topology", default="chord")
    ps.add_argument("--probes", type=int, default=2000)
    ps.set_defaults(fn=_cmd_simulate)

    pi = sub.add_parser("info", help="version and registry info")
    pi.set_defaults(fn=_cmd_info)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
