"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``experiments [--quick] [ID ...]``
    Regenerate the paper's experiment tables (default: all of E1-E17).
``sort --algorithm ALG --n N [--k K] [--M M] [--B B] [--omega W]``
    Sort a random permutation and print the cost report.
``tune --n N [--M M] [--B B] [--omega W]``
    Print the Appendix-A k sweep for a machine.
``plan --n N [--M M] [--B B] [--omega W] [--constants FILE]``
    Rank every algorithm by exact predicted asymmetric I/O cost (the
    cost-model planner behind ``SortEngine.sort``) without executing anything;
    ``--constants`` loads a calibrated-constants JSON from ``calibrate``.
``batch --jobs J --n N [--mix S1,S2,...] [--executor thread|process]
[--workers W] [--constants FILE] [--check]``
    Run many adaptive sort jobs concurrently over a mixed workload
    (scenarios from ``repro.workloads.SCENARIOS``) and print the aggregated
    throughput report plus the per-family routing mix.  ``--executor
    process`` shards jobs across worker processes for real multi-core
    scaling.
``calibrate [--sizes N1,N2,...] [--scenario S] [--plan-n N] [--save FILE]``
    Fit per-algorithm leading constants from measured runs, print them, and
    compare the calibrated predicted ranking against the measured-cost
    ranking at a probe size.
``stream [--input FILE] [--random N] [--k K] [--M M] [--B B] [--omega W]``
    Feed records one at a time into the buffer-tree-backed streaming session
    (``SortEngine.stream()``) and print the sorted-drain report.  Records
    come from ``--input`` (one key per line, ``-`` = stdin, lines of the
    form ``del KEY`` delete a live key) or from ``--random N`` (a seeded
    random permutation).

``serve [--host H] [--port P] [--workers W] [--executor thread|process]
[--M M] [--B B] [--omega W] [--constants FILE]``
    Run the persistent engine server: a :class:`~repro.service.SortService`
    pool behind a newline-delimited-JSON line protocol on a local TCP
    socket (``{"op": "submit", "data": [...]}`` in, ticket ids and sorted
    results out — see :mod:`repro.service.server`).  ``--port 0`` binds an
    ephemeral port and prints it.  Stop with Ctrl-C or the ``shutdown`` op.

``cluster [--servers N] [--n N] [--jobs J] [--workers W] [--check]``
    Spawn N local serve subprocesses, scatter-gather one large job across
    them (central splitter sampling + per-host shard sorts + a billed
    ``shardmerge``), route a stream of small jobs to the least-loaded
    host, print per-host and aggregate cluster stats, then drain-shutdown
    the fleet.  ``--check`` additionally asserts parity with a
    single-engine ``SortEngine.sort`` run.

``chaos [--seed N] [--drills D1,D2,...] [--twice]``
    Run the deterministic fault-injection drills (worker death, wire
    drops, torn lines, slow hosts, timeout storms, host kill-and-rejoin)
    against real in-process services and subprocess fleets; a fixed seed
    replays the identical storm (``--twice`` verifies that on the spot).

``sort`` / ``batch`` / ``calibrate`` / ``stream`` / ``serve`` all route
through one :class:`~repro.engine.SortEngine`, so a single plan cache and
constants set serves every job of a command invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .analysis.ktuning import sweep_k
from .analysis.tables import format_table
from .engine import SortEngine
from .experiments import ALL_EXPERIMENTS
from .models.params import MachineParams
from .planner import (
    CostConstants,
    SortJob,
    compare_rankings,
    fit_constants,
    measure_samples,
    rank_plans,
)
from .workloads import SCENARIOS, make_scenario, random_permutation


def _cmd_experiments(args: argparse.Namespace) -> int:
    wanted = [w.upper() for w in args.ids] or list(ALL_EXPERIMENTS)
    unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; choose from {list(ALL_EXPERIMENTS)}")
        return 2
    for name in wanted:
        mod = ALL_EXPERIMENTS[name]
        t0 = time.time()
        rows = mod.run(quick=args.quick)
        print(format_table(rows, title=getattr(mod, "TITLE", name)))
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    engine = SortEngine(params)
    data = random_permutation(args.n, seed=args.seed)
    try:
        rep = engine.sort(data, algorithm=args.algorithm, k=args.k)
    except ValueError as exc:  # e.g. --algorithm ram with n > M
        print(f"cannot run this sort: {exc}")
        return 2
    assert rep.is_sorted()
    print(
        format_table(
            [
                {
                    "algorithm": rep.algorithm,
                    "n": rep.n,
                    "block reads": rep.reads,
                    "block writes": rep.writes,
                    "cost R+wW": rep.cost(),
                    "mem high water": rep.memory_high_water,
                }
            ],
            title=f"sort on {params}",
        )
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    rows = sweep_k(args.n, params, k_max=args.k_max)
    print(format_table(rows, title=f"Appendix-A k sweep for n={args.n} on {params}"))
    best = min(rows, key=lambda r: r["predicted_cost"])
    print(f"\npredicted-best k = {best['k']}")
    return 0


def _load_constants(path: str | None) -> CostConstants | None:
    return CostConstants.load(path) if path else None


def _cmd_plan(args: argparse.Namespace) -> int:
    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    ranked = rank_plans(args.n, params, k_max=args.k_max,
                        constants=_load_constants(args.constants))
    rows = [
        {
            "rank": i,
            "algorithm": c.algorithm,
            "k": c.k if c.k is not None else "-",
            "pred reads": c.predicted_reads,
            "pred writes": c.predicted_writes,
            "pred cost R+wW": c.predicted_cost,
            "model": c.model,
        }
        for i, c in enumerate(ranked)
    ]
    print(format_table(rows, title=f"predicted plan for n={args.n} on {params}"))
    best = ranked[0]
    k_note = f" with k={best.k}" if best.k is not None else ""
    print(f"\nchosen: {best.algorithm}{k_note} (predicted cost {best.predicted_cost:g})")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    mix = [s.strip() for s in args.mix.split(",") if s.strip()]
    unknown = [s for s in mix if s not in SCENARIOS]
    if not mix or unknown:
        print(f"unknown scenarios: {unknown or args.mix!r}; choose from {sorted(SCENARIOS)}")
        return 2
    rng = random.Random(args.seed)
    n_lo = args.min_n if args.min_n is not None else max(1, args.n // 4)
    jobs = []
    for i in range(args.jobs):
        scenario = mix[i % len(mix)]
        n = rng.randint(min(n_lo, args.n), args.n)
        jobs.append(
            SortJob(
                data=make_scenario(scenario, n, seed=args.seed + i),
                params=params,
                label=f"{scenario}/n={n}",
                algorithm=args.algorithm,
            )
        )
    t0 = time.time()
    engine = SortEngine(
        params,
        constants=_load_constants(args.constants),
        executor=args.executor,
        workers=args.workers,
    )
    report = engine.batch(jobs, check_sorted=args.check)
    print(
        format_table(
            [report.summary()],
            title=f"batch of {args.jobs} jobs on {params} [{args.executor}]",
        )
    )
    print()
    print(format_table(report.mix_rows(), title="per-algorithm routing mix"))
    for f in report.failures:
        print(f"FAILED job {f.index} ({f.label}): {f.error!r}")
    print(f"\n[{args.jobs} jobs, {len(report.failures)} failed, {time.time() - t0:.1f}s]")
    return 1 if report.failures else 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    if not sizes:
        print(f"no calibration sizes in {args.sizes!r}")
        return 2
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; choose from {sorted(SCENARIOS)}")
        return 2
    samples = measure_samples(params, sizes=sizes, scenario=args.scenario, seed=args.seed)
    constants = fit_constants(samples)
    rows = [
        {"family": fam, "read const": round(cr, 4), "write const": round(cw, 4)}
        for fam, cr, cw in constants.entries
    ]
    print(
        format_table(
            rows,
            title=f"calibrated constants on {params} "
            f"(sizes={list(sizes)}, scenario={args.scenario})",
        )
    )
    # measured-vs-predicted ranking check at the probe size
    probe = args.plan_n if args.plan_n is not None else max(sizes)
    families = tuple(dict.fromkeys(s.family for s in samples))
    comparison = compare_rankings(
        params,
        constants,
        probe,
        algorithms=families,
        scenario=args.scenario,
        seed=args.seed + len(sizes),
    )
    rows = [
        {
            "rank": i,
            "predicted": cand.algorithm,
            "pred cost": round(cand.predicted_cost, 1),
            "measured": comparison.measured_order[i],
            "meas cost": comparison.measured_costs[comparison.measured_order[i]],
        }
        for i, cand in enumerate(comparison.ranked)
    ]
    print()
    print(format_table(rows, title=f"calibrated vs measured ranking at n={probe}"))
    print(f"\nranking agreement: {'yes' if comparison.agree else 'NO'}")
    if args.save:
        constants.save(args.save)
        print(f"constants written to {args.save}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import EngineServer, SortService

    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    engine = SortEngine(
        params,
        constants=_load_constants(args.constants),
        executor=args.executor,
        workers=args.workers,
    )
    service = SortService(
        engine,
        max_queue=args.max_queue,
        admission=args.admission,
        block_timeout=args.block_timeout,
    )
    try:
        server = EngineServer(
            service,
            host=args.host,
            port=args.port,
            ticket_ttl=args.ticket_ttl,
            max_tickets=args.max_tickets,
            max_client_tickets=args.max_client_tickets,
        )
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}")
        service.shutdown(drain=False)
        return 2
    host, port = server.address
    print(
        f"serving sort jobs on {host}:{port} "
        f"[{params}, workers={service.workers}, executor={service.executor}] — "
        "newline-delimited JSON, e.g. {\"op\": \"submit\", \"data\": [5, 3, 1]}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.close()
        service.shutdown(drain=False)
        engine.close()
    stats = service.stats()
    print(
        f"server stopped: {stats['completed']} jobs completed, "
        f"{stats['cancelled']} cancelled, {stats['respawns']} worker respawns",
        flush=True,
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import LocalCluster

    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    t0 = time.time()
    with LocalCluster(
        args.servers, workers=args.workers, executor=args.executor, params=params
    ) as fleet:
        coord = fleet.connect(retries=args.retries)
        try:
            # one huge job, scatter-gathered across the fleet
            data = random_permutation(args.n, seed=args.seed)
            rep = coord.sort(data, check_sorted=args.check)
            if args.check:
                if not rep.is_sorted():
                    print("ERROR: cluster output is not sorted")
                    return 1
                with SortEngine(params) as engine:
                    ref = engine.sort(data)
                if rep.output != ref.output:
                    print("ERROR: cluster output differs from single-engine sort")
                    return 1
            print(
                format_table(
                    [
                        {
                            "hosts": rep.extras["hosts"],
                            "n": rep.n,
                            "merge reads": rep.reads,
                            "merge writes": rep.writes,
                            "merge cost R+wW": rep.cost(),
                            "remote reads": rep.extras["remote_reads"],
                            "remote writes": rep.extras["remote_writes"],
                            "retries": rep.extras["retries"],
                        }
                    ],
                    title=f"scatter-gather of n={args.n} on {params} "
                    f"[{args.servers} servers]",
                )
            )
            # a stream of small jobs, routed to the least-loaded host
            rng = random.Random(args.seed)
            handles = []
            for i in range(args.jobs):
                n = rng.randint(max(1, args.small_n // 2), args.small_n)
                handles.append(
                    coord.submit(
                        make_scenario("uniform", n, seed=args.seed + i),
                        label=f"small{i}",
                        check_sorted=args.check,
                    )
                )
            results = coord.gather(handles)
            stats = coord.stats()
            agg = stats["aggregate"]
            print()
            print(
                format_table(
                    [
                        {
                            "routed jobs": agg["routed_jobs"],
                            "scatter jobs": agg["scatter_jobs"],
                            "live hosts": agg["live_hosts"],
                            "records/s": round(agg["records_per_sec"], 1),
                            "retries": agg["retries"],
                            "rebalances": agg["rebalances"],
                        }
                    ],
                    title=f"cluster aggregate after {len(results)} routed jobs",
                )
            )
            print()
            print(
                format_table(
                    [
                        {
                            "host": f"{h['host']}:{h['port']}",
                            "alive": h["alive"],
                            "completed": h.get("completed", "-"),
                            "queued": h.get("queued", "-"),
                            "tickets": h.get("tickets", "-"),
                            "records/s": h.get("records_per_sec", "-"),
                        }
                        for h in stats["per_host"]
                    ],
                    title="per-host stats",
                )
            )
            coord.shutdown()
            fleet.wait()
        finally:
            coord.close()
    print(f"\n[{args.servers} servers drained and stopped, {time.time() - t0:.1f}s]")
    return 0


def _parse_stream_line(line: str):
    """One input line → ``("del", key)`` or ``("push", key)`` or ``None``.

    Keys parse as int when possible, float next, raw string otherwise (all
    keys in one stream must stay mutually comparable).
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    op = "push"
    if line.startswith("del "):
        op, line = "del", line[4:].strip()
    try:
        key = int(line)
    except ValueError:
        try:
            key = float(line)
        except ValueError:
            key = line
    return op, key


def _cmd_stream(args: argparse.Namespace) -> int:
    params = MachineParams(M=args.M, B=args.B, omega=args.omega)
    engine = SortEngine(params)
    t0 = time.time()
    session = engine.stream(k=args.k)
    if args.random is not None:
        session.push_many(random_permutation(args.random, seed=args.seed))
    else:
        try:
            fh = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
        except OSError as exc:
            print(f"cannot read records from {args.input!r}: {exc}")
            return 2
        try:
            for lineno, raw in enumerate(fh, start=1):
                parsed = _parse_stream_line(raw)
                if parsed is None:
                    continue
                op, key = parsed
                try:
                    if op == "del":
                        session.delete(key)
                    else:
                        session.push(key)
                except (KeyError, TypeError) as exc:
                    # delete of an absent key, or mutually incomparable keys
                    print(f"bad record at line {lineno} ({raw.strip()!r}): {exc}")
                    return 1
        finally:
            if fh is not sys.stdin:
                fh.close()
    try:
        rep = session.close()
    except TypeError as exc:  # incomparable keys caught at the drain
        print(f"cannot drain stream: {exc}")
        return 1
    wall = time.time() - t0
    if args.check and not rep.is_sorted():
        print("ERROR: drained output is not sorted")
        return 1
    ingested = session.pushed + session.deleted
    print(
        format_table(
            [
                {
                    "records": rep.n,
                    "pushed": session.pushed,
                    "deleted": session.deleted,
                    "block reads": rep.reads,
                    "block writes": rep.writes,
                    "cost R+wW": rep.cost(),
                    "records/s": round(ingested / wall, 1) if wall > 0 else 0.0,
                }
            ],
            title=f"streaming session on {params} [buffer tree, k={session.k}]",
        )
    )
    print()
    print(
        format_table(
            [
                {
                    "emptyings": rep.extras["emptyings"],
                    "leaf splits": rep.extras["leaf_splits"],
                    "internal splits": rep.extras["internal_splits"],
                    "annihilations": rep.extras["annihilations"],
                    "pred reads": round(rep.extras["predicted_reads"], 1),
                    "pred writes": round(rep.extras["predicted_writes"], 1),
                }
            ],
            title="buffer-tree statistics vs unit-constant prediction",
        )
    )
    return 0


def _parse_machines(spec: str) -> tuple[MachineParams, ...]:
    """``"64:8:8,256:16:4"`` → machine tuple (M:B:omega per entry)."""
    machines = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad machine spec {chunk!r} (want M:B:omega)")
        m, b, w = (int(p) for p in parts)
        machines.append(MachineParams(M=m, B=b, omega=w))
    if not machines:
        raise ValueError(f"no machines in {spec!r}")
    return tuple(machines)


def _cmd_certify(args: argparse.Namespace) -> int:
    from .analysis import boundcheck

    kernels = None
    if args.kernels:
        kernels = [s.strip() for s in args.kernels.split(",") if s.strip()]
    machines = sizes = None
    try:
        if args.machines:
            machines = _parse_machines(args.machines)
        if args.sizes:
            sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError as exc:
        print(f"certify: error: {exc}", file=sys.stderr)
        return 2

    t0 = time.time()
    try:
        result = boundcheck.certify(
            kernels=kernels,
            machines=machines,
            sizes=sizes,
            quick=args.quick,
            seed=args.seed,
            use_iosan=not args.no_iosan,
        )
    except (KeyError, boundcheck.CertificationError) as exc:
        print(f"certify: error: {exc}", file=sys.stderr)
        return 2
    paths = boundcheck.write_certificates(result, args.out)

    if args.format == "json":
        record = {
            "passed": result.ok,
            "registry_errors": list(result.registry_errors),
            "failures": result.failures(),
            "artifacts": paths,
        }
        json.dump(record, sys.stdout, indent=2)
        print()
    else:
        rows = []
        for cert in result.certificates:
            for mc in cert.machines:
                bad = sum(len(s.failures) for s in mc.samples)
                rows.append(
                    {
                        "kernel": cert.kernel,
                        "theorem": cert.theorem,
                        "kind": cert.kind,
                        "machine": f"M={mc.params.M} B={mc.params.B} w={mc.params.omega}",
                        "read const": round(mc.read_constant, 3),
                        "write const": round(mc.write_constant, 3),
                        "samples": len(mc.samples),
                        "violations": bad,
                    }
                )
        print(format_table(rows, title="theorem-envelope certification"))
        for err in result.registry_errors:
            print(f"REGISTRY: {err}")
        for line in result.failures():
            print(f"FAILED: {line}")
        verdict = "PASSED" if result.ok else "FAILED"
        print(
            f"\ncertify {verdict}: {len(result.certificates)} kernel(s), "
            f"{len(paths)} artifact(s) in {args.out} "
            f"[{time.time() - t0:.1f}s]"
        )
    return 0 if result.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .testing import chaos

    names = [s.strip() for s in args.drills.split(",") if s.strip()] or None
    unknown = [n for n in names or () if n not in chaos.DRILLS]
    if unknown:
        print(f"unknown drills: {unknown}; choose from {sorted(chaos.DRILLS)}")
        return 2
    t0 = time.time()
    rows = []
    for name in names or list(chaos.DRILLS):
        row = chaos.run_drill(name, seed=args.seed)
        if args.twice:
            replay = chaos.run_drill(name, seed=args.seed)
            stable = all(
                replay.get(k) == v
                for k, v in row.items()
                if k not in chaos.NONDETERMINISTIC_KEYS
            )
            row["deterministic"] = stable
            row["ok"] = row["ok"] and replay["ok"] and stable
        rows.append(row)
    # drills return heterogeneous columns; print one table per drill
    for row in rows:
        print(format_table([row], title=f"chaos drill: {row['drill']} "
                                        f"(seed={args.seed})"))
        print()
    failed = [r["drill"] for r in rows if not r["ok"]]
    verdict = "PASSED" if not failed else f"FAILED ({', '.join(failed)})"
    print(f"chaos {verdict}: {len(rows)} drill(s) [{time.time() - t0:.1f}s]")
    return 0 if not failed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import reprolint

    argv = list(args.paths)
    argv += ["--format", args.format, "--root", args.root]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.write_baseline:
        argv += ["--write-baseline", args.write_baseline]
    for name in args.rules or ():
        argv += ["--rule", name]
    if args.jobs != 1:
        argv += ["--jobs", str(args.jobs)]
    if args.no_cache:
        argv += ["--no-cache"]
    if args.cache_file:
        argv += ["--cache-file", args.cache_file]
    if args.explain:
        argv += ["--explain", args.explain]
    if args.dump_graphs:
        argv += ["--dump-graphs", args.dump_graphs]
    return reprolint.main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sorting with Asymmetric Read and Write Costs (SPAA 2015) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate experiment tables")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_exp.add_argument("--quick", action="store_true", help="reduced grids")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_sort = sub.add_parser("sort", help="run one instrumented sort")
    p_sort.add_argument("--algorithm", default="mergesort",
                        choices=["auto", "mergesort", "samplesort", "heapsort",
                                 "selection", "ram"])
    p_sort.add_argument("--n", type=int, default=10_000)
    p_sort.add_argument("--k", type=int, default=None)
    p_sort.add_argument("--M", type=int, default=64)
    p_sort.add_argument("--B", type=int, default=8)
    p_sort.add_argument("--omega", type=int, default=8)
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.set_defaults(fn=_cmd_sort)

    p_tune = sub.add_parser("tune", help="Appendix-A k sweep")
    p_tune.add_argument("--n", type=int, default=100_000)
    p_tune.add_argument("--M", type=int, default=64)
    p_tune.add_argument("--B", type=int, default=8)
    p_tune.add_argument("--omega", type=int, default=8)
    p_tune.add_argument("--k-max", type=int, default=None)
    p_tune.set_defaults(fn=_cmd_tune)

    p_plan = sub.add_parser("plan", help="rank algorithms by predicted cost")
    p_plan.add_argument("--n", type=int, default=10_000)
    p_plan.add_argument("--M", type=int, default=64)
    p_plan.add_argument("--B", type=int, default=8)
    p_plan.add_argument("--omega", type=int, default=8)
    p_plan.add_argument("--k-max", type=int, default=None)
    p_plan.add_argument("--constants", default=None, metavar="FILE",
                        help="calibrated-constants JSON (from `calibrate --save`)")
    p_plan.set_defaults(fn=_cmd_plan)

    p_batch = sub.add_parser("batch", help="run many adaptive sorts concurrently")
    p_batch.add_argument("--jobs", type=int, default=50)
    p_batch.add_argument("--n", type=int, default=2_000,
                         help="max records per job (per-job n drawn in [min-n, n])")
    p_batch.add_argument("--min-n", type=int, default=None,
                         help="min records per job (default: n//4)")
    p_batch.add_argument("--mix", default="uniform,presorted,reversed,duplicates",
                         help=f"comma-separated scenarios from {sorted(SCENARIOS)}")
    p_batch.add_argument("--algorithm", default=None,
                         choices=["mergesort", "samplesort", "heapsort", "selection", "ram"],
                         help="pin every job to one algorithm (default: plan per job)")
    p_batch.add_argument("--M", type=int, default=64)
    p_batch.add_argument("--B", type=int, default=8)
    p_batch.add_argument("--omega", type=int, default=8)
    p_batch.add_argument("--executor", default="thread", choices=["thread", "process"],
                         help="thread: shared pool (GIL-bound); process: sharded "
                              "across worker processes for multi-core scaling")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="pool width (threads or worker processes)")
    p_batch.add_argument("--constants", default=None, metavar="FILE",
                         help="calibrated-constants JSON (from `calibrate --save`)")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--check", action="store_true",
                         help="verify every output is sorted")
    p_batch.set_defaults(fn=_cmd_batch)

    p_cal = sub.add_parser(
        "calibrate",
        help="fit per-algorithm leading constants from measured runs",
    )
    p_cal.add_argument("--sizes", default="512,2048,8192",
                       help="comma-separated calibration workload sizes")
    p_cal.add_argument("--scenario", default="uniform",
                       help=f"workload scenario from {sorted(SCENARIOS)}")
    p_cal.add_argument("--plan-n", type=int, default=None,
                       help="probe size for the ranking check (default: max size)")
    p_cal.add_argument("--M", type=int, default=64)
    p_cal.add_argument("--B", type=int, default=8)
    p_cal.add_argument("--omega", type=int, default=8)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--save", default=None, metavar="FILE",
                       help="write the fitted constants as JSON")
    p_cal.set_defaults(fn=_cmd_calibrate)

    p_stream = sub.add_parser(
        "stream",
        help="ingest records incrementally through the buffer-tree stream",
    )
    p_stream.add_argument("--input", default="-", metavar="FILE",
                          help="records file, one key per line ('del KEY' "
                               "deletes; '-' = stdin)")
    p_stream.add_argument("--random", type=int, default=None, metavar="N",
                          help="ignore --input and push a seeded random "
                               "permutation of N records")
    p_stream.add_argument("--k", type=int, default=None,
                          help="buffer-tree extra branching factor "
                               "(default: Appendix-A recipe)")
    p_stream.add_argument("--M", type=int, default=64)
    p_stream.add_argument("--B", type=int, default=8)
    p_stream.add_argument("--omega", type=int, default=8)
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument("--check", action="store_true",
                          help="verify the drained output is sorted")
    p_stream.set_defaults(fn=_cmd_stream)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent engine server (sort jobs over a socket)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral, printed at startup)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker pool width (default: executor-dependent)")
    p_serve.add_argument("--executor", default="thread",
                         choices=["thread", "process"],
                         help="thread: shared pool (GIL-bound); process: "
                              "persistent worker processes for multi-core scaling")
    p_serve.add_argument("--M", type=int, default=64)
    p_serve.add_argument("--B", type=int, default=8)
    p_serve.add_argument("--omega", type=int, default=8)
    p_serve.add_argument("--constants", default=None, metavar="FILE",
                         help="calibrated-constants JSON (from `calibrate --save`)")
    p_serve.add_argument("--ticket-ttl", type=float, default=None, metavar="SECONDS",
                         help="evict finished result tickets this long after "
                              "completion (default: only on consumption)")
    p_serve.add_argument("--max-tickets", type=int, default=None, metavar="N",
                         help="cap the ticket registry, evicting the oldest "
                              "finished tickets beyond N")
    p_serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                         help="bound the pending job queue at N (default: "
                              "unbounded); overload follows --admission")
    p_serve.add_argument("--admission", default="reject",
                         choices=["reject", "block", "shed-lowest"],
                         help="bounded-queue overload policy: reject new "
                              "work, block the submitter, or shed the "
                              "lowest-priority pending job")
    p_serve.add_argument("--block-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="admission deadline for --admission block "
                              "(default: wait indefinitely)")
    p_serve.add_argument("--max-client-tickets", type=int, default=None,
                         metavar="N",
                         help="per-client live-ticket quota (default: "
                              "unlimited); excess submits get 'quota "
                              "exceeded' with a retry_after hint")
    p_serve.set_defaults(fn=_cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="spawn a local server fleet and run scatter-gather + routed jobs",
    )
    p_cluster.add_argument("--servers", type=int, default=3,
                           help="local serve subprocesses to spawn")
    p_cluster.add_argument("--n", type=int, default=100_000,
                           help="records in the scatter-gathered job")
    p_cluster.add_argument("--jobs", type=int, default=20,
                           help="small jobs routed to least-loaded hosts")
    p_cluster.add_argument("--small-n", type=int, default=2_000,
                           help="max records per routed small job")
    p_cluster.add_argument("--workers", type=int, default=None,
                           help="worker pool width per server")
    p_cluster.add_argument("--executor", default="thread",
                           choices=["thread", "process"],
                           help="per-server pool executor")
    p_cluster.add_argument("--retries", type=int, default=2,
                           help="resubmissions allowed per job on host death")
    p_cluster.add_argument("--M", type=int, default=64)
    p_cluster.add_argument("--B", type=int, default=8)
    p_cluster.add_argument("--omega", type=int, default=8)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--check", action="store_true",
                           help="verify outputs and parity with single-engine "
                                "sort")
    p_cluster.set_defaults(fn=_cmd_cluster)

    p_cert = sub.add_parser(
        "certify",
        help="certify measured kernel costs against their theorem envelopes",
    )
    p_cert.add_argument("--quick", action="store_true",
                        help="reduced machine/size grid for CI smoke runs")
    p_cert.add_argument("--kernels", default=None, metavar="K1,K2,...",
                        help="comma-separated kernel names (default: every "
                             "contracted kernel)")
    p_cert.add_argument("--sizes", default=None, metavar="N1,N2,...",
                        help="comma-separated input sizes (default: contract grid)")
    p_cert.add_argument("--machines", default=None, metavar="M:B:w,...",
                        help="comma-separated machine specs, M:B:omega each "
                             "(default: contract grid)")
    p_cert.add_argument("--seed", type=int, default=1)
    p_cert.add_argument("--out", default=os.path.join("benchmarks", "results"),
                        metavar="DIR",
                        help="directory for CERT_*.json artifacts "
                             "(default: benchmarks/results)")
    p_cert.add_argument("--no-iosan", action="store_true",
                        help="skip the uncharged-I/O sanitizer during runs")
    p_cert.add_argument("--format", choices=["text", "json"], default="text")
    p_cert.set_defaults(fn=_cmd_certify)

    p_chaos = sub.add_parser(
        "chaos",
        help="run deterministic fault-injection drills against real "
             "services and fleets",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-plan seed (fixed seed = identical drill)")
    p_chaos.add_argument("--drills", default="", metavar="D1,D2,...",
                         help="comma-separated drill names (default: all); "
                              "see repro.testing.chaos.DRILLS")
    p_chaos.add_argument("--twice", action="store_true",
                         help="run each drill twice and verify the replay "
                              "reproduces the same counts")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's cost-accounting / lock-discipline linter",
    )
    p_lint.add_argument("paths", nargs="*", default=["src", "benchmarks"],
                        help="files or directories (default: src benchmarks)")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument("--rule", action="append", dest="rules", metavar="NAME",
                        help="run only the named rule (repeatable)")
    p_lint.add_argument("--baseline", default=None, metavar="FILE",
                        help="JSON baseline of grandfathered findings")
    p_lint.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write current findings to FILE and exit 0")
    p_lint.add_argument("--root", default=".",
                        help="repo root for scoped rule paths")
    p_lint.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint stale files across N worker processes")
    p_lint.add_argument("--no-cache", action="store_true",
                        help="disable the mtime-keyed findings cache")
    p_lint.add_argument("--cache-file", default=None, metavar="FILE",
                        help="cache location (default: <root>/.reprolint_cache.json)")
    p_lint.add_argument("--explain", default=None, metavar="RULE",
                        help="print the named rule's contract and exit")
    p_lint.add_argument("--dump-graphs", default=None, metavar="DIR",
                        help="serialize the call graph and static lock-order "
                             "graph under DIR and exit")
    p_lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
