"""Command-line entry points of the live serving layer.

::

    python -m repro.serve live-shootout                # all six policies
    python -m repro.serve live-shootout --policies max,minmax \\
        --family bursty --index 2 --time-scale 0.02   # quick subset
    python -m repro.serve chaos-shootout --fault-seed 7   # under faults
    python -m repro.serve replay --policy pmm          # one live run
    python -m repro.serve serve --port 7070 --policy pmm  # TCP server
    python -m repro.serve route --shards 2 --tenants 2 # routed shard farm
    python -m repro.serve recover --journal broker.jsonl  # crash replay

``live-shootout`` replays one generated scenario through the live
gateway once per policy and prints the measured miss ratios beside the
simulator's prediction for the same workload; it exits non-zero if any
live cross-check fails.  ``chaos-shootout`` does the same under one
seeded :class:`~repro.serve.faults.FaultSchedule` (disk outages,
memory thieves, policy faults) and gates on the survival invariants
instead of fidelity.  Both shootouts take ``--json PATH`` to also
write the schema-versioned unified report -- the supported machine
interface for scripting against shootout results.  ``serve`` accepts JSON-lines submissions (see
:mod:`repro.serve.server` for the protocol); with ``--journal`` it
writes every broker operation to a crash journal that ``recover``
replays to a conserved ledger after a kill.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.policies import DEFAULT_POLICIES, make_policy


def _split_tokens(text):
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _add_scenario_flags(parser) -> None:
    parser.add_argument("--family", default="mix", help="scenario family")
    parser.add_argument("--index", type=int, default=0, help="scenario index")
    parser.add_argument(
        "--scenario-seed", type=int, default=0, help="scenario-generator seed"
    )


def _add_live_flags(parser) -> None:
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.05,
        help="wall seconds per simulated second (smaller = faster replay)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-pool width (default: num_disks + 1)",
    )
    parser.add_argument(
        "--horizon", type=float, default=None, help="clip the scenario horizon (sim s)"
    )
    parser.add_argument(
        "--max-arrivals", type=int, default=None, help="cap the submitted queries"
    )
    parser.add_argument(
        "--no-invariants", action="store_true", help="skip the runtime checkers"
    )


def _add_json_flag(parser) -> None:
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the schema-versioned unified report as JSON "
        "(the supported machine interface; see repro/analysis/report.py)",
    )


def _cmd_live_shootout(args) -> int:
    from repro.serve.shootout import live_shootout

    policies = _split_tokens(args.policies) if args.policies else DEFAULT_POLICIES
    for spec in policies:
        make_policy(spec)  # fail on typos before any live run
    report = live_shootout(
        policies=policies,
        family=args.family,
        index=args.index,
        scenario_seed=args.scenario_seed,
        time_scale=args.time_scale,
        workers=args.workers,
        horizon=args.horizon,
        max_arrivals=args.max_arrivals,
        invariants=not args.no_invariants,
        predict=not args.no_predict,
        jobs=args.jobs,
        tenants=args.tenants,
        shards=args.shards,
    )
    print(report.render())
    if args.json:
        report.save_json(args.json)
        print(f"\n[json] report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_chaos_shootout(args) -> int:
    from repro.serve.shootout import chaos_shootout

    policies = _split_tokens(args.policies) if args.policies else DEFAULT_POLICIES
    for spec in policies:
        make_policy(spec)  # fail on typos before any live run
    report = chaos_shootout(
        policies=policies,
        family=args.family,
        index=args.index,
        scenario_seed=args.scenario_seed,
        fault_seed=args.fault_seed,
        time_scale=args.time_scale,
        workers=args.workers,
        horizon=args.horizon,
        max_arrivals=args.max_arrivals,
        invariants=not args.no_invariants,
    )
    print(report.render())
    if args.json:
        report.save_json(args.json)
        print(f"\n[json] report written to {args.json}")
    if not report.ok:
        print(
            "\nreproduce with:\n  PYTHONPATH=src python -m repro.serve "
            f"chaos-shootout --family {args.family} --index {args.index} "
            f"--scenario-seed {args.scenario_seed} "
            f"--fault-seed {args.fault_seed} "
            f"--time-scale {args.time_scale}"
        )
    return 0 if report.ok else 1


def _cmd_recover(args) -> int:
    from repro.serve.faults import recover_journal

    ledger = recover_journal(args.journal)
    print(ledger.render())
    return 0 if ledger.clean else 1


def _cmd_replay(args) -> int:
    from repro.scenarios import ScenarioGenerator
    from repro.serve.gateway import run_live

    scenario = ScenarioGenerator(args.scenario_seed).generate(args.family, args.index)
    report = asyncio.run(
        run_live(
            scenario.config,
            args.policy,
            time_scale=args.time_scale,
            workers=args.workers,
            horizon=args.horizon,
            max_arrivals=args.max_arrivals,
            invariants=not args.no_invariants,
        )
    )
    print(f"scenario        : {scenario.name} ({scenario.content_hash[:10]})")
    print(f"policy          : {report.policy}")
    print(f"served / missed : {report.served} / {report.missed} "
          f"(miss ratio {report.miss_ratio:.3f})")
    for name, stats in sorted(report.per_class.items()):
        print(f"  class {name:12s}: served={stats.served} missed={stats.missed} "
              f"miss_ratio={stats.miss_ratio:.3f}")
    print(f"wall / sim      : {report.wall_seconds:.2f} s / "
          f"{report.sim_seconds:.1f} s (scale {report.time_scale})")
    print(f"throughput      : {report.queries_per_sec:.1f} queries/s")
    print(f"observed MPL    : {report.observed_mpl:.2f}")
    print(f"decisions       : {report.decisions} "
          f"({report.decisions_per_sec:.0f}/s, "
          f"mean {report.decision_latency_mean_us:.0f} us)")
    print(f"data plane      : {report.pages_read} pages read, "
          f"{report.pages_written} written, "
          f"{report.bytes_moved / 1e6:.1f} MB moved")
    print(f"shared pool     : {report.pool_hits} hits / "
          f"{report.pool_misses} misses "
          f"(hit ratio {report.pool_hit_ratio:.3f})")
    print(f"disk contention : busy {sum(report.disk_busy):.2f} s, "
          f"queued {report.disk_queue_seconds:.2f} s wall "
          f"({report.disk_queue_sim_seconds:.1f} sim s)")
    return 0


async def _wait_for_stop_signal() -> None:
    """Return once SIGINT or SIGTERM arrives."""
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
    except NotImplementedError:
        # Windows event loops: fall back to plain signal handlers
        # (they run on the main thread, which runs the loop).
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(
                signum, lambda *_args: loop.call_soon_threadsafe(stop.set)
            )
    await stop.wait()


def _drain_verdict(final: dict) -> tuple:
    """The router's drain verdict: conservation held, broke, or could
    not be checked because a shard was unreachable."""
    conservation = final["conservation"]
    if final["unreachable"]:
        return False, f"UNVERIFIED: shard(s) {final['unreachable']} unreachable"
    if conservation["complete"]:
        return True, "ok"
    return False, f"VIOLATED {conservation}"


def _scenario(args):
    """The scenario ``--tenants`` (or else ``--family``/``--index``) names."""
    from repro.scenarios import ScenarioGenerator
    from repro.serve.shootout import find_multitenant_scenario

    generator = ScenarioGenerator(args.scenario_seed)
    if args.tenants is not None:
        return find_multitenant_scenario(generator, args.tenants, args.index)
    return generator.generate(args.family, args.index)


def _cmd_serve(args) -> int:
    from repro.serve.gateway import LiveGateway
    from repro.serve.server import LiveServer

    scenario = _scenario(args)
    config = scenario.config
    shard = None
    if args.of > 1:
        from repro.serve.shard import shard_config

        config = shard_config(config, args.shard_id, args.of)
        shard = (args.shard_id, args.of)

    recorder = None
    if args.journal:
        from repro.serve.faults import JournalRecorder

        recorder = JournalRecorder.for_policy(args.journal, args.policy, config)

    async def main() -> None:
        gateway = LiveGateway(
            config,
            args.policy,
            time_scale=args.time_scale,
            workers=args.workers,
            invariants=not args.no_invariants,
            recorder=recorder,
            shed_overload=args.shed,
        )
        server = LiveServer(gateway, shard=shard)
        host, port = await server.start(args.host, args.port)
        shard_note = f"shard={shard[0]}/{shard[1]} " if shard else ""
        print(f"repro.serve: policy={gateway.policy.name} "
              f"scenario={scenario.name} {shard_note}listening on "
              f"{host}:{port} (JSON lines; see repro/serve/server.py)",
              flush=True)
        await _wait_for_stop_signal()
        print("repro.serve: draining "
              f"({gateway.broker.present_count} queries in flight)", flush=True)
        await server.close()
        report = gateway.report
        print(f"repro.serve: drained cleanly -- served {report.served} "
              f"({report.missed} missed, {report.shed} shed), "
              f"pool hit ratio {gateway.pool.hit_ratio:.3f}", flush=True)

    try:
        asyncio.run(main())
    finally:
        if recorder is not None:
            recorder.close()
    return 0


def _cmd_route(args) -> int:
    from repro.serve.router import ShardRouter
    from repro.serve.shard import launch_shards

    if args.shards < 1:
        print(f"repro.serve: --shards must be positive, got {args.shards}")
        return 2
    # The ring seeds from the *scenario's* config seed (not the
    # generator seed), so the shootout, a restarted router, and this
    # CLI all place a tenant identically.
    scenario = _scenario(args)

    shards = launch_shards(
        args.shards,
        policy=args.policy,
        tenants=args.tenants,
        family=args.family,
        index=args.index,
        scenario_seed=args.scenario_seed,
        time_scale=args.time_scale,
        shed=args.shed,
    )

    async def main() -> int:
        router = ShardRouter(
            [shard.address for shard in shards],
            ring_seed=scenario.config.seed,
            rebalance_interval=args.rebalance_interval,
            skew_threshold=args.skew_threshold,
        )
        host, port = await router.start(args.host, args.port)
        print(f"repro.serve: router policy={args.policy} "
              f"scenario={scenario.name} shards={args.shards} "
              f"listening on {host}:{port} "
              "(JSON lines; see repro/serve/router.py)",
              flush=True)
        await _wait_for_stop_signal()
        print("repro.serve: router draining", flush=True)
        final = await router.drain_stats()
        await router.close()
        ok, verdict = _drain_verdict(final)
        print(f"repro.serve: router drained "
              f"{'cleanly' if ok else 'with errors'} -- routed "
              f"{final['arrivals']} arrivals across {args.shards} shards, "
              f"{len(final['migrations'])} migrations, "
              f"conservation {verdict}", flush=True)
        return 0 if ok else 1

    exit_code = 1
    try:
        exit_code = asyncio.run(main())
    finally:
        for shard in shards:
            try:
                code = shard.drain()
            except Exception as error:
                print(f"repro.serve: {shard.name} failed to drain: {error}",
                      flush=True)
                shard.kill()
                exit_code = exit_code or 1
                continue
            if code != 0 or not shard.drained_cleanly:
                print(f"repro.serve: {shard.name} exited {code} without "
                      "draining cleanly; output:\n  "
                      + "\n  ".join(shard.lines), flush=True)
                exit_code = exit_code or 1
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve", description=__doc__)
    commands = parser.add_subparsers(dest="command")

    shootout = commands.add_parser(
        "live-shootout", help="all policies serve the same scenario live"
    )
    shootout.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy specs (default: the registry's six)",
    )
    _add_scenario_flags(shootout)
    _add_live_flags(shootout)
    shootout.add_argument(
        "--no-predict",
        action="store_true",
        help="skip the simulator-prediction column",
    )
    shootout.add_argument(
        "--jobs", type=int, default=None, help="worker processes for the predictions"
    )
    shootout.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="multi-tenant mode: serve the first multitenant scenario with "
        "exactly N tenants, tagging and cross-checking per-tenant traffic",
    )
    shootout.add_argument(
        "--shards",
        type=int,
        default=None,
        help="routed mode (requires --tenants): replay through N in-process "
        "shard servers behind the consistent-hash router, starting from a "
        "deliberately packed placement so the rebalancer must migrate; "
        "cross-checks switch from DES fidelity to conservation",
    )
    _add_json_flag(shootout)

    chaos = commands.add_parser(
        "chaos-shootout",
        help="all policies serve one scenario under an identical fault schedule",
    )
    chaos.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy specs (default: the registry's six)",
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=0, help="fault-schedule seed"
    )
    _add_scenario_flags(chaos)
    chaos.set_defaults(family="memorythief")
    _add_live_flags(chaos)
    _add_json_flag(chaos)

    recover = commands.add_parser(
        "recover", help="replay a crash journal to a conserved ledger"
    )
    recover.add_argument(
        "--journal", required=True, help="path to a broker journal (JSON lines)"
    )

    replay = commands.add_parser("replay", help="one policy, one scenario, live")
    replay.add_argument("--policy", default="pmm", help="policy spec")
    _add_scenario_flags(replay)
    _add_live_flags(replay)

    serve = commands.add_parser("serve", help="JSON-lines TCP submission server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7070)
    serve.add_argument("--policy", default="pmm", help="policy spec")
    serve.add_argument(
        "--shard-id",
        type=int,
        default=0,
        help="serve shard I of a routed farm (slice of the scenario's "
        "disks and pool pages; requires --of > 1)",
    )
    serve.add_argument(
        "--of",
        type=int,
        default=1,
        help="total shard count of the routed farm (1 = standalone, "
        "the identity: no resource split at all)",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="serve the first multitenant scenario with exactly N tenants "
        "(tenant submissions map onto its per-tenant classes)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        help="write every broker operation to this crash journal "
        "(replay it with the recover subcommand)",
    )
    serve.add_argument(
        "--shed",
        action="store_true",
        help="reject arrivals whose deadlines the projected backlog "
        "already makes infeasible (structured shed responses)",
    )
    _add_scenario_flags(serve)
    _add_live_flags(serve)

    route = commands.add_parser(
        "route",
        help="consistent-hash router over N shard subprocesses "
        "(each a full serve stack on a slice of the resources)",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=7071)
    route.add_argument("--shards", type=int, default=2, help="shard count")
    route.add_argument("--policy", default="pmm", help="policy spec")
    route.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="shards serve the first multitenant scenario with exactly "
        "N tenants (tenant tags drive the hash-ring placement)",
    )
    route.add_argument(
        "--rebalance-interval",
        type=float,
        default=0.5,
        help="wall seconds between rebalancer passes over the shards' "
        "batch feedback (0 disables migration)",
    )
    route.add_argument(
        "--skew-threshold",
        type=float,
        default=0.5,
        help="migrate when the hottest shard's window load exceeds the "
        "coldest's by this fraction of the mean",
    )
    route.add_argument(
        "--shed",
        action="store_true",
        help="shards reject infeasible arrivals with structured shed "
        "responses instead of queueing doomed work",
    )
    route.add_argument(
        "--time-scale",
        type=float,
        default=0.05,
        help="wall seconds per simulated second on every shard",
    )
    _add_scenario_flags(route)

    tokens = list(sys.argv[1:] if argv is None else argv)
    # Default subcommand: bare flags go to live-shootout.
    known = ("live-shootout", "chaos-shootout", "recover", "replay", "serve",
             "route", "-h", "--help")
    if tokens and tokens[0] not in known:
        tokens = ["live-shootout"] + tokens
    elif not tokens:
        tokens = ["live-shootout"]
    args = parser.parse_args(tokens)
    from repro.serve.gateway import install_uvloop

    install_uvloop()  # optional: a no-op when uvloop is absent
    if args.command == "live-shootout":
        return _cmd_live_shootout(args)
    if args.command == "chaos-shootout":
        return _cmd_chaos_shootout(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "route":
        return _cmd_route(args)
    return _cmd_serve(args)


if __name__ == "__main__":
    raise SystemExit(main())
