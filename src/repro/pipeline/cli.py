"""``hslb`` / ``python -m repro`` command-line interface.

The paper wired HSLB into CESM's run scripts via a Python script that
shipped AMPL models to a NEOS server; this CLI is the local equivalent:

    hslb list                                  # experiment catalogue
    hslb exp t3-1                              # reproduce one table/figure
    hslb exp --all --journal run.jsonl         # crash-safe fleet run
    hslb exp resume --journal run.jsonl        # continue after a hard kill
    hslb exp status --journal run.jsonl        # inspect a run journal
    hslb tune --resolution 1deg --nodes 128    # run the 4-step pipeline
    hslb ampl --resolution 1deg --nodes 128    # print the layout model
    hslb serve --port 7461                     # tuning-as-a-service daemon
    hslb call solve --spec point.json          # ask a running service
    hslb stats --port 7461                     # render a service's statistics
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hslb",
        description="Heuristic static load balancing for coupled climate "
        "models (IPDPSW 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    p_exp = sub.add_parser("exp", help="run one experiment by id (or --all)")
    p_exp.add_argument(
        "id",
        nargs="?",
        help="experiment id (see 'hslb list'), or the special words "
        "'resume' / 'status' operating on --journal",
    )
    p_exp.add_argument("--all", action="store_true", dest="run_all",
                       help="run every registered experiment in order")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="save each finished cell (keyed by its spec hash) and resume "
        "an interrupted batch by replaying only the missing cells",
    )
    fleet = p_exp.add_argument_group("crash-safe fleet execution")
    fleet.add_argument(
        "--journal",
        metavar="FILE",
        help="append every cell start/finish to an fsync'd run journal; "
        "'hslb exp resume --journal FILE' recovers a killed run from it",
    )
    fleet.add_argument(
        "--supervised",
        action="store_true",
        help="run cells under the supervised process pool (crashed/hung "
        "workers respawned, lost cells retried, exhausted cells "
        "quarantined instead of failing the run)",
    )
    fleet.add_argument(
        "--task-deadline",
        type=float,
        metavar="SECONDS",
        help="per-cell wall-clock budget under --supervised; a cell past "
        "it is treated as hung and its worker killed",
    )
    fleet.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        help="dispatch attempts per lost cell under --supervised before "
        "quarantine (default: 4)",
    )
    fleet.add_argument(
        "--chaos",
        metavar="SPEC",
        help="inject deterministic worker faults under --supervised, e.g. "
        "'kill=0.3,hang=0.1,hang_s=5' (testing the fault path)",
    )
    _add_parallel_args(p_exp)

    p_tune = sub.add_parser("tune", help="run the 4-step HSLB pipeline")
    p_tune.add_argument(
        "--spec",
        metavar="FILE",
        help="run the tuning request described by a TuneSpec JSON file "
        "(see 'hslb spec dump'); replaces --resolution/--nodes",
    )
    p_tune.add_argument("--resolution", choices=("1deg", "8th"))
    p_tune.add_argument("--nodes", type=int)
    p_tune.add_argument("--layout", type=int, default=1, choices=(1, 2, 3))
    p_tune.add_argument("--unconstrained-ocean", action="store_true")
    p_tune.add_argument("--points", type=int, default=5,
                        help="benchmark node counts per component")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument(
        "--method", choices=("lpnlp", "bnb", "oracle"), default="lpnlp"
    )
    p_tune.add_argument(
        "--reuse",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="thread a cross-solve reuse family (warm cut pool, root FBBT "
        "presolve) through the MINLP solve; results are bit-identical to "
        "a cold solve (default: off for this single-solve command)",
    )
    _add_resilience_args(p_tune)
    _add_parallel_args(p_tune)

    p_sweep = sub.add_parser(
        "sweep",
        help="what-if sweep: optimally balance a layout at several job "
        "sizes and recommend one (paper Sec. IV-C)",
    )
    p_sweep.add_argument("--resolution", choices=("1deg", "8th"), required=True)
    p_sweep.add_argument(
        "--nodes", type=int, nargs="+", required=True,
        help="candidate total node counts",
    )
    p_sweep.add_argument("--layout", type=int, default=1, choices=(1, 2, 3))
    p_sweep.add_argument("--unconstrained-ocean", action="store_true")
    p_sweep.add_argument("--points", type=int, default=5,
                         help="benchmark node counts per component")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--method", choices=("lpnlp", "bnb", "oracle"), default="lpnlp"
    )
    p_sweep.add_argument(
        "--criterion", choices=("cost_efficient", "fastest"),
        default="cost_efficient",
    )
    p_sweep.add_argument(
        "--reuse",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the candidate solves as one cross-solve reuse family "
        "(default: on for this multi-solve command; results are "
        "bit-identical either way)",
    )
    _add_parallel_args(p_sweep)

    p_ampl = sub.add_parser("ampl", help="print the Table I model as AMPL")
    p_ampl.add_argument("--resolution", choices=("1deg", "8th"), required=True)
    p_ampl.add_argument("--nodes", type=int, required=True)
    p_ampl.add_argument("--layout", type=int, default=1, choices=(1, 2, 3))
    p_ampl.add_argument("--unconstrained-ocean", action="store_true")
    p_ampl.add_argument("--seed", type=int, default=0)

    p_gather = sub.add_parser(
        "gather", help="run benchmark sweeps and save them as JSON"
    )
    p_gather.add_argument("--resolution", choices=("1deg", "8th"), required=True)
    p_gather.add_argument("--nodes", type=int, required=True)
    p_gather.add_argument("--points", type=int, default=5)
    p_gather.add_argument("--seed", type=int, default=0)
    p_gather.add_argument("--out", required=True, help="output JSON path")
    _add_resilience_args(p_gather)
    _add_parallel_args(p_gather)

    p_fit = sub.add_parser(
        "fit", help="fit performance models from saved benchmarks"
    )
    p_fit.add_argument("--benchmarks", required=True, help="input JSON path")
    p_fit.add_argument("--out", required=True, help="output JSON path")

    p_solve = sub.add_parser(
        "solve",
        help="solve the layout MINLP from saved fits (skips gathering, "
        "per paper Sec. III-F)",
    )
    p_solve.add_argument("--fits", required=True, help="fits JSON path")
    p_solve.add_argument("--resolution", choices=("1deg", "8th"), required=True)
    p_solve.add_argument("--nodes", type=int, required=True)
    p_solve.add_argument("--layout", type=int, default=1, choices=(1, 2, 3))
    p_solve.add_argument("--unconstrained-ocean", action="store_true")
    p_solve.add_argument(
        "--method", choices=("lpnlp", "bnb", "oracle"), default="lpnlp"
    )

    p_decomp = sub.add_parser(
        "decomp",
        help="recommend CICE decompositions per task count (ML extension)",
    )
    p_decomp.add_argument("--resolution", choices=("1deg", "8th"), default="1deg")
    p_decomp.add_argument("tasks", type=int, nargs="+", help="MPI task counts")
    p_decomp.add_argument("--seed", type=int, default=0)

    p_spec = sub.add_parser(
        "spec", help="dump and inspect serializable problem specs"
    )
    spec_sub = p_spec.add_subparsers(dest="spec_command", required=True)
    p_dump = spec_sub.add_parser(
        "dump",
        help="describe a tuning request as a TuneSpec JSON file "
        "(replayable anywhere via 'hslb tune --spec')",
    )
    p_dump.add_argument("--resolution", choices=("1deg", "8th"), required=True)
    p_dump.add_argument("--nodes", type=int, required=True)
    p_dump.add_argument("--layout", type=int, default=1, choices=(1, 2, 3))
    p_dump.add_argument("--unconstrained-ocean", action="store_true")
    p_dump.add_argument("--points", type=int, default=5)
    p_dump.add_argument("--seed", type=int, default=0)
    p_dump.add_argument(
        "--method", choices=("lpnlp", "bnb", "oracle"), default="lpnlp"
    )
    p_dump.add_argument(
        "--reuse", action=argparse.BooleanOptionalAction, default=False
    )
    p_dump.add_argument(
        "--with-curves",
        action="store_true",
        help="gather+fit now and pin the fitted curves into the spec, so "
        "replays skip measurement entirely (fully deterministic solves)",
    )
    p_dump.add_argument("--out", metavar="FILE", help="write here (default: stdout)")
    _add_resilience_args(p_dump)
    p_key = spec_sub.add_parser(
        "key", help="print a spec file's structural hash (spec_key)"
    )
    p_key.add_argument("file", help="spec JSON path")

    p_serve = sub.add_parser(
        "serve",
        help="run the tuning service daemon (tiered cache, batching, "
        "admission control)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7461,
                         help="TCP port (0 binds an ephemeral one)")
    p_serve.add_argument(
        "--backend", choices=("serial", "supervised"), default="serial",
        help="solve dispatch: inline on the solver thread, or a supervised "
        "process pool with crash/hang recovery",
    )
    p_serve.add_argument("--workers", type=int, default=None, metavar="N",
                         help="worker processes under --backend supervised")
    p_serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admission bound on in-flight solve requests; arrivals past "
        "it get a typed 'rejected' response (default: 64)",
    )
    p_serve.add_argument(
        "--batch-window", type=float, default=0.02, metavar="SECONDS",
        help="how long to hold a request so compatible ones can join its "
        "batched family solve (default: 0.02)",
    )
    p_serve.add_argument("--max-batch", type=int, default=16, metavar="N",
                         help="largest batched family solve (default: 16)")
    p_serve.add_argument("--exact-capacity", type=int, default=4096,
                         metavar="N", help="exact-tier LRU entries")
    p_serve.add_argument("--warm-capacity", type=int, default=32, metavar="N",
                         help="warm-tier LRU channels (one family each)")
    p_serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline applied when a request names none",
    )
    p_serve.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="per-solve budget under --backend supervised; a solve past it "
        "is treated as hung and its worker killed",
    )
    p_serve.add_argument(
        "--max-retries", type=int, default=4, metavar="N",
        help="dispatch attempts per lost solve before the request is "
        "answered 'poisoned' (default: 4)",
    )
    p_serve.add_argument(
        "--chaos", metavar="SPEC",
        help="inject deterministic worker faults under --backend "
        "supervised, e.g. 'kill=0.3,hang=0.1,hang_s=5'",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--allow-shutdown", action="store_true",
        help="honor client 'shutdown' requests (off by default)",
    )

    p_call = sub.add_parser(
        "call", help="send one request to a running tuning service"
    )
    p_call.add_argument(
        "what", choices=("solve", "tune", "ping", "stats", "shutdown"),
        help="request kind; 'solve' sends a SolvePointSpec file, 'tune' a "
        "TuneSpec file (see 'hslb spec dump')",
    )
    p_call.add_argument("--spec", metavar="FILE",
                        help="spec JSON path (for 'solve' and 'tune')")
    p_call.add_argument("--host", default="127.0.0.1")
    p_call.add_argument("--port", type=int, default=7461)
    p_call.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS", help="per-request deadline")
    p_call.add_argument("--timeout", type=float, default=300.0,
                        metavar="SECONDS", help="client socket timeout")
    p_call.add_argument("--client-id", default="cli", metavar="ID")

    p_stats = sub.add_parser(
        "stats",
        help="fetch a running service's statistics and render them "
        "(tier hit rates, batch sizes, worker supervision, telemetry)",
    )
    p_stats.add_argument("--host", default="127.0.0.1")
    p_stats.add_argument("--port", type=int, default=7461)
    p_stats.add_argument("--timeout", type=float, default=30.0,
                         metavar="SECONDS", help="client socket timeout")
    p_stats.add_argument("--client-id", default="cli", metavar="ID")
    fmt = p_stats.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="print the raw stats payload as JSON")
    fmt.add_argument(
        "--prometheus", action="store_true",
        help="print the daemon's telemetry snapshot in Prometheus text "
        "exposition format (daemon must run with REPRO_TELEMETRY=1)",
    )
    return parser


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--fault-profile",
        metavar="SPEC",
        help="inject deterministic faults, e.g. "
        "'crash=0.2,outlier=0.05,mult=10,hot.atm=0.3'",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        help="benchmark retry attempts per point (enables the resilient path)",
    )
    group.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for gather+solve; past it the pipeline "
        "degrades instead of starting new work",
    )


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    from repro.parallel import EXECUTOR_KINDS

    group = parser.add_argument_group("parallel execution")
    group.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="execution backend; results are bit-identical across backends "
        "(default: serial)",
    )
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the thread/supervised backends "
        "(default: CPU count)",
    )


def _parallel_kwargs(args) -> dict:
    """``executor``/``workers`` keyword arguments from the parallel flags."""
    kwargs: dict = {}
    if args.executor != "serial":
        kwargs["executor"] = args.executor
    if args.workers is not None:
        kwargs["workers"] = args.workers
    return kwargs


def _resilience_kwargs(args) -> dict:
    """Pipeline/gather keyword arguments from the resilience CLI flags."""
    from repro.resilience import FaultProfile, RetryPolicy

    kwargs: dict = {}
    if args.fault_profile:
        kwargs["fault_profile"] = FaultProfile.parse(args.fault_profile)
    if args.max_retries is not None:
        kwargs["retry_policy"] = RetryPolicy(max_attempts=args.max_retries)
    if args.deadline is not None:
        kwargs["deadline"] = args.deadline
    return kwargs


def _print_event_summary(events) -> None:
    if events:
        print()
        print(events.summary())


def cmd_list() -> int:
    from repro.experiments import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for key, (description, _) in EXPERIMENTS.items():
        print(f"{key.ljust(width)}  {description}")
    return 0


def _fleet_kwargs(args) -> dict:
    """``run_experiments`` keyword arguments from the fleet CLI flags."""
    kwargs: dict = {}
    if args.journal:
        kwargs["journal"] = args.journal
    if args.supervised:
        kwargs["supervised"] = True
    if args.task_deadline is not None:
        kwargs["task_deadline"] = args.task_deadline
    if args.max_retries is not None:
        from repro.resilience import RetryPolicy

        kwargs["retry_policy"] = RetryPolicy(max_attempts=args.max_retries)
    if args.chaos:
        from repro.resilience import ChaosProfile

        kwargs["chaos"] = ChaosProfile.parse(args.chaos)
    return kwargs


def _print_rollup(rendered) -> None:
    from repro.experiments import EXPERIMENTS

    for key, text in rendered:
        description = EXPERIMENTS[key][0]
        print(f"{'=' * 72}\n[{key}] {description}\n")
        print(text)
        print()


def _exp_status(args) -> int:
    from repro.io.journal import RunJournal

    if not args.journal:
        print("error: 'exp status' needs --journal FILE", file=sys.stderr)
        return 1
    print(RunJournal.read(args.journal).describe())
    return 0


def _exp_resume(args) -> int:
    from repro.experiments import run_experiments
    from repro.io.journal import RunJournal
    from repro.resilience import EventLog

    if not args.journal:
        print("error: 'exp resume' needs --journal FILE", file=sys.stderr)
        return 1
    state = RunJournal.read(args.journal)
    if state.plan is None:
        print(
            f"error: journal {args.journal} has no plan record "
            "(was the run ever started?)",
            file=sys.stderr,
        )
        return 1
    events = EventLog()
    kwargs = _fleet_kwargs(args)
    kwargs["journal"] = args.journal
    rendered = run_experiments(
        state.plan["experiment_ids"],
        seed=state.plan["seed"],
        checkpoint_dir=args.checkpoint_dir,
        events=events,
        **kwargs,
        **_parallel_kwargs(args),
    )
    _print_rollup(rendered)
    _print_event_summary(events)
    return 0


def cmd_exp(args) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment, run_experiments
    from repro.resilience import EventLog

    if args.id == "status":
        return _exp_status(args)
    if args.id == "resume":
        return _exp_resume(args)
    fleet_kwargs = _fleet_kwargs(args)
    if args.run_all:
        events = EventLog()
        rendered = run_experiments(
            list(EXPERIMENTS),
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            events=events,
            **fleet_kwargs,
            **_parallel_kwargs(args),
        )
        _print_rollup(rendered)
        _print_event_summary(events)
        return 0
    if args.id is None:
        print("error: give an experiment id or --all", file=sys.stderr)
        return 1
    if args.checkpoint_dir is not None or fleet_kwargs:
        events = EventLog()
        rendered = run_experiments(
            [args.id],
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            events=events,
            **fleet_kwargs,
            **_parallel_kwargs(args),
        )
        print(rendered[0][1])
        _print_event_summary(events)
        return 0
    result = run_experiment(args.id, seed=args.seed)
    print(result.render())
    return 0


def cmd_tune(args) -> int:
    from repro.cesm import make_case
    from repro.hslb import HSLBPipeline

    if args.spec is not None:
        from repro.io import load_spec
        from repro.spec import TuneSpec

        spec = load_spec(args.spec)
        if not isinstance(spec, TuneSpec):
            print(
                f"error: {args.spec} is a {type(spec).__name__}, not a TuneSpec",
                file=sys.stderr,
            )
            return 1
        pipeline = HSLBPipeline.from_spec(spec, **_parallel_kwargs(args))
        result = pipeline.run(
            data=spec.benchmark_data(), fits=spec.pinned_fits()
        )
    else:
        if args.resolution is None or args.nodes is None:
            print(
                "error: give --spec FILE or both --resolution and --nodes",
                file=sys.stderr,
            )
            return 1
        case = make_case(
            args.resolution,
            args.nodes,
            layout=args.layout,
            unconstrained_ocean=args.unconstrained_ocean,
            seed=args.seed,
        )
        result = HSLBPipeline(
            case, points=args.points, method=args.method, reuse=args.reuse,
            **_resilience_kwargs(args), **_parallel_kwargs(args),
        ).run()
    print(result.report())  # includes the event-log summary when non-empty
    r2 = ", ".join(
        f"{c.value}={v:.4f}" for c, v in result.fit_r_squared().items()
    )
    print(f"\nfit R^2: {r2}")
    if result.solve.solver_result is not None:
        sr = result.solve.solver_result
        print(
            f"solver: {sr.nodes} B&B nodes, {sr.cuts_added} OA cuts, "
            f"{sr.nlp_solves} NLP solves, {sr.wall_time:.2f} s"
        )
    return 0


def cmd_sweep(args) -> int:
    from repro.analysis import optimal_node_count, solve_layout_points
    from repro.cesm import ComponentId, make_case
    from repro.hslb import HSLBPipeline
    from repro.hslb.report import format_reuse_counters
    from repro.reuse import SolveFamily
    from repro.util.tables import TextTable

    comps = (ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND)
    case = make_case(
        args.resolution,
        max(args.nodes),
        layout=args.layout,
        unconstrained_ocean=args.unconstrained_ocean,
        seed=args.seed,
    )
    pipeline = HSLBPipeline(case, points=args.points)
    fits = pipeline.fit(pipeline.gather())
    perf = {c: f.model for c, f in fits.items()}
    bounds = {c: case.component_bounds(c) for c in comps}

    family = (
        SolveFamily.for_counts(args.nodes)
        if (args.reuse and args.method != "oracle")
        else None
    )
    points = solve_layout_points(
        perf,
        bounds,
        sorted({int(n) for n in args.nodes}),
        layout=case.layout,
        ocn_allowed=case.ocean_allowed(),
        atm_allowed=case.atm_allowed(),
        method=args.method,
        reuse=family if family is not None else False,
        **_parallel_kwargs(args),
    )
    table = TextTable(
        ["total nodes", "best total, sec"]
        + (["B&B nodes"] if args.method != "oracle" else []),
        title=f"what-if sweep ({case.resolution}, layout {case.layout.value}, "
        f"{args.method})",
    )
    for p in points:
        row = [p.total_nodes, f"{p.makespan:.3f}"]
        if args.method != "oracle":
            row.append(p.solver_result.nodes)
        table.add_row(row)
    print(table.render())

    rec = optimal_node_count(
        perf, bounds, [p.total_nodes for p in points],
        criterion=args.criterion, points=points,
    )
    print(
        f"\nrecommended ({rec.criterion}): {rec.total_nodes} nodes, "
        f"{rec.total_time:.3f} s (marginal efficiency {rec.efficiency:.3f})"
    )
    if family is not None:
        reuse_line = format_reuse_counters(family.counters)
        if reuse_line:
            print(reuse_line)
    return 0


def cmd_ampl(args) -> int:
    from repro.cesm import make_case
    from repro.hslb import HSLBPipeline
    from repro.hslb.layout_models import layout_model_for_case
    from repro.model import to_ampl

    case = make_case(
        args.resolution,
        args.nodes,
        layout=args.layout,
        unconstrained_ocean=args.unconstrained_ocean,
        seed=args.seed,
    )
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    print(to_ampl(layout_model_for_case(case, fits)))
    return 0


def cmd_gather(args) -> int:
    from repro.cesm import CoupledRunSimulator, make_case
    from repro.hslb import gather_benchmarks
    from repro.io import save_benchmarks
    from repro.resilience import EventLog, FaultySimulator

    case = make_case(args.resolution, args.nodes, seed=args.seed)
    simulator = CoupledRunSimulator(case)
    resilience = _resilience_kwargs(args)
    profile = resilience.pop("fault_profile", None)
    if profile is not None and profile.active:
        simulator = FaultySimulator(simulator, profile)
    events = EventLog()
    parallel = _parallel_kwargs(args)
    if profile is not None or resilience:
        data = gather_benchmarks(
            simulator,
            points=args.points,
            policy=resilience.get("retry_policy"),
            events=events,
            deadline=resilience.get("deadline"),
            **parallel,
        )
    else:
        data = gather_benchmarks(simulator, points=args.points, **parallel)
    save_benchmarks(
        args.out,
        data,
        meta={
            "resolution": args.resolution,
            "total_nodes": args.nodes,
            "seed": args.seed,
        },
    )
    counts = ", ".join(
        f"{c.value}:{data.point_count(c)}" for c in data.components()
    )
    print(f"wrote {args.out} ({counts} points)")
    _print_event_summary(events)
    return 0


def cmd_fit(args) -> int:
    from repro.hslb import fit_components
    from repro.io import load_benchmarks, save_fits

    data = load_benchmarks(args.benchmarks)
    fits = fit_components(data)
    save_fits(args.out, fits)
    for comp, fit in fits.items():
        a, b, c, d = fit.model.as_tuple()
        print(
            f"{comp.value}: T(n) = {a:.6g}/n + {b:.3g} n^{c:.3g} + {d:.6g}  "
            f"(R^2 = {fit.r_squared:.4f})"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args) -> int:
    from repro.cesm import make_case
    from repro.hslb import solve_allocation
    from repro.io import load_fits

    case = make_case(
        args.resolution,
        args.nodes,
        layout=args.layout,
        unconstrained_ocean=args.unconstrained_ocean,
    )
    fits = load_fits(args.fits)
    out = solve_allocation(case, fits, method=args.method)
    for comp, n in out.allocation.items():
        print(f"n_{comp.value} = {n}  (predicted {out.predicted_times[comp]:.3f} s)")
    print(f"predicted total: {out.predicted_total:.3f} s")
    return 0




def cmd_decomp(args) -> int:
    from repro.cesm.decomp import GX1, TX0_1, default_strategy, imbalance_factor
    from repro.mlice import train_selector
    from repro.util.tables import TextTable

    grid = GX1 if args.resolution == "1deg" else TX0_1
    selector = train_selector(grid, n=400, seed=args.seed)
    table = TextTable(
        ["tasks", "default", "recommended", "default factor", "recommended factor"],
        title=f"CICE decomposition advice ({args.resolution} ice grid)",
    )
    for tasks in args.tasks:
        d = default_strategy(tasks)
        s = selector.select(tasks)
        table.add_row([
            tasks, d.value, s.value,
            f"{imbalance_factor(grid, tasks, d):.3f}",
            f"{imbalance_factor(grid, tasks, s):.3f}",
        ])
    print(table.render())
    return 0


def cmd_spec(args) -> int:
    if args.spec_command == "key":
        from repro.io import load_spec

        print(load_spec(args.file).spec_key())
        return 0

    # dump
    from repro.cesm import make_case
    from repro.hslb import HSLBPipeline

    case = make_case(
        args.resolution,
        args.nodes,
        layout=args.layout,
        unconstrained_ocean=args.unconstrained_ocean,
        seed=args.seed,
    )
    pipeline = HSLBPipeline(
        case, points=args.points, method=args.method, reuse=args.reuse,
        **_resilience_kwargs(args),
    )
    curves = None
    if args.with_curves:
        curves = pipeline.fit(pipeline.gather())
    spec = pipeline.to_spec(curves=curves)
    if args.out:
        from repro.io import save_spec

        save_spec(args.out, spec)
        print(f"wrote {args.out} ({spec.spec_key()})")
    else:
        print(spec.to_json())
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.resilience import ChaosProfile
    from repro.service import ServiceConfig, TuningDaemon

    config = ServiceConfig(
        backend=args.backend,
        workers=args.workers,
        max_queue=args.max_queue,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        exact_capacity=args.exact_capacity,
        warm_capacity=args.warm_capacity,
        default_deadline=args.default_deadline,
        task_deadline=args.task_deadline,
        max_retries=args.max_retries,
        seed=args.seed,
        chaos=ChaosProfile.parse(args.chaos) if args.chaos else None,
    )
    daemon = TuningDaemon(
        config, host=args.host, port=args.port,
        allow_shutdown=args.allow_shutdown,
    )

    async def run():
        serving = asyncio.create_task(daemon.serve())
        while daemon.address is None and not serving.done():
            await asyncio.sleep(0.01)
        if daemon.address is not None:
            host, port = daemon.address
            print(
                f"hslb service listening on {host}:{port} "
                f"(backend: {config.backend}, max in flight: "
                f"{config.max_queue})",
                flush=True,
            )
        await serving

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\ninterrupted; service stopped")
    return 0


def cmd_call(args) -> int:
    import json

    from repro.service import ServiceClient

    kind_for = {"solve": "solve_point", "tune": "tune"}
    with ServiceClient(
        args.host, args.port, timeout=args.timeout, client_id=args.client_id
    ) as client:
        if args.what in kind_for:
            if not args.spec:
                print(f"error: 'call {args.what}' needs --spec FILE",
                      file=sys.stderr)
                return 1
            from repro.io import load_spec
            from repro.spec import SolvePointSpec, TuneSpec

            spec = load_spec(args.spec)
            expected = SolvePointSpec if args.what == "solve" else TuneSpec
            if not isinstance(spec, expected):
                print(
                    f"error: {args.spec} is a {type(spec).__name__}, not a "
                    f"{expected.__name__}",
                    file=sys.stderr,
                )
                return 1
            sender = (client.solve_point if args.what == "solve"
                      else client.tune)
            response = sender(spec, deadline=args.deadline)
        elif args.what == "ping":
            response = client.ping()
        elif args.what == "stats":
            response = client.call(
                {"kind": "stats", "id": f"{args.client_id}-stats"}
            )
        else:
            response = client.shutdown()
    print(json.dumps(response.to_dict(), indent=2, sort_keys=True))
    return 0 if response.ok else 1


def _render_stats(stats: dict) -> str:
    """Human-readable report for a ``stats`` verb payload."""
    from repro.util.tables import TextTable

    lines = []
    service = stats.get("service") or {}
    lines.append(
        f"backend: {stats.get('backend', '?')}   "
        f"in flight: {service.get('in_flight', '?')}/"
        f"{service.get('max_queue', '?')}   "
        f"events: {stats.get('events', 0)}"
    )

    counters = stats.get("counters") or {}
    requests = counters.get("requests", 0)
    answered = TextTable(["tier", "answered", "rate"], title="request tiers")
    for label, key in (
        ("exact", "exact_hits"),
        ("warm", "warm_hits"),
        ("cold", "cold_solves"),
        ("dedup", "dedup_hits"),
    ):
        count = counters.get(key, 0)
        rate = f"{count / requests:.1%}" if requests else "-"
        answered.add_row([label, count, rate])
    lines.append("")
    lines.append(answered.render())
    shed = ", ".join(
        f"{key}: {counters.get(key, 0)}"
        for key in ("rejected", "expired", "errors", "poisoned")
    )
    lines.append(f"requests: {requests}   {shed}")

    batch_sizes = stats.get("batch_sizes") or {}
    if batch_sizes:
        table = TextTable(["batch size", "dispatches"],
                          title="dispatch-group sizes")
        for size in sorted(batch_sizes, key=int):
            table.add_row([size, batch_sizes[size]])
        lines.append("")
        lines.append(table.render())

    exact = stats.get("exact") or {}
    warm = stats.get("warm") or {}
    lines.append("")
    lines.append(
        f"exact cache: {exact.get('entries', 0)}/{exact.get('capacity', 0)} "
        f"entries, {exact.get('evictions', 0)} evictions"
    )
    lines.append(
        f"warm pools: {warm.get('channels', 0)}/{warm.get('capacity', 0)} "
        f"channels, {warm.get('evictions', 0)} evictions, "
        f"{warm.get('downgrades', 0)} downgrades, "
        f"{warm.get('solves', 0)} solves absorbed"
    )

    supervision = stats.get("supervision")
    if supervision:
        lines.append(
            "workers: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(supervision.items()))
        )

    if stats.get("telemetry") is not None:
        from repro.telemetry import render_report

        lines.append("")
        lines.append(render_report(stats["telemetry"]).rstrip("\n"))
    else:
        lines.append("telemetry: disabled (serve with REPRO_TELEMETRY=1)")
    return "\n".join(lines)


def cmd_stats(args) -> int:
    import json

    from repro.service import ServiceClient

    with ServiceClient(
        args.host, args.port, timeout=args.timeout, client_id=args.client_id
    ) as client:
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if args.prometheus:
        snapshot = stats.get("telemetry")
        if snapshot is None:
            print(
                "error: daemon is running without telemetry; restart it "
                "with REPRO_TELEMETRY=1 to scrape metrics",
                file=sys.stderr,
            )
            return 1
        from repro.telemetry import to_prometheus

        sys.stdout.write(to_prometheus(snapshot))
        return 0
    print(_render_stats(stats))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": lambda: cmd_list(),
        "exp": lambda: cmd_exp(args),
        "tune": lambda: cmd_tune(args),
        "sweep": lambda: cmd_sweep(args),
        "ampl": lambda: cmd_ampl(args),
        "gather": lambda: cmd_gather(args),
        "fit": lambda: cmd_fit(args),
        "solve": lambda: cmd_solve(args),
        "decomp": lambda: cmd_decomp(args),
        "spec": lambda: cmd_spec(args),
        "serve": lambda: cmd_serve(args),
        "call": lambda: cmd_call(args),
        "stats": lambda: cmd_stats(args),
    }
    try:
        return handlers[args.command]()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
