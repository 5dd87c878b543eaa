"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``study``    — run the pipeline and print selected paper artifacts.
* ``cascade``  — simulate a facility outage and print the damage report.
* ``peering``  — run the §4.2.1 traceroute campaign for one hypergiant.
* ``mapping``  — run the steering-blindness (client-mapping) experiment.
* ``export``   — run the pipeline and write a dataset archive to a directory.
* ``sweep``    — run/resume, inspect, or garbage-collect sweep campaigns
  (``sweep run``, ``sweep status``, ``sweep gc``).
* ``timeline`` — run/resume the longitudinal timeline campaign: the
  Table-1 / Figure-1 / concentration series over quarterly epochs,
  incrementally recomputed through a per-stage content-addressed store
  (``--store-dir``; ``--status`` reports resume progress).
* ``tail``     — render (or ``--follow``) a live run's JSONL event stream
  written by ``--events-out``.
* ``eval``     — score the inference pipeline against ground truth
  (``--scorecard-out`` writes the scorecard JSON, ``--baseline`` regress-
  checks it against committed ``BENCH_accuracy.json`` floors).
* ``info``     — library version and available scenarios/sections.

``study``, ``cascade``, and ``export`` accept ``--store-dir`` to back the
scenario cache with a durable :class:`repro.store.StudyStore`: the first
run pays the full pipeline, every later process rehydrates from disk.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Sequence

from repro import __version__
from repro.report import available_sections


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=("small", "default", "large"),
        default="small",
        help="study scenario preset (default: small)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record stage spans and print the stage-time tree on stderr",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also profile CPU time and peak RSS per stage (implies tracing)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines (instead of text) on stderr",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the telemetry snapshot (spans + metrics) as JSON to PATH",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        default=None,
        help="stream live progress events (JSONL) to PATH; tail with `repro tail PATH`",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the span forest as a Chrome trace-event file (Perfetto-loadable)",
    )


def _telemetry_from_args(args: argparse.Namespace):
    """A live telemetry bundle when any observability flag is set, else None."""
    if not (
        args.trace
        or args.profile
        or args.log_json
        or args.metrics_out
        or args.events_out
        or args.trace_out
    ):
        return None
    from repro.obs import Telemetry

    return Telemetry.capture(
        json_logs=args.log_json, profile=args.profile, events=args.events_out
    )


def _checked(kind: type, accept: Callable[[Any], bool], expected: str) -> Callable[[str], Any]:
    """An argparse ``type=`` that parses ``kind`` and refuses what ``accept`` rejects.

    An out-of-range flag then ends in a usage error (exit 2) at parse time,
    not in a traceback from the config constructor that refuses it later.
    """

    def parse(value: str) -> Any:
        try:
            if accept(number := kind(value)):  # NaN fails every bound
                return number
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")

    return parse


_AT_LEAST_ZERO = _checked(int, lambda n: n >= 0, "an integer >= 0")
_AT_LEAST_ONE = _checked(int, lambda n: n >= 1, "an integer >= 1")
_FRACTION = _checked(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")


def _workers_spec(value: str) -> "int | str":
    """``--workers`` accepts a positive integer or the literal ``auto``."""
    return value if value == "auto" else _AT_LEAST_ONE(value)


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("serial", "pool"),
        default="serial",
        help="execution backend for the campaign/clustering fan-outs: serial "
        "or pool (one persistent worker pool reused across stages; default: "
        "serial)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_spec,
        default=1,
        metavar="N",
        help="worker processes for --backend pool, or 'auto' for "
        "cpu_count-1 (results are identical at any N)",
    )


def _parallel_from_args(args: argparse.Namespace):
    """A ParallelConfig when any parallel flag departs from the default, else None."""
    shard_timeout = getattr(args, "shard_timeout", None)
    if (
        getattr(args, "backend", "serial") == "serial"
        and getattr(args, "workers", 1) == 1
        and shard_timeout is None
    ):
        return None
    from repro.parallel import ParallelConfig

    return ParallelConfig(
        backend=getattr(args, "backend", "serial"),
        workers=getattr(args, "workers", 1),
        shard_timeout_s=shard_timeout,
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """``--faults`` and ``--shard-timeout``, the resilience flags ``serve`` reads."""
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="fault-plan JSON for deterministic chaos testing (see repro.faults)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=_checked(float, lambda x: x > 0.0, "a number > 0"),
        default=None,
        metavar="SECONDS",
        help="per-shard timeout; hung workers are requeued (when retries are on) or fatal",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    _add_fault_arguments(parser)
    parser.add_argument(
        "--retry",
        type=_AT_LEAST_ONE,
        default=None,
        metavar="N",
        help="enable the resilience layer: at most N attempts per shard / store load",
    )
    parser.add_argument(
        "--shard-loss-budget",
        type=_FRACTION,
        default=None,
        metavar="FRACTION",
        help="with --retry: tolerate losing up to this fraction of shards per stage "
        "(default 0.0: any quarantined shard aborts the study)",
    )


def _faults_from_args(args: argparse.Namespace):
    """A FaultPlan when --faults was given, else None."""
    path = getattr(args, "faults", None)
    if path is None:
        return None
    from repro.faults import load_fault_plan

    return load_fault_plan(path)


def _resilience_from_args(args: argparse.Namespace):
    """A ResilienceConfig when --retry was given, else None."""
    retries = getattr(args, "retry", None)
    if retries is None:
        return None
    from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy

    budget = getattr(args, "shard_loss_budget", None)
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=retries),
        budget=ErrorBudget(shard_loss_fraction=budget if budget is not None else 0.0),
    )


def _add_gc_arguments(parser: argparse.ArgumentParser, store_help: str) -> None:
    """The store and bounds both ``sweep gc`` and ``timeline gc`` take."""
    parser.add_argument("--store-dir", required=True, metavar="DIR", help=store_help)
    parser.add_argument("--max-entries", type=int, default=None, help="keep at most N entries")
    parser.add_argument("--max-bytes", type=int, default=None, help="keep at most N bytes")
    parser.add_argument(
        "--max-quarantine-entries",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N quarantined (corrupt) entries, oldest evicted first",
    )
    parser.add_argument(
        "--max-quarantine-age-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict quarantined entries older than this many seconds",
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="durable study store directory (cold runs persist, warm runs rehydrate)",
    )


def _store_from_args(args: argparse.Namespace):
    """A StudyStore when --store-dir was given, else None."""
    store_dir = getattr(args, "store_dir", None)
    if store_dir is None:
        return None
    from repro.store import StudyStore

    return StudyStore(store_dir)


def _load_study(name: str, telemetry=None, parallel=None, store=None, faults=None, resilience=None):
    from repro.experiments.scenarios import cached_study, scenario_by_name

    print(f"running the {name!r} study...", file=sys.stderr)
    if telemetry is None and parallel is None and faults is None and resilience is None:
        return cached_study(name, store=store)
    # A traced, fault-injected, or non-default-backend run must exercise the
    # live pipeline, so it bypasses the caches — but still warms the store
    # afterwards (the store itself refuses degraded studies).
    study = scenario_by_name(name).run(
        telemetry=telemetry, parallel=parallel, faults=faults, resilience=resilience
    )
    if store is not None:
        store.put(study)
    return study


def _emit_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Print / write the recorded telemetry as the flags request.

    Also closes the bundle's event stream (``Telemetry.restore``) — the
    CLI's runs are over by the time this is called.
    """
    if telemetry is None:
        return
    from repro.obs import (
        render_filter_funnel,
        render_profile,
        render_span_tree,
        write_chrome_trace,
        write_metrics_json,
    )

    if args.trace:
        print("\nstage timings\n-------------", file=sys.stderr)
        print(render_span_tree(telemetry.tracer), file=sys.stderr)
        funnel = render_filter_funnel(telemetry.metrics)
        print(f"\nfilter funnel\n-------------\n{funnel}", file=sys.stderr)
    if args.profile:
        print("\nresource profile\n----------------", file=sys.stderr)
        print(render_profile(telemetry), file=sys.stderr)
        if telemetry.flight.records:
            print("\nexecutor flights\n----------------", file=sys.stderr)
            print(telemetry.flight.render(), file=sys.stderr)
    if args.metrics_out:
        label = getattr(args, "scenario", None) or "sweep"
        path = write_metrics_json(telemetry, args.metrics_out, name=f"study-{label}")
        print(f"wrote telemetry to {path}", file=sys.stderr)
    if args.trace_out:
        path = write_chrome_trace(telemetry, args.trace_out)
        print(f"wrote Chrome trace to {path} (load in Perfetto / chrome://tracing)", file=sys.stderr)
    telemetry.restore()
    if args.events_out:
        print(f"event stream written to {args.events_out}", file=sys.stderr)


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.report import build_report

    telemetry = _telemetry_from_args(args)
    study = _load_study(
        args.scenario,
        telemetry,
        _parallel_from_args(args),
        _store_from_args(args),
        faults=_faults_from_args(args),
        resilience=_resilience_from_args(args),
    )
    sections = tuple(args.sections.split(",")) if args.sections != "all" else None
    print(build_report(study, sections))
    _emit_telemetry(args, telemetry)
    return 0


def _cmd_cascade(args: argparse.Namespace) -> int:
    from repro.capacity.demand import DemandModel
    from repro.capacity.events import facility_outage_scenario
    from repro.capacity.links import build_capacity_plan
    from repro.capacity.cascade import simulate_cascade
    from repro.experiments.section43_collateral import most_shared_facility

    telemetry = _telemetry_from_args(args)
    study = _load_study(
        args.scenario,
        telemetry,
        _parallel_from_args(args),
        _store_from_args(args),
        faults=_faults_from_args(args),
        resilience=_resilience_from_args(args),
    )
    state = study.history.state("2023")
    if args.facility == "auto":
        facility_id, hypergiants = most_shared_facility(study)
        print(f"auto-selected facility {facility_id} (hosts {'+'.join(hypergiants)})")
    else:
        facility_id = int(args.facility)
    demand = DemandModel(traffic=study.traffic)
    plans = build_capacity_plan(study.internet, state, demand, seed=11)
    owner_asns = sorted(
        {s.isp.asn for s in state.servers if s.facility.facility_id == facility_id}
    )
    if not owner_asns:
        print(f"facility {facility_id} hosts no offnets", file=sys.stderr)
        return 1
    report = simulate_cascade(
        study.internet,
        demand,
        plans,
        facility_outage_scenario(facility_id),
        study.population,
        asns=owner_asns,
        telemetry=telemetry,
    )
    for asn, outcome in report.outcomes.items():
        print(
            f"ASN {asn}: offnet {100 * outcome.offnet_change:+.0f}%, "
            f"interdomain x{outcome.interdomain_ratio:.2f}, "
            f"{outcome.congested_hours} congested hours, "
            f"collateral {outcome.collateral_gbph:.0f} Gbps-h"
        )
    print(f"affected users: {report.affected_users():,}")
    _emit_telemetry(args, telemetry)
    return 0


def _cmd_peering(args: argparse.Namespace) -> int:
    from repro.experiments.section42_peering import run_section42

    study = _load_study(args.scenario)
    result = run_section42(study, hypergiant=args.hypergiant, n_regions=args.regions)
    print(result.render())
    return 0


def _cmd_mapping(args: argparse.Namespace) -> int:
    from repro.experiments.steering_blindness import run_steering_blindness

    study = _load_study(args.scenario)
    print(run_steering_blindness(study).render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io.archive import save_archive

    telemetry = _telemetry_from_args(args)
    study = _load_study(
        args.scenario,
        telemetry,
        _parallel_from_args(args),
        _store_from_args(args),
        faults=_faults_from_args(args),
        resilience=_resilience_from_args(args),
    )
    directory = save_archive(study, args.output)
    files = sorted(p.name for p in directory.iterdir())
    print(f"wrote {len(files)} files to {directory}:")
    for name in files:
        print(f"  {name}")
    _emit_telemetry(args, telemetry)
    return 0


def _install_graceful_shutdown() -> None:
    """Relay SIGTERM into :class:`KeyboardInterrupt` for campaign CLIs.

    Long-running campaigns checkpoint every completed cell/epoch before
    reporting it, so an interrupt between cells loses nothing — the
    interrupted command prints a resume hint and exits 130, and rerunning
    it replays completed work from the store.  SIGINT already raises
    ``KeyboardInterrupt``; this gives SIGTERM (the supervisor's signal)
    the same checkpoint-and-exit semantics.
    """
    import signal

    def _terminated(signum: int, _frame: object) -> None:
        raise KeyboardInterrupt(f"signal {signum}")

    try:
        signal.signal(signal.SIGTERM, _terminated)
    except ValueError:
        pass  # not the main thread (e.g. under a test harness)


def _run_durable(
    args: argparse.Namespace, report_type: type, store, header: str, run: Callable
) -> int:
    """Run a durable campaign, then print its report, or a resume hint on interrupt.

    ``run(telemetry)`` returns the campaign's
    :class:`~repro.durable.CellReport`, of ``report_type``, whose
    ``label``, ``unit`` and ``hole`` words name the cells in every message.
    """
    telemetry = _telemetry_from_args(args)
    print(
        f"{report_type.label} campaign: {header}"
        + (f" (store: {store.root})" if store is not None else " (no store: not resumable)"),
        file=sys.stderr,
    )
    _install_graceful_shutdown()
    try:
        report = run(telemetry)
    except KeyboardInterrupt:
        print(
            f"interrupted — completed {report_type.unit} are checkpointed"
            + (" in the store; rerun the same command to resume" if store is not None else
               "; rerun with --store-dir to make campaigns resumable"),
            file=sys.stderr,
        )
        _emit_telemetry(args, telemetry)
        return 130
    print(report.render())
    print(
        f"{report.unit}: {len(report.rows)} ({report.cache_hits} from store, "
        f"{report.cache_misses} computed, {len(report.lost)} {report.hole})",
        file=sys.stderr,
    )
    if args.report_out:
        path = report.write(args.report_out)
        print(f"wrote {report.label} report to {path}", file=sys.stderr)
    _emit_telemetry(args, telemetry)
    return 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.sensitivity import DEFAULT_METRICS
    from repro.sweep import CampaignReport, load_grid, run_campaign

    grid = load_grid(args.spec)
    store = _store_from_args(args)
    return _run_durable(
        args,
        CampaignReport,
        store,
        f"{grid.n_cells} cells over axes {', '.join(grid.axis_names) or '(none)'}",
        lambda telemetry: run_campaign(
            grid,
            metrics=DEFAULT_METRICS,
            store=store,
            parallel=_parallel_from_args(args),
            telemetry=telemetry,
            max_cells=args.max_cells,
            faults=_faults_from_args(args),
            resilience=_resilience_from_args(args),
        ),
    )


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.sweep import campaign_status, load_grid

    grid = load_grid(args.spec)
    status = campaign_status(grid, _store_from_args(args))
    print(status.render())
    return 0 if status.n_pending == 0 else 2


def _cmd_store_gc(args: argparse.Namespace) -> int:
    """``sweep gc`` (study store) and ``timeline gc`` (stage store)."""
    from repro.store import StageStore, StudyStore

    store = (StudyStore if args.command == "sweep" else StageStore)(args.store_dir)
    before = store.stats()
    try:
        evicted = store.gc(
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
            max_age_s=getattr(args, "max_age_s", None),  # only ``timeline gc`` has --max-age-s
            max_quarantine_entries=args.max_quarantine_entries,
            max_quarantine_age_s=args.max_quarantine_age_s,
        )
    except ValueError as error:  # a negative bound; nothing was touched
        print(str(error), file=sys.stderr)
        return 2
    after = store.stats()
    print(
        f"evicted {len(evicted)} of {before.entries} entries "
        f"({before.total_bytes - after.total_bytes:,} bytes freed, "
        f"{after.entries} entries / {after.total_bytes:,} bytes remain)"
    )
    for key in evicted:
        print(f"  evicted {key}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    # Dispatched by attribute rather than sub-parser set_defaults: on
    # Python < 3.13 the parent parser's set_defaults(handler=...) would
    # clobber the sub-parser's (bpo-9351).
    if getattr(args, "timeline_command", None) == "gc":
        return _cmd_store_gc(args)
    from repro.experiments.scenarios import scenario_by_name
    from repro.timeline import TimelineConfig, TimelineReport, TimelineSpec, run_timeline, timeline_status

    try:
        spec = TimelineSpec(
            start=args.start,
            end=args.end,
            policy=args.policy,
            eviction_rate=args.eviction_rate,
            capacity_ramp_quarters=args.capacity_ramp,
            edition=args.edition,
            seed=args.seed,
        )
    except ValueError as error:  # flags that contradict each other (bounds, policy)
        print(str(error), file=sys.stderr)
        return 2
    config = TimelineConfig.from_study(
        scenario_by_name(args.scenario).config,
        spec,
        parallel=_parallel_from_args(args),
        faults=_faults_from_args(args),
        resilience=_resilience_from_args(args),
    )
    store = None
    if args.store_dir is not None:
        from repro.store import StageStore

        store = StageStore(args.store_dir)
    if args.status:
        if store is None:
            print("timeline --status requires --store-dir", file=sys.stderr)
            return 1
        status = timeline_status(config, store)
        print(status.render())
        return 0 if status.n_pending == 0 else 2
    n_quarters = len(spec.quarters) if args.max_epochs is None else min(args.max_epochs, len(spec.quarters))
    return _run_durable(
        args,
        TimelineReport,
        store,
        f"{n_quarters} quarterly epochs ({spec.start}..{spec.end}, policy {spec.policy!r})",
        lambda telemetry: run_timeline(
            config, store=store, telemetry=telemetry, max_epochs=args.max_epochs
        ),
    )


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.obs import (
        follow_events,
        format_event,
        read_events,
        render_progress,
        resolve_events_path,
    )

    try:
        path = resolve_events_path(args.target)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 1
    if not args.follow:
        print(render_progress(read_events(path)))
        return 0
    events = []
    try:
        for event in follow_events(path, poll_interval_s=args.poll, timeout_s=args.timeout):
            events.append(event)
            print(format_event(event), flush=True)
    except KeyboardInterrupt:
        pass
    print(render_progress(events))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.eval import build_scorecard, check_accuracy

    telemetry = _telemetry_from_args(args)
    study = _load_study(args.scenario, telemetry)
    scorecard = build_scorecard(
        study,
        scenario=args.scenario,
        hypergiants=tuple(args.hypergiant) if args.hypergiant else ("Google",),
        peering_regions=args.regions,
        telemetry=telemetry,
    )
    print(scorecard.render())
    if args.scorecard_out:
        path = Path(args.scorecard_out)
        path.write_text(scorecard.canonical_json(), encoding="utf-8")
        print(f"wrote scorecard to {path}", file=sys.stderr)
    exit_code = 0
    if args.baseline:
        try:
            result = check_accuracy(args.baseline, scorecard=scorecard, scenario=args.scenario)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            _emit_telemetry(args, telemetry)
            return 1
        print()
        print(result.render())
        exit_code = 0 if result.passed else 1
    _emit_telemetry(args, telemetry)
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer, ServeConfig

    try:
        config = ServeConfig(
            state_dir=args.state_dir,
            parallel=_parallel_from_args(args),
            max_queue=args.max_queue,
            tenant_quota=args.tenant_quota,
            faults=_faults_from_args(args),
            gc_max_entries=args.gc_max_entries,
            gc_max_bytes=args.gc_max_bytes,
        )
    except ValueError as error:  # a setting that would break the server
        print(str(error), file=sys.stderr)
        return 2
    server = ReproServer(config, host=args.host, port=args.port)
    recovered = server.scheduler.recovered
    print(f"repro serve listening on {server.url} (state: {args.state_dir})", file=sys.stderr)
    if recovered.campaigns:
        print(
            f"recovered {len(recovered.campaigns)} campaigns "
            f"({len(recovered.requeued)} re-queued"
            + (f", {recovered.n_corrupt} corrupt journal lines skipped" if recovered.n_corrupt else "")
            + (", torn journal tail tolerated" if recovered.torn_tail else "")
            + ")",
            file=sys.stderr,
        )
    return server.run_until_signalled()


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import scenario_names

    print(f"repro {__version__}")
    print(f"scenarios: {', '.join(scenario_names())}")
    print(f"report sections: {', '.join(available_sections())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Central Problem with Distributed Content' (HotNets'23)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    study = subparsers.add_parser("study", help="run the pipeline and print paper artifacts")
    _add_scenario_argument(study)
    _add_telemetry_arguments(study)
    _add_parallel_arguments(study)
    _add_resilience_arguments(study)
    _add_store_argument(study)
    study.add_argument(
        "--sections",
        default="all",
        help=f"comma-separated section ids or 'all' ({','.join(available_sections())})",
    )
    study.set_defaults(handler=_cmd_study)

    cascade = subparsers.add_parser("cascade", help="simulate a facility outage")
    _add_scenario_argument(cascade)
    _add_telemetry_arguments(cascade)
    _add_parallel_arguments(cascade)
    _add_resilience_arguments(cascade)
    _add_store_argument(cascade)
    cascade.add_argument("--facility", default="auto", help="facility id or 'auto' (most shared)")
    cascade.set_defaults(handler=_cmd_cascade)

    peering = subparsers.add_parser("peering", help="run the §4.2.1 traceroute campaign")
    _add_scenario_argument(peering)
    peering.add_argument("--hypergiant", default="Google", choices=("Google", "Netflix", "Meta", "Akamai"))
    peering.add_argument("--regions", type=_AT_LEAST_ONE, default=4, help="source regions (paper: 112)")
    peering.set_defaults(handler=_cmd_peering)

    mapping = subparsers.add_parser("mapping", help="run the steering-blindness experiment")
    _add_scenario_argument(mapping)
    mapping.set_defaults(handler=_cmd_mapping)

    export = subparsers.add_parser("export", help="write a dataset archive")
    _add_scenario_argument(export)
    _add_telemetry_arguments(export)
    _add_parallel_arguments(export)
    _add_resilience_arguments(export)
    _add_store_argument(export)
    export.add_argument("--output", required=True, help="destination directory")
    export.set_defaults(handler=_cmd_export)

    sweep = subparsers.add_parser("sweep", help="run/resume, inspect, or GC sweep campaigns")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser("run", help="run (or resume) a campaign from a grid spec")
    sweep_run.add_argument("--spec", required=True, metavar="PATH", help="grid spec file (JSON)")
    _add_store_argument(sweep_run)
    _add_telemetry_arguments(sweep_run)
    _add_parallel_arguments(sweep_run)
    _add_resilience_arguments(sweep_run)
    sweep_run.add_argument(
        "--max-cells",
        type=_AT_LEAST_ONE,
        default=None,
        metavar="N",
        help="run only the first N cells of the expansion (deterministic prefix)",
    )
    sweep_run.add_argument(
        "--report-out", metavar="PATH", default=None, help="write the campaign report JSON to PATH"
    )
    sweep_run.set_defaults(handler=_cmd_sweep_run)

    sweep_status = sweep_sub.add_parser("status", help="how much of a campaign is already stored")
    sweep_status.add_argument("--spec", required=True, metavar="PATH", help="grid spec file (JSON)")
    sweep_status.add_argument(
        "--store-dir", required=True, metavar="DIR", help="durable study store directory"
    )
    sweep_status.set_defaults(handler=_cmd_sweep_status)

    sweep_gc = sweep_sub.add_parser("gc", help="evict least-recently-used store entries")
    _add_gc_arguments(sweep_gc, "durable study store directory")
    sweep_gc.set_defaults(handler=_cmd_store_gc)

    timeline = subparsers.add_parser(
        "timeline", help="run/resume the longitudinal (quarterly-epoch) campaign, or GC its store"
    )
    timeline_sub = timeline.add_subparsers(dest="timeline_command", required=False)
    timeline_gc = timeline_sub.add_parser("gc", help="evict oldest stage-store entries")
    _add_gc_arguments(timeline_gc, "stage store directory")
    timeline_gc.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict entries older than this many seconds",
    )
    _add_scenario_argument(timeline)
    _add_telemetry_arguments(timeline)
    _add_parallel_arguments(timeline)
    _add_resilience_arguments(timeline)
    timeline.add_argument("--start", default="2019Q1", help="first quarter (YYYYQn; default: %(default)s)")
    timeline.add_argument("--end", default="2026Q4", help="last quarter (YYYYQn; default: %(default)s)")
    timeline.add_argument(
        "--policy",
        choices=("monotone", "churn"),
        default="monotone",
        help="deployment policy: monotone growth or churn with evictions (default: %(default)s)",
    )
    timeline.add_argument(
        "--eviction-rate",
        type=_FRACTION,
        default=0.0,
        metavar="FRACTION",
        help="per-quarter, per-deployment eviction probability (requires --policy churn)",
    )
    timeline.add_argument(
        "--capacity-ramp",
        type=_AT_LEAST_ZERO,
        default=0,
        metavar="QUARTERS",
        help="ramp new deployments to full capacity over this many quarters (default: 0)",
    )
    timeline.add_argument(
        "--edition", choices=("2021", "2023"), default="2023", help="scan edition (default: %(default)s)"
    )
    timeline.add_argument(
        "--seed", type=_AT_LEAST_ZERO, default=0, help="timeline event-stream seed (default: 0)"
    )
    timeline.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="stage store directory (enables incremental recomputation and resume)",
    )
    timeline.add_argument(
        "--max-epochs",
        type=_AT_LEAST_ONE,
        default=None,
        metavar="N",
        help="run only the first N quarters (deterministic prefix)",
    )
    timeline.add_argument(
        "--status",
        action="store_true",
        help="report which quarters are already stored (requires --store-dir); exit 2 if pending",
    )
    timeline.add_argument(
        "--report-out", metavar="PATH", default=None, help="write the timeline report JSON to PATH"
    )
    timeline.set_defaults(handler=_cmd_timeline)

    tail = subparsers.add_parser("tail", help="render (or follow) a run's live event stream")
    tail.add_argument("target", help="an events.jsonl file, or a directory containing one")
    tail.add_argument(
        "--follow", action="store_true", help="keep reading and print events as they arrive"
    )
    tail.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS", help="--follow poll interval"
    )
    tail.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="--follow: stop after this long without a new event (default: wait forever)",
    )
    tail.set_defaults(handler=_cmd_tail)

    from repro.experiments.scenarios import scenario_names

    evaluate = subparsers.add_parser(
        "eval", help="score the inference pipeline against ground truth"
    )
    evaluate.add_argument(
        "--scenario",
        choices=tuple(scenario_names()),
        default="small",
        help="scenario preset, including the adversarial evasion variants (default: small)",
    )
    _add_telemetry_arguments(evaluate)
    evaluate.add_argument(
        "--hypergiant",
        action="append",
        choices=("Google", "Netflix", "Meta", "Akamai"),
        default=None,
        help="hypergiant(s) for the peering-inference stage (repeatable; default: Google)",
    )
    evaluate.add_argument(
        "--regions", type=_AT_LEAST_ONE, default=4, help="traceroute source regions (paper: 112)"
    )
    evaluate.add_argument(
        "--scorecard-out",
        metavar="PATH",
        default=None,
        help="write the scorecard as canonical JSON to PATH",
    )
    evaluate.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="accuracy baseline (BENCH_accuracy.json) to regress-check against; "
        "exit code 1 if any metric falls below its committed floor",
    )
    evaluate.set_defaults(handler=_cmd_eval)

    serve = subparsers.add_parser(
        "serve", help="run the durable campaign-orchestration service (HTTP/JSON)"
    )
    serve.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="journal, stores, and results live here (survives restarts)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (default: pick a free port; see endpoint.json)"
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=8,
        metavar="N",
        help="queued-campaign bound; a full queue rejects with 429 (default: %(default)s)",
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        default=4,
        metavar="N",
        help="max active (queued+running) campaigns per tenant (default: %(default)s)",
    )
    serve.add_argument(
        "--gc-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the shared stores to N entries (GC runs between campaigns)",
    )
    serve.add_argument(
        "--gc-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="bound the shared stores to N bytes (GC runs between campaigns)",
    )
    _add_parallel_arguments(serve)
    # A campaign's retries and loss budget come from its submission.
    _add_fault_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    info = subparsers.add_parser("info", help="version and available options")
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)
