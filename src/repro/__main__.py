"""Top-level CLI: ``python -m repro <command>``.

Commands
--------
``experiments [figXX ...]``
    Run (all or selected) figure reproductions and print them.
``apps``
    List the evaluation application catalog with cost profiles.
``profiles``
    List the host hardware profiles.
``survey [--projects N]``
    Run the Fig 2 Dockerfile survey and print both panels.
``scenarios list``
    List the bundled scenario specs.
``scenarios show <spec>``
    Print a bundled (or JSON-file) spec as JSON.
``scenarios run <spec> [--jobs N] [--out DIR]``
    Run a scenario (bundled name or JSON spec file) and print the report.
``report <out> [--rounds N] [--round-ms MS] [--snapshot-ms MS]``
    Run an instrumented HotC burst workload and write its run report.
``version``
    Print the package version.
"""

from __future__ import annotations

import argparse
import sys

import repro


def cmd_experiments(args) -> int:
    from repro.experiments import run_all

    only = args.figures or None
    figures = run_all(only=only, seed=args.seed, jobs=args.jobs)
    for figure in figures.values():
        print(figure.render())
        print()
    return 0


def cmd_apps(args) -> int:
    from repro.metrics.report import format_table
    from repro.workloads import default_catalog

    catalog = default_catalog()
    rows = []
    for name in catalog.names():
        spec = catalog.get(name)
        rows.append(
            (
                name,
                spec.image,
                spec.language,
                spec.exec_ms,
                spec.app_init_ms,
                spec.mem_mb,
            )
        )
    print(
        format_table(
            ("app", "image", "language", "exec (ms)", "init (ms)", "mem (MB)"),
            rows,
        )
    )
    return 0


def cmd_profiles(args) -> int:
    from repro.hardware import get_profile, list_profiles
    from repro.metrics.report import format_table

    rows = []
    for name in list_profiles():
        profile = get_profile(name)
        rows.append(
            (
                name,
                profile.cores,
                profile.clock_ghz,
                profile.mem_mb,
                profile.compute_scale,
                profile.container_op_scale,
            )
        )
    print(
        format_table(
            ("profile", "cores", "GHz", "mem (MB)", "compute x", "ops x"),
            rows,
        )
    )
    return 0


def cmd_survey(args) -> int:
    from repro.experiments import run_fig02

    print(run_fig02(seed=args.seed, n_projects=args.projects).render())
    return 0


def _resolve_spec(name: str, seed: int):
    """A bundled scenario by name, or a spec loaded from a JSON file."""
    import os

    from repro.scenarios import bundled_names, bundled_spec, load_spec

    if name in bundled_names():
        return bundled_spec(name, seed=seed)
    if os.path.exists(name):
        return load_spec(name)
    known = ", ".join(bundled_names())
    raise SystemExit(
        f"unknown scenario {name!r}: not a bundled name ({known}) "
        "and not a spec file"
    )


def cmd_scenarios(args) -> int:
    from repro.scenarios import bundled_names, bundled_spec, run_scenario

    if args.action == "list":
        for name in bundled_names():
            spec = bundled_spec(name)
            print(f"{name:<32}{spec.description}")
        return 0
    spec = _resolve_spec(args.spec, seed=args.seed)
    if args.action == "show":
        print(spec.to_json(), end="")
        return 0
    report = run_scenario(spec, jobs=args.jobs, out_dir=args.out)
    print(report.render(), end="")
    if args.out:
        print(f"report artifacts written to {args.out}/")
    return 0


def cmd_report(args) -> int:
    """The Fig 14b burst pattern on one host with the adaptive control
    loop on, an observatory and a periodic snapshotter attached; writes
    metrics.prom, events.jsonl, snapshots.jsonl, trace.json,
    accuracy.txt/.json and summary.json into ``args.out``."""
    from repro.core.hotc import HotC, HotCConfig
    from repro.faas.platform import FaasPlatform
    from repro.obs import Observatory, Snapshotter, write_run_report
    from repro.workloads.apps import default_catalog, qr_encoder_app
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.patterns import BurstPattern

    config = HotCConfig(control_interval_ms=args.round_ms)
    platform = FaasPlatform(
        default_catalog().make_registry(),
        seed=args.seed,
        provider_factory=lambda engine: HotC(engine, config),
        jitter_sigma=0.05,
    )
    observatory = Observatory()
    platform.sim.obs = observatory
    snapshotter = Snapshotter(
        platform.sim, observatory, period_ms=args.snapshot_ms
    )
    spec = qr_encoder_app(name="qr-python", language="python")
    platform.deploy(spec)
    platform.sim.process(platform.engine.ensure_image(spec.image))
    platform.run()

    pattern = BurstPattern(
        n_rounds=args.rounds,
        round_ms=args.round_ms,
        burst_rounds=tuple(r for r in (4, 8) if r < args.rounds),
    )
    snapshotter.start()
    platform.provider.start_control_loop()
    last_round = max(time for time, _ in pattern.rounds())
    run_until = platform.sim.now + last_round + 4 * args.round_ms + 120_000.0
    WorkloadGenerator(platform).run(pattern, spec.name, run_until=run_until)
    platform.provider.stop_control_loop()
    snapshotter.stop()
    platform.run()
    platform.shutdown()

    paths = write_run_report(
        args.out,
        observatory,
        traces=platform.traces,
        snapshotter=snapshotter,
    )
    outcomes = platform.traces.outcome_counts()
    print(f"requests: {len(platform.traces)} ({outcomes})")
    print(f"events:   {observatory.events.total_appended}")
    for name, path in sorted(paths.items()):
        print(f"wrote {name}: {path}")
    return 0


def cmd_version(args) -> int:
    print(repro.__version__)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HotC reproduction (CLUSTER 2021) command line",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    commands = parser.add_subparsers(dest="command", required=True)

    experiments = commands.add_parser(
        "experiments", help="run figure reproductions"
    )
    experiments.add_argument("figures", nargs="*", help="e.g. fig08 fig14")
    experiments.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (output identical to serial)",
    )
    experiments.set_defaults(func=cmd_experiments)

    apps = commands.add_parser("apps", help="list the application catalog")
    apps.set_defaults(func=cmd_apps)

    profiles = commands.add_parser("profiles", help="list host profiles")
    profiles.set_defaults(func=cmd_profiles)

    survey = commands.add_parser("survey", help="run the Dockerfile survey")
    survey.add_argument("--projects", type=int, default=2_000)
    survey.set_defaults(func=cmd_survey)

    scenarios = commands.add_parser(
        "scenarios", help="list/show/run scenario specs"
    )
    actions = scenarios.add_subparsers(dest="action", required=True)
    scenarios_list = actions.add_parser("list", help="list bundled scenarios")
    scenarios_list.set_defaults(func=cmd_scenarios)
    scenarios_show = actions.add_parser("show", help="print a spec as JSON")
    scenarios_show.add_argument("spec", help="bundled name or spec file")
    scenarios_show.set_defaults(func=cmd_scenarios)
    scenarios_run = actions.add_parser("run", help="run a scenario")
    scenarios_run.add_argument("spec", help="bundled name or spec file")
    scenarios_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="arm worker processes (report identical to serial)",
    )
    scenarios_run.add_argument(
        "--out", default=None, help="write report.json/report.txt here"
    )
    scenarios_run.set_defaults(func=cmd_scenarios)

    report = commands.add_parser(
        "report", help="run an instrumented workload, write its run report"
    )
    report.add_argument("out", help="output directory (created if missing)")
    report.add_argument(
        "--rounds", type=int, default=12, help="workload rounds (default 12)"
    )
    report.add_argument(
        "--round-ms",
        type=float,
        default=30_000.0,
        help="round / control interval length in sim ms (default 30000)",
    )
    report.add_argument(
        "--snapshot-ms",
        type=float,
        default=5_000.0,
        help="registry snapshot period in sim ms (default 5000)",
    )
    report.set_defaults(func=cmd_report)

    version = commands.add_parser("version", help="print the version")
    version.set_defaults(func=cmd_version)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
