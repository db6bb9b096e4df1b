"""The ``repro`` command line: run declarative experiments from files.

Every subcommand consumes the TOML/JSON experiment files of
:mod:`repro.api.experiment` (see ``examples/experiments/``) and routes
through the same :class:`~repro.api.study.Study` facade the Python API
uses, so a CLI run is byte-identical to the equivalent fluent study::

    repro run examples/experiments/quickstart.toml
    repro sweep examples/experiments/scenario1_tuning.toml --cache readwrite
    repro sweep scenario1_tuning.toml --cache-dir .cache \\
        --extend "initial_tuned_frequency_hz=72,73"
    repro explore examples/experiments/scenario1_halving.toml
    repro compare my_comparison.toml
    repro export experiment.toml --csv traces.csv
    repro scenarios
    repro cache ls
    repro cache stats --json
    repro cache gc --days 30
    repro cache clear --yes

``--cache``/``--cache-dir`` override the experiment's own
options; ``--json`` switches the report to machine-readable JSON on
stdout (the CI smoke job diffs two such reports to prove the warm rerun
serves the identical result from the cache).

Exit codes: 0 success, 2 configuration problems (bad file, unknown
fields, incoherent options — the message names the offender), 1
unexpected errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from .api import ExperimentSpec, Study
from .api.results import (
    ComparisonResult,
    ExplorationResult,
    RunHandle,
    StudyResult,
)
from .cache import ResultStore, default_cache_dir
from .core.errors import SimulationError
from .io import load_experiment
from .io.report import format_key_values, format_sweep_value, format_table

__all__ = ["main"]


# ---------------------------------------------------------------------- #
# shared helpers
# ---------------------------------------------------------------------- #
def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="experiment file (.toml or .json)")
    parser.add_argument(
        "--cache",
        choices=("off", "read", "readwrite"),
        default=None,
        help="override the experiment's cache mode",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "result-store directory (default: REPRO_CACHE_DIR or "
            "~/.cache/repro); if the experiment leaves caching off and no "
            "--cache mode is given, this implies --cache readwrite"
        ),
    )
    parser.add_argument(
        "--no-traces",
        action="store_true",
        help="do not store waveform traces in cached single-run entries",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON report on stdout",
    )
    parser.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="additionally export the result to CSV via repro.io",
    )


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    spec = load_experiment(args.experiment)
    overrides: Dict[str, object] = {}
    if args.cache is not None:
        overrides["cache"] = args.cache
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
        if spec.options.cache == "off" and args.cache is None:
            overrides["cache"] = "readwrite"
    if args.no_traces:
        overrides["store_traces"] = False
    if overrides:
        spec = spec.with_options(**overrides)
    return spec


def _spec_kind(spec: ExperimentSpec) -> str:
    if spec.sweep is not None:
        return "sweep" if spec.options.explore is None else "explore"
    if spec.compare:
        return "compare"
    return "single"


def _cache_status(result) -> str:
    """One-word cache verdict of a finished result (plus hit counts)."""
    if isinstance(result, RunHandle):
        return str(result.metadata.get("cache", "off"))
    if isinstance(result, StudyResult):
        info = result.engine_info
        if info is None or info.cache == "off":
            return "off"
        if info.n_cache_hits == info.n_candidates:
            return f"hit ({info.n_cache_hits}/{info.n_candidates} candidates)"
        return f"{info.n_cache_hits}/{info.n_candidates} candidates hit"
    if isinstance(result, ComparisonResult):
        statuses = {
            name: str(handle.metadata.get("cache", "off"))
            for name, handle in result.handles.items()
        }
        if len(set(statuses.values())) == 1:
            return next(iter(statuses.values()))
        return ", ".join(f"{name}: {status}" for name, status in statuses.items())
    return "off"


def _finals(handle: RunHandle) -> Dict[str, float]:
    """Final value of every recorded trace (deterministic rerun check)."""
    return {name: handle.final(name) for name in handle.trace_names()}


def _report_run(spec: ExperimentSpec, result, args, elapsed_s: float) -> None:
    kind = _spec_kind(spec)
    cache_status = _cache_status(result)
    if args.json:
        report: Dict[str, object] = {
            "experiment": spec.name or getattr(spec.scenario, "name", ""),
            "kind": kind,
            "content_hash": spec.content_hash(),
            "cache": cache_status,
            "elapsed_s": elapsed_s,
            "summary": _jsonable_summary(result.summary()),
        }
        if isinstance(result, RunHandle):
            report["finals"] = _finals(result)
        elif isinstance(result, StudyResult):
            report["points"] = [
                {
                    "parameters": {
                        name: format_sweep_value(value)
                        for name, value in point.parameters.items()
                    },
                    "score": point.score,
                }
                for point in result.points
            ]
            report["best_score"] = result.best().score
            if isinstance(result, ExplorationResult):
                report["strategy"] = result.strategy
                report["work_fraction"] = result.work_fraction
                report["rounds"] = [
                    {
                        "horizon": record.horizon,
                        "n_candidates": len(record.points),
                        "n_evaluated": record.n_evaluated,
                        "n_cache_hits": record.n_cache_hits,
                        "n_resumed": record.n_resumed,
                    }
                    for record in result.rounds
                ]
        elif isinstance(result, ComparisonResult):
            report["cpu_times"] = result.cpu_times()
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(spec.describe())
    if isinstance(result, RunHandle):
        print(result.format())
        finals = {name: f"{value:.6g}" for name, value in _finals(result).items()}
        print()
        print(format_key_values(finals, title="final trace values"))
    elif isinstance(result, StudyResult):
        print(result.format())
        print()
        print(format_key_values(result.summary(), title=f"{kind} summary"))
    else:
        print(result.format())
        print()
        print(format_key_values(result.summary(), title="comparison summary"))
    print()
    print(f"cache: {cache_status}")
    print(f"elapsed: {elapsed_s:.3f} s")


def _jsonable_summary(summary: Dict[str, object]) -> Dict[str, object]:
    return {
        key: value
        if isinstance(value, (bool, int, float, str, dict, list, type(None)))
        else str(value)
        for key, value in summary.items()
    }


def _export_csv(result, path: str) -> str:
    if isinstance(result, ComparisonResult):
        raise SimulationError(
            "CSV export of a comparison is ambiguous; export the solvers "
            "individually (repro run with solver=... specs)"
        )
    return str(result.export_csv(path))


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def _run_spec(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    start = time.perf_counter()
    result = Study.from_spec(spec).run()
    elapsed = time.perf_counter() - start
    _report_run(spec, result, args, elapsed)
    if args.csv:
        path = _export_csv(result, args.csv)
        if not args.json:
            print(f"exported: {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_spec(_load_spec(args), args)


def _require_kind(spec: ExperimentSpec, expected: str, command: str) -> None:
    kind = _spec_kind(spec)
    if kind != expected:
        raise SimulationError(
            f"`repro {command}` needs a {expected} experiment, but "
            f"{spec.name or '<experiment>'!s} is a {kind} experiment; "
            f"use `repro run` (which dispatches any kind) or fix the file"
        )


def _parse_extension(text: str):
    """Parse one ``--extend "axis=v1,v2"`` argument into (name, values)."""
    name, sep, raw = text.partition("=")
    name = name.strip()
    if not sep or not name or not raw.strip():
        raise SimulationError(
            f"--extend expects \"axis=value,value,...\", got {text!r}"
        )
    values = []
    for item in raw.split(","):
        item = item.strip()
        try:
            # always a float: the subset sweep's axis values are floats
            # after TOML round-trip, and a mixed int/float axis would
            # split cache keys for numerically identical candidates
            values.append(float(item))
        except ValueError:
            raise SimulationError(
                f"--extend {name!r}: value {item!r} is not a number; only "
                "numeric axis extensions are supported on the command line"
            ) from None
    return name, values


def _apply_extensions(spec: ExperimentSpec, extensions: List[str]) -> ExperimentSpec:
    """Grow sweep axes in place and switch the experiment to grid extension.

    Every previously swept grid point keeps its exact parameter values, so
    a warm result cache serves the whole subset grid and only the new
    points cost simulation work (``explore="extend"``).  Caching is
    switched on (``readwrite``) when the experiment left it off — an
    extension without a cache would silently re-simulate everything.
    """
    import dataclasses

    from .api import SweepAxis, SweepSpec

    if spec.sweep is None:
        raise SimulationError(
            "--extend needs a sweep experiment (the file has no [sweep] "
            "section)"
        )
    axes = {axis.name: list(axis.values) for axis in spec.sweep.axes}
    for text in extensions:
        name, values = _parse_extension(text)
        if name not in axes:
            available = ", ".join(axes)
            raise SimulationError(
                f"--extend {name!r}: the sweep has no such axis (axes: "
                f"{available}); extensions grow existing axes so the "
                "subset grid stays cache-compatible"
            )
        for value in values:
            if value not in axes[name]:
                axes[name].append(value)
    sweep = SweepSpec(
        axes=tuple(
            SweepAxis(name=name, values=tuple(values))
            for name, values in axes.items()
        ),
        metric=spec.sweep.metric,
        metric_name=spec.sweep.metric_name,
    )
    overrides: Dict[str, object] = {"explore": "extend"}
    if spec.options.cache == "off":
        overrides["cache"] = "readwrite"
    return dataclasses.replace(
        spec, sweep=sweep, options=spec.options.replace(**overrides)
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if args.extend:
        spec = _apply_extensions(spec, args.extend)
    else:
        _require_kind(spec, "sweep", "sweep")
    return _run_spec(spec, args)


def _cmd_explore(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    overrides: Dict[str, object] = {}
    if args.strategy is not None:
        overrides["explore"] = args.strategy
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        spec = spec.with_options(**overrides)
    _require_kind(spec, "explore", "explore")
    return _run_spec(spec, args)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .api.experiment import SCENARIO_FACTORIES

    entries = []
    for name in sorted(SCENARIO_FACTORIES):
        doc = (SCENARIO_FACTORIES[name].__doc__ or "").strip()
        entries.append((name, doc.splitlines()[0] if doc else ""))
    if args.json:
        print(json.dumps(dict(entries), indent=2, sort_keys=True))
        return 0
    print(
        format_table(
            ["factory", "description"],
            [list(entry) for entry in entries],
            "scenario factories (experiment files: scenario = {factory = ...})",
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    _require_kind(spec, "compare", "compare")
    return _run_spec(spec, args)


def _cmd_export(args: argparse.Namespace) -> int:
    if not args.csv:
        raise SimulationError("repro export needs --csv PATH")
    return _cmd_run(args)


def _store_for(args: argparse.Namespace) -> ResultStore:
    return ResultStore(args.cache_dir)


def _cmd_cache_ls(args: argparse.Namespace) -> int:
    store = _store_for(args)
    entries = list(store.entries())
    stats = store.stats()
    if args.json:
        print(
            json.dumps(
                {
                    "stats": stats,
                    "entries": [
                        dict(descriptor, key=key) for key, descriptor in entries
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not entries:
        print(f"cache at {store.root} is empty")
        return 0
    now = time.time()
    rows: List[List[str]] = []
    for key, descriptor in entries:
        if descriptor.get("corrupt"):
            rows.append([key[:12], "corrupt", "", "", ""])
            continue
        age_s = max(0.0, now - float(descriptor.get("created_at", now)))
        rows.append(
            [
                key[:12],
                str(descriptor.get("kind", "?")),
                str(descriptor.get("label", ""))[:40],
                f"{int(descriptor.get('size_bytes', 0))}",
                "stale" if descriptor.get("stale") else f"{age_s / 3600.0:.1f} h",
            ]
        )
    print(
        format_table(
            ["key", "kind", "label", "bytes", "age"],
            rows,
            f"result cache at {store.root}",
        )
    )
    print()
    print(format_key_values(stats, title="totals"))
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _store_for(args)
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(format_key_values(stats, title=f"result store at {store.root}"))
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _store_for(args)
    removed = store.gc(max_age_days=args.days)
    print(f"removed {removed} entries from {store.root}")
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _store_for(args)
    if not args.yes:
        stats = store.stats()
        if stats["n_entries"]:
            print(
                f"would remove {stats['n_entries']} entries "
                f"({stats['total_bytes']} bytes) from {store.root}; "
                "re-run with --yes to confirm"
            )
            return 2
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "linearised state-space harvester simulation — declarative "
            "experiment runner (DATE 2011 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run any experiment file")
    _add_experiment_arguments(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a sweep experiment (ranking view)")
    _add_experiment_arguments(sweep)
    sweep.add_argument(
        "--extend",
        action="append",
        default=None,
        metavar="AXIS=V1,V2",
        help=(
            "grow a sweep axis with extra values and run the extended grid "
            "as a cached grid extension (previously swept points are "
            "served from the result cache); repeatable"
        ),
    )
    sweep.set_defaults(func=_cmd_sweep)

    explore = sub.add_parser(
        "explore",
        help="run an exploration experiment (budgeted search over the grid)",
    )
    _add_experiment_arguments(explore)
    explore.add_argument(
        "--strategy",
        default=None,
        help="override the exploration strategy (grid/random/latin/halving/extend)",
    )
    explore.add_argument(
        "--budget", type=int, default=None, help="override the candidate budget"
    )
    explore.add_argument(
        "--seed", type=int, default=None, help="override the sampling seed"
    )
    explore.set_defaults(func=_cmd_explore)

    compare = sub.add_parser(
        "compare", help="run a multi-solver comparison experiment"
    )
    _add_experiment_arguments(compare)
    compare.set_defaults(func=_cmd_compare)

    export = sub.add_parser(
        "export", help="run an experiment and export the result to CSV"
    )
    _add_experiment_arguments(export)
    export.set_defaults(func=_cmd_export)

    scenarios = sub.add_parser(
        "scenarios", help="list the named scenario factories experiment files can use"
    )
    scenarios.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON on stdout",
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    cache = sub.add_parser("cache", help="inspect or maintain the result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, func, extra in (
        ("ls", _cmd_cache_ls, "list entries"),
        ("stats", _cmd_cache_stats, "aggregate store statistics"),
        ("gc", _cmd_cache_gc, "drop stale/corrupt (and optionally old) entries"),
        ("clear", _cmd_cache_clear, "drop every entry"),
    ):
        sub_parser = cache_sub.add_parser(name, help=extra)
        sub_parser.add_argument(
            "--cache-dir",
            default=None,
            help=f"store directory (default: {default_cache_dir()})",
        )
        if name in ("ls", "stats"):
            sub_parser.add_argument("--json", action="store_true")
        if name == "gc":
            sub_parser.add_argument(
                "--days", type=float, default=None, help="also drop entries older than this"
            )
        if name == "clear":
            sub_parser.add_argument("--yes", action="store_true")
        sub_parser.set_defaults(func=func)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point (``[project.scripts] repro``)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except SimulationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - python -m repro.cli
    sys.exit(main())
