"""Benchmark of the linearised state-space simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload scalar_charging --seed 1 --seconds 20 --trace 0

``--workload`` is one of the workloads in ``BENCHMARK.json``.  ``--seed``
draws the workload's inputs; the program receives only the generated
scenarios.  The closed loop runs for ``--seconds``.  With ``--trace 0`` the
last line of standard output is a JSON object with every end-to-end metric;
with ``--trace 1`` the loop runs untraced for half the time, then runs the
same iterations again with spans recorded around the layer functions, and
the object holds every per-layer metric.  The spans are written to
``.perfbench_out/trace_<workload>.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
#: fewest iterations of the closed loop, however long one takes
MIN_ITERATIONS = 3


def _environment() -> dict:
    import numpy
    import scipy

    from repro.core.kernels import available_backends, resolve_compiled

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "available_backends": list(available_backends()),
        "compiled_auto": resolve_compiled("auto"),
        "machine": platform.machine(),
        "commit": commit,
    }


def _setup_seconds(workload) -> float:
    """Median fresh-interpreter set-up time over ``SETUP_PROBES`` probes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(probe), workload.setup_factory],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _loop(workload, start_index: int, *, seconds=None, count=None) -> list:
    """Run iterations until ``seconds`` pass (or ``count`` ran).

    Returns the iterations' walls, scaled like the samples to the reference
    host speed.
    """
    walls = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        if count is not None and len(walls) >= count:
            break
        if (
            count is None
            and len(walls) >= MIN_ITERATIONS
            and time.perf_counter() >= deadline
        ):
            break
        workload.tracer.iteration = start_index + len(walls)
        workload.calibrate()
        scale = workload.speed_scale
        begin = time.perf_counter()
        workload.iterate(len(walls))
        walls.append((time.perf_counter() - begin) * scale)
    return walls


def _write_trace(path: Path, workload, tracer, env, figures) -> None:
    document = {
        "workload": workload.name,
        "environment": env,
        "per_layer": figures,
        "totals": {
            "columns": ["name", "leg", "calls", "seconds", "self_seconds", "value"],
            "rows": [
                [name, leg] + list(total)
                for (name, leg), total in sorted(tracer.totals.items())
            ],
        },
        "spans": {
            "columns": ["id", "parent", "name", "start", "end", "iteration",
                        "value", "self_seconds", "leg"],
            "rows": tracer.spans,
            "dropped": tracer.dropped,
        },
    }
    path.write_text(json.dumps(document))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}

    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    workload = WORKLOADS[args.workload](args.seed, tracer, str(OUT))

    setup_s = _setup_seconds(workload)
    env = _environment()
    print("environment " + json.dumps(env, sort_keys=True))

    workload.warm_up()
    if args.trace:
        walls_untraced = _loop(workload, 0, seconds=args.seconds / 2)
        n = len(walls_untraced)
        untraced_samples = workload.take_samples()
        uninstall = tracing.install(tracer)
        tracer.enabled = True
        try:
            walls_traced = _loop(workload, n, count=n)
        finally:
            tracer.enabled = False
            uninstall()
        workload.take_samples()
    else:
        n = len(_loop(workload, 0, seconds=args.seconds))
    workload.finish()

    if args.trace:
        from layers import per_layer

        figures = per_layer(
            workload, tracer, n, (walls_untraced, walls_traced, untraced_samples)
        )
        _write_trace(OUT / f"trace_{workload.name}.json", workload, tracer, env, figures)
    else:
        figures = workload.end_to_end()
        figures["setup_s"] = setup_s
        figures["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    if set(figures) != set(units):
        raise RuntimeError(
            f"metrics {sorted(figures)} do not match BENCHMARK.json {sorted(units)}"
        )
    report = dict(workload.report, iterations=n)
    print(f"{workload.name} " + json.dumps(report, sort_keys=True))
    for name in sorted(figures):
        print(f"  {name:<42} {figures[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": workload.failed == 0,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": {
                    name: {"value": float(figures[name]), "unit": units[name]}
                    for name in sorted(figures)
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
