"""Repository benchmark: one workload per process, one JSON line out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-levels --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced phase of ``seconds / 2`` each and reports the
per-layer metrics (see ``perfbench/NOTES.md``).  Metric names and units
come from ``BENCHMARK.json`` at the checkout root.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
diagnostics go to standard error.  Without the ``repro`` sources under
``src/`` the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-levels", "serve-fresh", "control-campaign")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics this mode must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # The benchmark is imported as the ``perfbench`` package, never its
    # files as top-level modules: drop this script's directory.
    here = pathlib.Path(__file__).resolve().parent
    if sys.path and pathlib.Path(sys.path[0]).resolve() == here:
        del sys.path[0]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    units = declared_metrics(bool(args.trace))
    from perfbench.common import MIN_P99_SAMPLES

    if args.workload == "control-campaign":
        from perfbench import control as workload
    else:
        from perfbench import serve as workload
    result = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    values = result["metrics"]
    if args.trace:
        # A layer the workload never enters reads zero.
        values = {name: values.get(name, 0.0) for name in units} | values
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: {args.workload} reported {sorted(values)}, "
            f"BENCHMARK.json declares {sorted(units)}"
        )
    for note in result["notes"]:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    samples = result["samples"]
    print(
        f"perfbench: {args.workload} seed {args.seed}: "
        f"{result['attempted']} operations, {samples} latency samples",
        file=sys.stderr,
    )
    if not args.trace and samples < MIN_P99_SAMPLES:
        print(
            f"perfbench: warning: p99 from {samples} samples leaves fewer "
            "than 10 beyond it; raise --seconds",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
