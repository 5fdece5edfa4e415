"""lesionseg benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root or anywhere else; the program is imported from
the ``src/`` directory next to ``perfbench/``. ``--trace 0`` prints the
end-to-end metrics and ``--trace 1`` the per-layer ones, each by name with
its unit, then the machine facts, the sample counts and the output checks.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in both modes, each in its own process.

Exit codes: 0 when every output check passed, 1 when one failed (the result
is still printed), 2 when the program cannot be imported (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_full", "train_baseline", "infer_full")
# One BLAS thread: the desk-scale GEMMs run no faster on two, and a second
# thread makes the timing depend on whatever else shares the other core.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine_facts() -> dict[str, str]:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": str(os.cpu_count()), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": " ".join(f"{k}={os.environ[k]}" for k in BLAS_ENV)}


def run_all(seed: int, seconds: int) -> int:
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                check=False)
            status = max(status, proc.returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lesionseg
    except ImportError as err:
        print(f"perfbench: cannot import lesionseg from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    if Path(lesionseg.__file__).resolve().parent != ROOT / "src" / "lesionseg":
        print(f"perfbench: lesionseg imported from {lesionseg.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import pipeline
    import traced
    runner = traced.run if args.trace else pipeline.run
    checks = pipeline.Checks()
    metrics, counts = runner(args.workload, args.seed, args.seconds, ROOT, checks)
    if args.trace:
        metrics["fail_ratio"] = checks.failed / checks.attempted

    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           f"both measured and listed in BENCHMARK.json")
    print(f"# lesionseg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    print("# samples: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:14.6f}  {unit}")
    print(f"# checks: attempted={checks.attempted} failed={checks.failed} "
          f"fail_ratio={checks.failed / checks.attempted:.6f}")
    for note in checks.notes:
        print(f"# FAILED: {note}")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
