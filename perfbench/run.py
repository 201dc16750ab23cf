"""Host-time benchmark of the serving simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload model-steady --seed 1 \\
        --seconds 18 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``,
``jobs_per_s``, ``peak_rss_mb``) with no wrapper installed;
``--trace 1`` reports the per-layer split from a separate traced run
and writes its spans to ``.perfbench_out/``.  Workloads, metrics and
what each should move are listed in ``perfbench/README.md``.

Seeds: :data:`DEFAULT_SEED` while tuning; :data:`HELD_OUT_SEED` is kept
back, so a later claim can be checked on a seed no change was tuned on.

Output: a header naming the interpreter, libraries and CPU, one line
per metric with its unit, then as the last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program under test must be importable from ``./src``; if it is not,
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 60013
OUT_DIR = Path(".perfbench_out")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _import_program() -> bool:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is "
              f"missing (run from the root of a checkout)",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    if not _import_program():
        return 2
    import numpy
    import scipy

    import bench
    from metrics import UNITS
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    print(f"# python {platform.python_version()}, numpy "
          f"{numpy.__version__}, scipy {scipy.__version__}")
    print(f"# cpu {_cpu_model()}, nproc {os.cpu_count()}")
    print(f"# workload {wl.name} ({wl.n_jobs} jobs, {wl.execution}): "
          f"{wl.why}")
    print(f"# seed {args.seed} (default {DEFAULT_SEED}, held out "
          f"{HELD_OUT_SEED}), {args.seconds:g} s, trace {args.trace}")

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    spans = (OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
             if args.trace else None)
    try:
        out = bench.run(wl, args.seed, args.seconds, bool(args.trace),
                        work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in out.breaches[:20]:
        print(f"breach: {line}", file=sys.stderr)
    for name, value in out.info.items():
        print(f"# {name} {value:g}")
    for name, value in out.metrics.items():
        print(f"{name} = {value!r} {UNITS[name]}")
    if spans is not None and out.metrics:
        print(f"# spans written to {spans}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
