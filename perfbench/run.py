"""Repository benchmark: simulator host time and modeled pdgemm cost.

Run from the repository root::

    python3 perfbench/run.py --workload square_p512 --seed 1 --seconds 40 --trace 0

Each run executes one workload (see ``perfbench/workloads.py``) in this
single process on the DES backend: one warm-up repetition, then
repetitions closed-loop for about ``--seconds`` seconds in all.  Every
repetition checks every element of C.  Modeled values must repeat exactly from one
repetition to the next; a mismatch is reported as a failure.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions).  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics; the traced ones wrap each layer's
public functions (``perfbench/layers.py``) and their spans are written
to ``perfbench/out/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable report.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Host conditions are pinned before numpy loads: one BLAS thread, so the
# DES backend's single runnable rank thread is the only busy thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_MPI_BACKEND"] = "des"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure

    # One CPU for the whole process (rank threads inherit it): DES runs
    # one rank at a time, and handing the world to a rank parked on the
    # other CPU made repetitions slower and less steady.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        out_dir=ROOT / "perfbench" / "out",
    )
    for line in result.report:
        print(line)
    print(result.json_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
