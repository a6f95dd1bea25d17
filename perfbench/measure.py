"""Timed runs of one workload and the metrics they report.

End-to-end metrics come from untraced repetitions (program tracing off,
no layer wrappers); per-layer metrics from a separate run that also
makes traced repetitions.  Host timings are medians over repetitions,
each scaled to reference-host seconds by the host slowness measured
just before it (``perfbench/calibrate.py``); modeled values and counts
are exact and must repeat.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import calibrate
from .layers import LayerTracer
from .workloads import PHASE_OF_LAYER, WORKLOADS, Rep, make_inputs, run_rep

#: End-to-end metrics in the result line of ``--trace 0`` runs.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pdgemm_s": "s",
    "peak_rss_mb": "MB",
    "model.q_bytes": "bytes",
    "model.l_msgs": "count",
    "model.peak_mem_bytes": "bytes",
}

#: Printed with the end-to-end metrics but kept out of the result line:
#: the failure share is the line's ``failed``/``attempted`` and reads 0
#: on a correct program, and modeled times are exact virtual-clock values
#: that read the same on every run (their per-layer copies carry them).
REPORT_ONLY_UNITS = {
    "ops_failed_frac": "ratio",
    "model.makespan_us": "us",
    "model.setup_us": "us",
    "model.pdgemm_us": "us",
}


def _per_layer_units() -> dict[str, str]:
    u = {
        "model.makespan_us": "us",
        "model.setup_us": "us",
        "model.pdgemm_us": "us",
        "mpi.comm.split.calls": "count",
        "mpi.comm.split.cpu_s": "s",
        "mpi.transport.sends": "count",
        "mpi.transport.send_cpu_s": "s",
        "mpi.transport.recvs": "count",
        "mpi.transport.match_cpu_s": "s",
        "mpi.transport.msgs_per_s": "1/s",
        "mpi.des.rank_cpu_s": "s",
        "mpi.des.idle_s": "s",
        "mpi.datatypes.pack_calls": "count",
        "mpi.datatypes.pickled_share": "ratio",
        "mpi.datatypes.pack_cpu_s": "s",
        "mpi.datatypes.unpack_cpu_s": "s",
        "mpi.collectives.calls": "count",
        "mpi.collectives.cpu_s": "s",
        "core.plan.calls": "count",
        "core.plan.cpu_s": "s",
        "core.ca3dmm.cpu_s": "s",
    }
    for layer in PHASE_OF_LAYER:
        u[f"{layer}.calls"] = "count"
        u[f"{layer}.cpu_s"] = "s"
        u[f"{layer}.model_us"] = "us"
        u[f"{layer}.model_bytes"] = "bytes"
        u[f"{layer}.model_msgs"] = "count"
    u["core.cannon.gflop"] = "GFLOP"
    u["core.cannon.host_gflops"] = "GFLOP/s"
    u["core.cannon.model_comm_us"] = "us"
    u.update({
        "ft.recoveries": "count",
        "ft.recomputed_gflop": "GFLOP",
        "ft.reused_gflop": "GFLOP",
        "ft.abft_detected": "count",
        "ft.abft.cpu_s": "s",
        "ft.resilient_multiply.cpu_s": "s",
        "mpi.comm.agree.cpu_s": "s",
        "mpi.comm.shrink.cpu_s": "s",
        "rank.unattributed_cpu_s": "s",
        "trace.overhead_s": "s",
    })
    return u


PER_LAYER_UNITS = _per_layer_units()

#: Timed repetitions every run makes at least (of each kind, when tracing).
MIN_REPS = 2


def host_conditions() -> dict:
    """The pinned and observed host conditions a run records."""
    return {
        "backend": os.environ.get("REPRO_MPI_BACKEND"),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


@dataclass
class Result:
    """Outcome of one benchmark run."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]  #: result-line metrics
    units: dict[str, str]
    report: list[str] = field(default_factory=list)

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": _exact(value, self.units[name]),
                       "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        })


def _exact(value, unit: str):
    """Counts print as integers; everything else with all its digits."""
    return int(value) if unit == "count" else value


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _timed_reps(w, inp, seconds: float, trace: bool):
    """Repeat the workload until ``seconds`` would be exceeded.

    The first repetition warms up (imports, lazy set-up, the allocator
    and the OS scheduler's placement of the rank threads) and is only
    checked, not timed.  With ``trace``, every other repetition after it
    is made under a :class:`LayerTracer`.  Returns ``(warmup, untraced,
    traced, tracer)``; ``traced`` holds ``(rep, layer totals)`` pairs.
    """
    untraced: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    tracer = LayerTracer() if trace else None
    start = time.perf_counter()
    calibrator = calibrate.Calibrator()
    calibrator.slowness()  # warms the kernels up too
    warmup = run_rep(w, inp)
    i = 1
    while True:
        gc.collect()  # every repetition starts from a collected heap
        slowness = calibrator.slowness()
        if tracer is not None and i % 2 == 1:
            tracer.rep = len(traced)
            with tracer:
                rep = run_rep(w, inp, hooks=tracer)
            traced.append((rep, tracer.totals()))
            tracer.reset()
        else:
            rep = run_rep(w, inp)
            untraced.append(rep)
        rep.slowness = slowness
        i += 1
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= MIN_REPS and (
            tracer is None or len(traced) >= MIN_REPS)
        if enough and elapsed * (i + 1) / i > seconds:
            return warmup, untraced, traced, tracer


#: Per-layer totals that are counts, not times: they must repeat exactly.
COUNT_KEYS = ("calls", "flops", "pickled")


def _mismatches(reps: list[Rep], traced: list[tuple[Rep, dict]]) -> int:
    """Repetitions whose modeled values or layer counts differ from the
    first repetition's."""
    bad = sum(1 for r in reps[1:] if r.model != reps[0].model)

    def counts(totals: dict) -> dict:
        return {(layer, key): v for layer, vals in totals.items()
                for key, v in vals.items() if key in COUNT_KEYS}

    if traced:
        first = counts(traced[0][1])
        bad += sum(1 for _, t in traced[1:] if counts(t) != first)
    return bad


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path | None = None, workload=None) -> Result:
    """Run workload ``name`` (or the given ``workload``) for ``seconds``."""
    w = workload or WORKLOADS[name]
    inp = make_inputs(w, seed)
    warmup, untraced, traced, tracer = _timed_reps(w, inp, seconds, trace)
    reps = [warmup] + untraced + [r for r, _ in traced]

    attempted = sum(r.calls for r in reps)
    failed = sum(r.failed for r in reps)
    ok_reps = [r for r in reps if r.model]
    mismatched = _mismatches(ok_reps, traced) if ok_reps else 0
    correct = failed == 0 and mismatched == 0 and len(ok_reps) == len(reps)
    if mismatched:
        # A modeled value or count that moves between repetitions is a defect,
        # never averaged: count the whole run's calls as failed.
        failed = attempted
    model = ok_reps[0].model if ok_reps else {}

    e2e = {
        "wall_s": _median([r.scaled(r.wall_s) for r in untraced]),
        "setup_s": _median([r.scaled(r.setup_s) for r in untraced]),
        "pdgemm_s": _median([r.scaled(r.pdgemm_s) for r in untraced]),
        "peak_rss_mb": _median([r.peak_rss_mb for r in untraced]),
        "ops_failed_frac": failed / attempted,
    }
    for key in ("model.q_bytes", "model.l_msgs", "model.peak_mem_bytes",
                "model.makespan_us", "model.setup_us", "model.pdgemm_us"):
        e2e[key] = model.get(key, 0)

    report = [
        f"# workload {w.name} (P={w.nprocs}, m={w.m} n={w.n} k={w.k}, "
        f"{w.calls} call(s) per repetition, kind={w.kind}) seed={seed} "
        f"trace={int(trace)}",
        f"# host {json.dumps(host_conditions(), sort_keys=True)}",
        f"# repetitions: 1 warm-up, {len(untraced)} untraced, "
        f"{len(traced)} traced; "
        f"calls attempted {attempted}, failed {failed}; "
        f"modeled-value mismatches {mismatched}",
        "# per repetition: host wall_s (unscaled) / host slowness: "
        + " ".join(f"{r.wall_s:.3f}/{r.slowness:.3f}" for r in untraced),
        f"# unscaled medians: wall_s {_median([r.wall_s for r in untraced]):.4f} s, "
        f"setup_s {_median([r.setup_s for r in untraced]):.4f} s, "
        f"pdgemm_s {_median([r.pdgemm_s for r in untraced]):.4f} s; "
        f"host slowness {_median([r.slowness for r in untraced]):.3f}",
    ]
    report += [
        f"{key:<24} {e2e[key]:>16.6g} {unit}"
        for key, unit in {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}.items()
    ]

    if not trace:
        metrics = {k: e2e[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    else:
        metrics, shares = _per_layer(untraced, traced, model)
        units = PER_LAYER_UNITS
        report.append("# per-layer self CPU share of rank CPU (traced repetitions)")
        report += [f"{layer:<24} {share:>8.1%}" for layer, share in shares]
        report += [f"{k:<34} {v:>16.6g} {units[k]}" for k, v in metrics.items()]
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"spans-{w.name}.jsonl.gz"
            n = tracer.write_spans(path, {
                "workload": w.name, "seed": seed,
                "span_id": ["rep", "call", "rank"], "host": host_conditions(),
            })
            report.append(f"# {n} spans written to {path}")
    return Result(attempted, failed, correct, metrics, units, report)


def _per_layer(untraced: list[Rep], traced: list[tuple[Rep, dict]], model: dict):
    """Per-layer metrics (medians over traced repetitions) and CPU shares."""

    def med(layer: str, key: str) -> float:
        return _median([t.get(layer, {}).get(key, 0.0) for _, t in traced])

    m: dict[str, float] = {k: model.get(k, 0) for k in (
        "model.makespan_us", "model.setup_us", "model.pdgemm_us")}
    m["mpi.comm.split.calls"] = med("mpi.comm.split", "calls")
    m["mpi.comm.split.cpu_s"] = med("mpi.comm.split", "incl_cpu")
    m["mpi.transport.sends"] = med("mpi.transport.send", "calls")
    m["mpi.transport.send_cpu_s"] = med("mpi.transport.send", "self_cpu")
    m["mpi.transport.recvs"] = med("mpi.transport.match", "calls")
    m["mpi.transport.match_cpu_s"] = med("mpi.transport.match", "self_cpu")
    m["mpi.transport.msgs_per_s"] = _median(
        [r.msgs / r.scaled(r.wall_s) for r in untraced])
    m["mpi.des.rank_cpu_s"] = _median([r.rank_cpu_s for r in untraced])
    m["mpi.des.idle_s"] = _median([r.wall_s - r.proc_cpu_s for r in untraced])
    packs = med("mpi.datatypes.pack", "calls")
    m["mpi.datatypes.pack_calls"] = packs
    m["mpi.datatypes.pickled_share"] = (
        med("mpi.datatypes.pack", "pickled") / packs if packs else 0.0)
    m["mpi.datatypes.pack_cpu_s"] = med("mpi.datatypes.pack", "self_cpu")
    m["mpi.datatypes.unpack_cpu_s"] = med("mpi.datatypes.unpack", "self_cpu")
    m["mpi.collectives.calls"] = med("mpi.collectives", "calls")
    m["mpi.collectives.cpu_s"] = med("mpi.collectives", "self_cpu")
    m["core.plan.calls"] = med("core.plan", "calls")
    m["core.plan.cpu_s"] = med("core.plan", "self_cpu")
    m["core.ca3dmm.cpu_s"] = med("core.ca3dmm", "self_cpu")
    for layer in PHASE_OF_LAYER:
        m[f"{layer}.calls"] = med(layer, "calls")
        m[f"{layer}.cpu_s"] = med(layer, "self_cpu")
        for key in ("model_us", "model_bytes", "model_msgs"):
            m[f"{layer}.{key}"] = model.get(f"{layer}.{key}", 0)
    gflop = med("core.cannon", "flops") / 1e9
    cannon_cpu = m["core.cannon.cpu_s"]
    m["core.cannon.gflop"] = gflop
    m["core.cannon.host_gflops"] = gflop / cannon_cpu if cannon_cpu else 0.0
    m["core.cannon.model_comm_us"] = model.get("core.cannon.model_comm_us", 0.0)
    for key in ("ft.recoveries", "ft.recomputed_gflop", "ft.reused_gflop",
                "ft.abft_detected"):
        m[key] = model.get(key, 0)
    m["ft.abft.cpu_s"] = med("ft.abft", "self_cpu")
    m["ft.resilient_multiply.cpu_s"] = med("ft.resilient_multiply", "self_cpu")
    m["mpi.comm.agree.cpu_s"] = med("mpi.comm.agree", "incl_cpu")
    m["mpi.comm.shrink.cpu_s"] = med("mpi.comm.shrink", "incl_cpu")

    # Self-CPU shares of each traced repetition's rank CPU, medians.
    layers = sorted({layer for _, t in traced for layer in t})
    share_rows = []
    unattributed = []
    for rep, t in traced:
        attributed = sum(v.get("self_cpu", 0.0) for v in t.values())
        unattributed.append(rep.rank_cpu_s - attributed)
    for layer in layers:
        share_rows.append((layer, _median([
            t.get(layer, {}).get("self_cpu", 0.0) / rep.rank_cpu_s
            for rep, t in traced])))
    share_rows.append(("(unattributed)", _median([
        u / rep.rank_cpu_s for u, (rep, _) in zip(unattributed, traced)])))
    share_rows.sort(key=lambda row: -row[1])
    m["rank.unattributed_cpu_s"] = _median(unattributed)
    m["trace.overhead_s"] = (
        _median([r.scaled(r.wall_s) for r, _ in traced])
        - _median([r.scaled(r.wall_s) for r in untraced]))
    return {k: m[k] for k in PER_LAYER_UNITS}, share_rows
