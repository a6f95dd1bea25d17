"""Workloads of the repository benchmark and one timed repetition of each.

A workload is a fixed problem (shape, world size, layout, number of
calls) run closed-loop from the main thread on the DES backend.  The
main thread generates the seeded operands and the reference result once;
ranks only slice their own tiles out of the shared global operands and
return their ``(rect, tile)`` pieces of C, which the main thread checks
element by element against the reference.  Nothing is gathered through
the simulated network for checking, so the checked run sends exactly
the messages a production call would.

Every repetition is one :func:`repro.mpi.run_spmd` world: launch, build
every rank's engine (the one-time set-up the paper excludes), then the
workload's calls.  The program is driven only through its public entry
points: ``run_spmd``, ``Ca3dmm``, ``Ca3dmm.multiply`` and
``resilient_multiply``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core import plan as core_plan
from repro.core.ca3dmm import Ca3dmm
from repro.ft import recovery as ft_recovery
from repro.layout.distributions import Block2D
from repro.layout.matrix import DistMatrix
from repro.machine.model import pace_phoenix_cpu
from repro.mpi.faults import FaultPlan, RankFault
from repro.mpi.errors import VMpiError
from repro.mpi.runtime import run_spmd

#: Phases of the engine whose modeled cost each layer owns.
PHASE_OF_LAYER = {
    "layout.redistribute": "redist",
    "core.replicate": "replicate",
    "core.cannon": "cannon",
    "core.reduce_c": "reduce",
}


@dataclass(frozen=True)
class Workload:
    """One named benchmark problem."""

    name: str
    why: str
    kind: str  #: "native" or "recover"
    nprocs: int
    m: int
    n: int
    k: int
    calls: int = 1
    #: world size and shape of the tiny variant the self-test runs
    tiny: tuple[int, int, int, int] = (8, 24, 24, 24)

    def scaled_down(self) -> "Workload":
        p, m, n, k = self.tiny
        return replace(self, nprocs=p, m=m, n=n, k=k)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "square_p512",
            "square 256^3 on 512 ranks, one call: communicator split, message "
            "matching and scheduler handoff dominate host time",
            kind="native", nprocs=512, m=256, n=256, k=256,
        ),
        Workload(
            "largem_repeat_p64",
            "large-M 4096x1024x1024 on 64 ranks, planned once, 4 calls: Cannon "
            "GEMMs on large array payloads; the control split and pickle work "
            "must not move",
            kind="native", nprocs=64, m=4096, n=1024, k=1024, calls=4,
            tiny=(8, 64, 16, 16),
        ),
        Workload(
            "recover_p128",
            "resilient_multiply with ABFT on 512^3 over 128 ranks, rank 5 killed "
            "at its first Cannon entry: the only workload that runs recovery",
            kind="recover", nprocs=128, m=512, n=512, k=512,
        ),
    )
}

#: The rank the recovery workload kills, and where.
KILLED_RANK = 5


def machine():
    """The machine model every workload runs on."""
    return pace_phoenix_cpu("mpi").with_overlap("none")


def _square_grid(nprocs: int) -> tuple[int, int]:
    """The most square ``pr x pc`` factorization of ``nprocs``."""
    pr = int(np.sqrt(nprocs))
    while nprocs % pr:
        pr -= 1
    return pr, nprocs // pr


# ------------------------------------------------------------- inputs -- #
@dataclass
class Inputs:
    """Seeded operands, the expected C and its elementwise error bound."""

    a: np.ndarray
    b: np.ndarray
    ref: np.ndarray  #: expected C, computed once on the main thread
    tol: np.ndarray  #: elementwise forward-error bound on C


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the workload's operands from ``seed``; same seed, same inputs.

    The error bound is ``2 k eps |A| |B|``, four times the classical
    dot-product bound ``gamma_k |A| |B|`` (``gamma_k ~ k eps / 2``); it
    holds for any summation order, so it accepts every
    correct grid, reduction order and recovery re-plan while a single
    wrong element of size O(1) exceeds it by orders of magnitude.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((w.m, w.k))
    b = rng.standard_normal((w.k, w.n))
    eps = np.finfo(np.float64).eps
    tol = 2.0 * w.k * eps * (np.abs(a) @ np.abs(b)) + np.finfo(np.float64).tiny
    return Inputs(a=a, b=b, ref=a @ b, tol=tol)


# --------------------------------------------------------- rank side -- #
class RankStamps:
    """What each rank's function stamps for the main thread (indexed by rank)."""

    def __init__(self, nprocs: int):
        self.setup_wall = [None] * nprocs  #: perf_counter at set-up end
        self.setup_clock = [None] * nprocs  #: virtual clock at set-up end
        self.thread_cpu = [0.0] * nprocs  #: rank-thread CPU at exit


def _pieces(c: DistMatrix) -> list:
    return list(zip(c.owned_rects, c.tiles))


def _rank_main(comm, w: Workload, inp: Inputs, stamps: RankStamps, hooks):
    """Per-rank program: set up, stamp, make the workload's calls."""
    rank = comm.world_rank
    try:
        if w.kind == "recover":
            # resilient_multiply plans its engine inside each attempt,
            # so this workload's set-up is launching the world and
            # slicing the caller's 2D block operands.
            pr, pc = _square_grid(w.nprocs)
            a = DistMatrix.from_global(
                comm, Block2D((w.m, w.k), w.nprocs, pr, pc), inp.a)
            b = DistMatrix.from_global(
                comm, Block2D((w.k, w.n), w.nprocs, pr, pc), inp.b)
        else:
            engine = Ca3dmm(comm, w.m, w.n, w.k)
            a = DistMatrix.from_global(comm, engine.plan.a_dist, inp.a)
            b = DistMatrix.from_global(comm, engine.plan.b_dist, inp.b)
        stamps.setup_clock[rank] = comm.now()
        stamps.setup_wall[rank] = time.perf_counter()

        out = []
        for call in range(w.calls):
            if hooks is not None:
                hooks.begin_call(call)
            if w.kind == "recover":
                c = ft_recovery.resilient_multiply(
                    comm, a, b, abft=True, max_recoveries=2)
            else:
                c = engine.multiply(a, b)
            out.append(_pieces(c))
        return out
    finally:
        stamps.thread_cpu[rank] = time.thread_time()


# -------------------------------------------------- main-thread side -- #
def count_wrong(pieces: list, inp: Inputs) -> int:
    """Elements of C that are wrong, missing or covered twice."""
    seen = np.zeros(inp.ref.shape, dtype=np.int32)
    wrong = 0
    for rect, tile in pieces:
        sl = (slice(rect.r0, rect.r1), slice(rect.c0, rect.c1))
        seen[sl] += 1
        diff = np.abs(np.asarray(tile) - inp.ref[sl])
        wrong += int(np.count_nonzero(~(diff <= inp.tol[sl])))  # NaN is wrong
    return wrong + int(np.count_nonzero(seen != 1))


def failed_calls(results: list, w: Workload, inp: Inputs) -> int:
    """Calls whose assembled C has any wrong element (killed ranks skipped)."""
    failed = 0
    for call in range(w.calls):
        pieces = [p for r in results if r is not None for p in r[call]]
        failed += count_wrong(pieces, inp) > 0
    return failed


@dataclass
class Rep:
    """One timed repetition: host timings, model values, check outcome."""

    wall_s: float
    setup_s: float
    proc_cpu_s: float  #: CPU of the whole process during the repetition
    rank_cpu_s: float  #: sum of rank-thread CPU
    calls: int
    failed: int
    model: dict  #: deterministic virtual-clock values and counts
    msgs: int  #: messages sent by all ranks
    #: peak resident memory of the process while the repetition ran, MB
    peak_rss_mb: float
    #: host slowness measured just before the repetition (1 = reference host)
    slowness: float = 1.0

    @property
    def pdgemm_s(self) -> float:
        return (self.wall_s - self.setup_s) / self.calls

    def scaled(self, seconds: float) -> float:
        """Host ``seconds`` of this repetition in reference-host seconds."""
        return seconds / self.slowness


def model_values(res, stamps: RankStamps, calls: int) -> dict:
    """Virtual-clock values of a run: paper Q, L, S, makespan and phases."""
    makespan = res.time
    setup = max(t for t in stamps.setup_clock if t is not None)
    vals = {
        "model.makespan_us": makespan * 1e6,
        "model.setup_us": setup * 1e6,
        "model.pdgemm_us": (makespan - setup) * 1e6 / calls,
        "model.q_bytes": res.max_bytes_sent,
        "model.l_msgs": res.max_msgs_sent,
        "model.peak_mem_bytes": max(t.resident_peak_bytes for t in res.traces),
    }
    for layer, phase in PHASE_OF_LAYER.items():
        stats = [t.phases[phase] for t in res.traces if phase in t.phases]
        vals[f"{layer}.model_us"] = max((s.time for s in stats), default=0.0) * 1e6
        vals[f"{layer}.model_bytes"] = max((s.bytes_sent for s in stats), default=0)
        vals[f"{layer}.model_msgs"] = max((s.msgs_sent for s in stats), default=0)
        if layer == "core.cannon":
            vals[f"{layer}.model_comm_us"] = (
                max((s.comm_time for s in stats), default=0.0) * 1e6)
    traces = res.traces
    vals["ft.recoveries"] = max(t.recoveries for t in traces)
    vals["ft.recomputed_gflop"] = sum(t.recomputed_flops for t in traces) / 1e9
    vals["ft.reused_gflop"] = sum(t.reused_flops for t in traces) / 1e9
    vals["ft.abft_detected"] = sum(t.corruptions_detected for t in traces)
    return vals


def _status_kib(field: str) -> int:
    """One ``Vm*`` line of ``/proc/self/status``, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _reset_peak_rss() -> None:
    """Lower the process's peak-RSS mark to its current RSS, so the next
    reading excludes earlier peaks (making the inputs, warm-up)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def run_rep(w: Workload, inp: Inputs, hooks=None) -> Rep:
    """Launch one world, run the workload, check every element of C.

    ``hooks`` (a :class:`~perfbench.layers.LayerTracer` in traced
    repetitions) is told on every rank when each call begins.
    """
    # Each repetition is a fresh world, as a new process would see it:
    # drop the plan memoized by the previous repetition so planning is
    # paid inside set-up every time.
    core_plan._shared_plan_cached.cache_clear()
    stamps = RankStamps(w.nprocs)
    faults = None
    if w.kind == "recover":
        faults = FaultPlan(ranks=(RankFault(
            rank=KILLED_RANK, phase="cannon", occurrence=1, kill=True),))
    _reset_peak_rss()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res = run_spmd(
            w.nprocs, _rank_main, args=(w, inp, stamps, hooks),
            machine=machine(), faults=faults, backend="des",
        )
    except (RuntimeError, VMpiError):
        res = None
    wall = time.perf_counter() - t0
    proc_cpu = time.process_time() - cpu0
    peak_mb = _status_kib("VmHWM") / 1024.0
    rank_cpu = sum(stamps.thread_cpu)
    if res is None:  # the world raised: every call in it failed
        return Rep(wall, wall, proc_cpu, rank_cpu, w.calls, w.calls, {}, 0, peak_mb)
    setup = max(t for t in stamps.setup_wall if t is not None) - t0
    try:
        failed = failed_calls(res.results, w, inp)
    except (TypeError, ValueError, IndexError):  # malformed pieces of C
        failed = w.calls
    return Rep(
        wall_s=wall,
        setup_s=setup,
        proc_cpu_s=proc_cpu,
        rank_cpu_s=rank_cpu,
        calls=w.calls,
        failed=failed,
        model=model_values(res, stamps, w.calls),
        msgs=sum(t.msgs_sent for t in res.traces),
        peak_rss_mb=peak_mb,
    )

