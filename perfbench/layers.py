"""Per-layer host tracing, installed from outside the program.

:class:`LayerTracer` wraps the public functions of each layer — module
functions wherever the package holds a reference to them, and class
methods on their class — for the duration of a ``with`` block.  Every
wrapped call becomes an in-memory span ``(id, parent, layer, rank,
rep, call, start, end, self_cpu)``; spans of one pdgemm call share
``(rep, call, rank)``.  Self CPU is ``time.thread_time()`` measured on
a per-thread stack minus the CPU of nested wrapped calls.  Under the
DES backend a parked rank burns no CPU, so a rank thread's CPU is
exactly the work done on that rank's behalf.

A call that re-enters its own layer (a collective built from other
collectives) counts once; its self CPU still goes to the layer.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: layer -> wrapped targets, as ``module:qualname`` strings.
TARGETS: dict[str, tuple[str, ...]] = {
    "core.plan": (
        "repro.core.plan:shared_plan",
        "repro.core.plan:Ca3dmmPlan.__init__",
    ),
    "core.ca3dmm": (
        "repro.core.ca3dmm:Ca3dmm.__init__",
        "repro.core.ca3dmm:Ca3dmm.multiply",
    ),
    "mpi.comm.split": ("repro.mpi.comm:Comm.split",),
    "mpi.comm.agree": ("repro.mpi.comm:Comm.agree",),
    "mpi.comm.shrink": ("repro.mpi.comm:Comm.shrink",),
    "mpi.collectives": tuple(
        f"repro.mpi.collectives:{fn}"
        for fn in (
            "barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
            "allgather", "alltoall", "reduce_scatter",
            "ibcast", "iallgather", "ireduce_scatter",
        )
    ),
    "mpi.transport.send": ("repro.mpi.transport:Transport.post_send",),
    "mpi.transport.match": ("repro.mpi.transport:Transport.match_recv",),
    "mpi.datatypes.pack": ("repro.mpi.datatypes:payload_pack",),
    "mpi.datatypes.unpack": ("repro.mpi.datatypes:payload_unpack",),
    "layout.redistribute": ("repro.layout.redistribute:redistribute",),
    "core.replicate": ("repro.core.replicate:replicate_block",),
    "core.cannon": ("repro.core.cannon:cannon_multiply",),
    "core.reduce_c": ("repro.core.reduce_c:reduce_partial_c",),
    "ft.abft": (
        "repro.ft.abft:augment_a",
        "repro.ft.abft:augment_b",
        "repro.ft.abft:operand_checksum_errors",
        "repro.ft.abft:AbftGuard.verified_bordered",
    ),
    "ft.resilient_multiply": ("repro.ft.recovery:resilient_multiply",),
}


def thread_rank() -> int | None:
    """World rank of the calling DES rank strand, None off-rank."""
    name = threading.current_thread().name
    if name.startswith("vmpi-des-"):
        return int(name[len("vmpi-des-"):])
    return None


def _cannon_flops(args, kwargs, result) -> float:
    """Local GEMM flops of one Cannon call: s shifts of the rank's blocks."""
    cart, a_blk, b_blk = args[:3]
    return 2.0 * a_blk.shape[0] * b_blk.shape[1] * a_blk.shape[1] * cart.nrows


def _pickled(args, kwargs, result) -> float:
    """1 when payload_pack pickled the value (its ``is_array`` is false)."""
    return 0.0 if result[2] else 1.0


#: layer -> (counter name, observer of one call's arguments and result)
OBSERVERS = {
    "core.cannon": ("flops", _cannon_flops),
    "mpi.datatypes.pack": ("pickled", _pickled),
}


class _Frame:
    __slots__ = ("layer", "span", "cpu0", "child_cpu")

    def __init__(self, layer, span, cpu0):
        self.layer = layer
        self.span = span
        self.cpu0 = cpu0
        self.child_cpu = 0.0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[_Frame] = []
        self.acc = None  # this thread's per-layer accumulators
        self.spans = None
        self.rank = None
        self.call = -1


class LayerTracer:
    """Collects per-layer calls, self/inclusive CPU and spans of a run."""

    def __init__(self):
        self.rep = 0
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        self._accs: list[dict] = []  # one per thread that ever traced
        self._spans: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------- rank hooks -- #
    def begin_call(self, call: int) -> None:
        """Mark the start of the rank's ``call``-th pdgemm (span ids)."""
        self._tls.call = call

    # ---------------------------------------------------- collection -- #
    def _thread_state(self) -> _ThreadState:
        tls = self._tls
        if tls.acc is None:
            tls.acc = defaultdict(lambda: defaultdict(float))
            tls.spans = []
            tls.rank = thread_rank()
            with self._lock:
                self._accs.append(tls.acc)
                self._spans.append(tls.spans)
        return tls

    def _wrap(self, layer: str, fn):
        observer = OBSERVERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tls = tracer._thread_state()
            stack = tls.stack
            parent = stack[-1] if stack else None
            reentry = parent is not None and parent.layer == layer
            frame = _Frame(layer, next(tracer._ids), time.thread_time())
            t0 = time.perf_counter()
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                t1 = time.perf_counter()
                cpu = time.thread_time() - frame.cpu0
                self_cpu = cpu - frame.child_cpu
                acc = tls.acc[layer]
                acc["self_cpu"] += self_cpu
                if parent is not None:
                    parent.child_cpu += cpu
                if not reentry:
                    acc["calls"] += 1
                    acc["incl_cpu"] += cpu
                tls.spans.append((
                    frame.span, parent.span if parent else None, layer,
                    tls.rank, tracer.rep, tls.call, t0, t1, self_cpu,
                ))
            if observer is not None:
                name, observe = observer
                acc[name] += observe(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "LayerTracer":
        for layer, targets in TARGETS.items():
            for target in targets:
                self._install(layer, target)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _install(self, layer: str, target: str) -> None:
        modname, qualname = target.split(":")
        owner = sys.modules[modname]
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapper = self._wrap(layer, original)
        if path:  # a method: patch it on its class
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        # A function: patch every package module that imported it by
        # name, so callers' own references see the wrapper too.
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # ------------------------------------------------------- results -- #
    def totals(self) -> dict[str, dict[str, float]]:
        """Per-layer sums over every thread: calls, self/incl CPU, counters."""
        out: dict[str, dict[str, float]] = {}
        for acc in self._accs:
            for layer, vals in acc.items():
                dst = out.setdefault(layer, defaultdict(float))
                for key, v in vals.items():
                    dst[key] += v
        return out

    def reset(self) -> None:
        """Drop the counters (spans are kept until written)."""
        for acc in self._accs:
            acc.clear()

    def write_spans(self, path, header: dict) -> int:
        """Write every span recorded so far as gzipped JSON lines.

        The first line is ``header``; returns the number of spans.
        """
        keys = ("id", "parent", "layer", "rank", "rep", "call",
                "start", "end", "self_cpu")
        n = 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for spans in self._spans:
                for span in spans:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
                    n += 1
        return n
