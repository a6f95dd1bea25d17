"""Collective operations, built on the point-to-point layer.

Each collective is implemented with a textbook algorithm whose message
count and volume match the α-β costs the CA3DMM paper assumes
(Thakur, Rabenseifner & Gropp, IJHPCA 2005):

=================  ============================  ===========================
collective         algorithm                     per-rank cost
=================  ============================  ===========================
barrier            dissemination                 α·⌈log2 P⌉
bcast              binomial (short) /            α·log2 P + β·n   (short)
                   scatter+allgather (long)      α(log2 P + P-1) + 2βn(P-1)/P
reduce             binomial tree                 α·log2 P + β·n
allreduce          recursive doubling (2^t) /    α·log2 P + β·n
                   reduce+bcast otherwise
gather/scatter     linear                        α(P-1) + βn(P-1)/P at root
allgather          Bruck                         α·⌈log2 P⌉ + βn(P-1)/P
alltoall           pairwise exchange             α(P-1) + βn(P-1)/P
reduce_scatter     pairwise exchange             α(P-1) + βn(P-1)/P
=================  ============================  ===========================

Because these run on the measured transport, executed traffic can be
checked against the paper's closed-form costs (see ``tests/analysis``).

All functions are collective: every rank of the communicator must call
them in the same order.  Message tags are drawn from a reserved internal
range; per-(source, tag) FIFO matching makes back-to-back collectives on
the same communicator safe without per-call tag salting.

Every collective is built on ``sendrecv``/``recv``, so under a fault
plan (:mod:`repro.mpi.faults`) they inherit the receive-side
timeout/retry/backoff semantics automatically: a dropped message inside
a collective shows up as injected retries on the affected rank, and an
exhausted retry budget aborts the job with a typed
:class:`~repro.mpi.errors.RecvTimeoutError` instead of hanging.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Sequence

import numpy as np

from ..obs.tracer import CAT_COLLECTIVE
from .datatypes import INTERNAL_TAG_BASE, Op, SUM
from .request import CollRequest


@contextlib.contextmanager
def _span(comm, name: str, algo: str | None = None) -> Iterator[None]:
    """Trace one collective call as a span and attribute its traffic.

    The tracer span is a fast no-op when tracing is off; the algorithm
    label (``algo``, defaulting to ``name``) is *always* pushed so the
    transport can attribute every message to its originating collective
    algorithm (``RankTrace.colls``).  Labels nest outermost-wins: the
    scatter+allgather inside a long broadcast accounts to the broadcast.
    """
    transport = comm.transport
    label = name if algo is None else algo  # algo="" defers to inner _algo
    if label:
        transport.push_coll(comm.world_rank, label)
    sid = None
    if transport.tracer.enabled:
        sid = transport.begin_span(
            comm.world_rank, name, cat=CAT_COLLECTIVE, attrs={"comm_size": comm.size}
        )
    try:
        yield
    finally:
        if sid is not None:
            transport.end_span(comm.world_rank, sid)
        if label:
            transport.pop_coll(comm.world_rank)


@contextlib.contextmanager
def _algo(comm, label: str) -> Iterator[None]:
    """Re-label traffic inside one branch of a collective (no span)."""
    transport = comm.transport
    transport.push_coll(comm.world_rank, label)
    try:
        yield
    finally:
        transport.pop_coll(comm.world_rank)

_TAG_BARRIER = INTERNAL_TAG_BASE + 1
_TAG_BCAST = INTERNAL_TAG_BASE + 2
_TAG_REDUCE = INTERNAL_TAG_BASE + 3
_TAG_ALLREDUCE = INTERNAL_TAG_BASE + 4
_TAG_GATHER = INTERNAL_TAG_BASE + 5
_TAG_SCATTER = INTERNAL_TAG_BASE + 6
_TAG_ALLGATHER = INTERNAL_TAG_BASE + 7
_TAG_ALLTOALL = INTERNAL_TAG_BASE + 8
_TAG_RSCAT = INTERNAL_TAG_BASE + 9

#: bcast switches from binomial to scatter+allgather above this many bytes.
BCAST_LONG_THRESHOLD = 64 * 1024


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


# ---------------------------------------------------------------- barrier -- #
def barrier(comm) -> None:
    """Dissemination barrier: ⌈log2 P⌉ rounds of paired exchanges."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    with _span(comm, "barrier", algo="barrier.dissemination"):
        step = 1
        while step < size:
            dest = (rank + step) % size
            src = (rank - step) % size
            comm.sendrecv(b"", dest, src, _TAG_BARRIER, _TAG_BARRIER)
            step <<= 1


# ------------------------------------------------------------------ bcast -- #
def _bcast_binomial(comm, value: Any, root: int, tag: int) -> Any:
    """Binomial-tree broadcast (the MPICH short-message algorithm)."""
    size = comm.size
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            src = (comm.rank - mask) % size
            value = comm.recv(source=src, tag=tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            comm.send(value, (comm.rank + mask) % size, tag)
        mask >>= 1
    return value


def bcast(comm, value: Any, root: int = 0) -> Any:
    """Broadcast from ``root``; everyone returns the value.

    Long numpy arrays use van de Geijn scatter+allgather — the algorithm
    behind the paper's ``T_broadcast`` formula; everything else uses a
    binomial tree.  A small binomial header tells non-roots which path
    (and, for the long path, the shape/dtype) to expect.
    """
    if comm.size == 1:
        return value
    with _span(comm, "bcast", algo=""):
        if comm.rank == root:
            is_long = isinstance(value, np.ndarray) and value.nbytes >= BCAST_LONG_THRESHOLD
            header = (is_long, (value.shape, value.dtype) if is_long else None)
        else:
            header = None
        with _algo(comm, "bcast.binomial"):
            is_long, meta = _bcast_binomial(comm, header, root, _TAG_BCAST)
            if not is_long:
                return _bcast_binomial(comm, value, root, _TAG_BCAST)
        with _algo(comm, "bcast.scatter_allgather"):
            shape, dtype = meta
            if comm.rank == root:
                chunks = np.array_split(np.ascontiguousarray(value).reshape(-1), comm.size)
            else:
                chunks = None
            mine = scatter(comm, chunks, root)
            parts = allgather(comm, mine)
            return np.concatenate(parts).reshape(shape).astype(dtype, copy=False)


# ----------------------------------------------------------------- reduce -- #
def reduce(comm, value: Any, op: Op = SUM, root: int = 0) -> Any:
    """Binomial-tree reduction to ``root``; root returns the result.

    Operands are combined child-over-parent in a fixed order, so results
    are deterministic for a given communicator size.
    """
    size = comm.size
    if size == 1:
        return value
    with _span(comm, "reduce", algo="reduce.binomial"):
        vrank = (comm.rank - root) % size
        acc = value
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = vrank & ~mask
                comm.send(acc, (parent + root) % size, _TAG_REDUCE)
                return None
            child = vrank | mask
            if child < size:
                other = comm.recv(source=(child + root) % size, tag=_TAG_REDUCE)
                acc = op(acc, other)
            mask <<= 1
        return acc


# -------------------------------------------------------------- allreduce -- #
def allreduce(comm, value: Any, op: Op = SUM) -> Any:
    """Recursive doubling (power-of-two sizes) else reduce + bcast."""
    size = comm.size
    if size == 1:
        return value
    with _span(comm, "allreduce", algo=""):
        if _is_pow2(size):
            with _algo(comm, "allreduce.recursive_doubling"):
                acc = value
                mask = 1
                while mask < size:
                    partner = comm.rank ^ mask
                    other = comm.sendrecv(
                        acc, partner, partner, _TAG_ALLREDUCE, _TAG_ALLREDUCE
                    )
                    # Fixed operand order (lower rank's data first) keeps the
                    # result identical on every rank even for non-commutative ops.
                    acc = op(other, acc) if partner < comm.rank else op(acc, other)
                    mask <<= 1
                return acc
        with _algo(comm, "allreduce.reduce_bcast"):
            res = reduce(comm, value, op, 0)
            return bcast(comm, res, 0)


# ---------------------------------------------------------- gather/scatter -- #
def gather(comm, value: Any, root: int = 0) -> list[Any] | None:
    """Linear gather; root returns the list ordered by rank."""
    if comm.size == 1:
        return [value]
    with _span(comm, "gather", algo="gather.linear"):
        if comm.rank == root:
            out: list[Any] = [None] * comm.size
            out[root] = value
            for r in range(comm.size):
                if r != root:
                    out[r] = comm.recv(source=r, tag=_TAG_GATHER)
            return out
        comm.send(value, root, _TAG_GATHER)
        return None


def scatter(comm, values: Sequence[Any] | None, root: int = 0) -> Any:
    """Linear scatter; each rank returns its element of root's sequence."""
    with _span(comm, "scatter", algo="scatter.linear"):
        if comm.rank == root:
            assert values is not None and len(values) == comm.size, (
                "scatter needs one value per rank at the root"
            )
            for r in range(comm.size):
                if r != root:
                    comm.send(values[r], r, _TAG_SCATTER)
            return values[root]
        return comm.recv(source=root, tag=_TAG_SCATTER)


# -------------------------------------------------------------- allgather -- #
def allgather(comm, value: Any) -> list[Any]:
    """Bruck allgather: ⌈log2 P⌉ rounds, works for any P and any sizes.

    Returns the list of every rank's contribution, ordered by rank.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return [value]
    with _span(comm, "allgather", algo="allgather.bruck"):
        held: list[Any] = [value]  # blocks of ranks rank, rank+1, ... (mod P)
        h = 1
        while h < size:
            cnt = min(h, size - h)
            dest = (rank - h) % size
            src = (rank + h) % size
            incoming = comm.sendrecv(held[:cnt], dest, src, _TAG_ALLGATHER, _TAG_ALLGATHER)
            held.extend(incoming)
            h += cnt
        # held[i] is the block of rank (rank + i) % size; rotate to absolute.
        return [held[(r - rank) % size] for r in range(size)]


def allgather_rows(comm, row: np.ndarray) -> np.ndarray:
    """Bruck allgather of one fixed-shape array row per rank.

    Same rounds, peers, tags and ``allgather.bruck`` label as
    :func:`allgather`, but the rows travel as raw arrays — round ``h``
    sends ``min(h, P-h)`` rows, never a pickle — into a preallocated
    ``(P, *row.shape)`` array.  Returns that array ordered by rank.
    """
    size, rank = comm.size, comm.rank
    held = np.empty((size,) + row.shape, dtype=row.dtype)
    held[0] = row  # held[i] is the row of rank (rank + i) % size
    if size == 1:
        return held
    with _span(comm, "allgather", algo="allgather.bruck"):
        h = 1
        while h < size:
            cnt = min(h, size - h)
            dest = (rank - h) % size
            src = (rank + h) % size
            held[h:h + cnt] = comm.sendrecv(
                held[:cnt], dest, src, _TAG_ALLGATHER, _TAG_ALLGATHER
            )
            h += cnt
    return np.roll(held, rank, axis=0)


# --------------------------------------------------------------- alltoall -- #
def alltoall(comm, values: Sequence[Any]) -> list[Any]:
    """Pairwise-exchange alltoall; ``values[r]`` goes to rank ``r``."""
    size, rank = comm.size, comm.rank
    assert len(values) == size, "alltoall needs one value per rank"
    if size == 1:
        return [values[0]]
    with _span(comm, "alltoall", algo="alltoall.pairwise"):
        out: list[Any] = [None] * size
        out[rank] = values[rank]
        for i in range(1, size):
            dest = (rank + i) % size
            src = (rank - i) % size
            out[src] = comm.sendrecv(values[dest], dest, src, _TAG_ALLTOALL, _TAG_ALLTOALL)
        return out


# ------------------------------------------------ nonblocking collectives -- #
def _icoll(comm, fn, *args) -> CollRequest:
    """Run a blocking collective on the async comm engine; a request.

    With ``overlap="none"`` the collective runs exactly as its blocking
    form (same clock charges, same events) and the returned request is
    pre-completed — waiting on it charges nothing, keeping legacy runs
    bit-for-bit identical.  Otherwise the whole algorithm is drained
    eagerly on the rank's comm timeline (``begin_async``/``end_async``):
    its transfers progress concurrently with whatever compute follows
    the post, and the request's ``wait`` charges only the uncovered
    remainder.  Calls are collective and must stay SPMD-ordered exactly
    like their blocking forms (posting *is* the data movement).
    """
    transport = comm.transport
    rank = comm.world_rank
    if not transport.machine.overlap_enabled:
        value = fn(comm, *args)
        t = transport.now(rank)
        return CollRequest(transport, rank, t, t, value)
    t_start = transport.begin_async(rank)
    try:
        value = fn(comm, *args)
    finally:
        t_complete = transport.end_async(rank)
    return CollRequest(transport, rank, t_start, t_complete, value)


def ibcast(comm, value: Any, root: int = 0) -> CollRequest:
    """Nonblocking :func:`bcast`; completes on the async comm engine."""
    return _icoll(comm, bcast, value, root)


def iallgather(comm, value: Any) -> CollRequest:
    """Nonblocking :func:`allgather`; completes on the async comm engine."""
    return _icoll(comm, allgather, value)


def ireduce_scatter(comm, blocks: Sequence[np.ndarray], op: Op = SUM) -> CollRequest:
    """Nonblocking :func:`reduce_scatter`; completes on the async engine."""
    return _icoll(comm, reduce_scatter, blocks, op)


# ---------------------------------------------------------- reduce_scatter -- #
def reduce_scatter(comm, blocks: Sequence[np.ndarray], op: Op = SUM) -> np.ndarray:
    """Pairwise-exchange reduce-scatter.

    ``blocks[r]`` is this rank's contribution destined for rank ``r``
    (blocks may have different shapes across destinations but must agree
    across sources).  Returns the elementwise reduction of every rank's
    ``blocks[comm.rank]``, accumulated in a fixed source order.

    Per-rank cost α(P-1) + βn(P-1)/P — exactly the formula the paper
    uses for its reduce-scatter step.  The machine model's
    ``rs_degrade``) parameters are applied by pricing the traffic at the
    transport level; see :mod:`repro.machine.model`.
    """
    size, rank = comm.size, comm.rank
    assert len(blocks) == size, "reduce_scatter needs one block per rank"
    if size == 1:
        return np.array(np.asarray(blocks[0]), copy=True)
    with _span(comm, "reduce_scatter", algo="reduce_scatter.pairwise"):
        contributions: list[np.ndarray | None] = [None] * size
        contributions[rank] = np.asarray(blocks[rank])
        for i in range(1, size):
            dest = (rank + i) % size
            src = (rank - i) % size
            contributions[src] = comm.sendrecv(
                np.asarray(blocks[dest]), dest, src, _TAG_RSCAT, _TAG_RSCAT
            )
        acc = np.array(contributions[0], copy=True)
        for r in range(1, size):
            acc = op(acc, contributions[r])
        return acc
