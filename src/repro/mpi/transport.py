"""The shared transport behind a virtual MPI world.

Every rank in a world is a Python thread; the transport is the single
shared object they communicate through.  It provides:

* eager point-to-point delivery with MPI matching semantics
  (``(source, tag)`` with wildcards, non-overtaking order per pair),
* per-rank simulated clocks driven by a :class:`~repro.machine.model.MachineModel`
  (a message arrives at ``sender_clock_at_send + α + β·nbytes``; a receive
  completes at ``max(receiver_clock, arrival)``),
* per-rank, per-phase traffic counters (bytes/messages sent and received,
  simulated time) used to reproduce the paper's communication-volume and
  runtime-breakdown results from *executed* traffic, plus per-phase,
  per-collective-algorithm counters (``RankTrace.colls``: binomial vs
  scatter+allgather bcast, Bruck allgather, pairwise reduce-scatter,
  raw Cannon/redistribution ``p2p``) that the communication audit
  (:mod:`repro.obs.audit`) reads bytes-on-the-wire from,
* the progress counter that the runtime watchdog uses for deadlock
  detection, and
* an optional deterministic fault-injection layer
  (:mod:`repro.mpi.faults`): a :class:`~repro.mpi.faults.FaultPlan`
  consulted at every ``post_send`` (latency inflation, jitter, bounded
  reordering, drop-with-resend), phase entry (stalls, scripted aborts),
  and compute advance (slowdown factors), with receive-side
  timeout/retry/backoff semantics so a dropped message surfaces as a
  typed retry — or, when the budget is exhausted, a
  :class:`~repro.mpi.errors.RecvTimeoutError` — instead of a silent
  hang.  Injected intervals are tagged ``injected=True`` on their
  events so the critical-path analyzer can tell injected waits from
  organic ones.

A single coarse lock protects all state; with the GIL and the heavy
lifting done inside numpy, finer locking buys nothing.

The transport itself is backend-neutral: under the default thread
backend ranks block on the shared condition variable, while under the
discrete-event backend (:mod:`repro.mpi.des`) the attached scheduler is
asked to park the calling rank and precise wake hooks ready exactly the
ranks an operation could unblock.  All matching, clock, counter, fault
and trace logic is shared, so both backends emit identical records.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..machine.model import MachineModel
from ..obs.tracer import CAT_PHASE, Tracer
from .datatypes import ANY_SOURCE, ANY_TAG, Message, Status
from .errors import (
    AbortError,
    CommRevokedError,
    InjectedAbortError,
    RankFailedError,
    RankKilledError,
    RecvTimeoutError,
)
from .faults import FaultPlan, _mix

#: Phase label used when no explicit phase is active.
DEFAULT_PHASE = "other"

#: Collective label used for raw point-to-point traffic (Cannon skew and
#: shift rounds, redistribution sends) posted outside any collective call.
DEFAULT_COLL = "p2p"

#: Memory-span purpose charged for transport packed-copy buffers: the
#: private payload copy a send hands the transport.  Charged transiently
#: sender-side inside ``post_send`` — the owning rank's program order —
#: so resident watermarks stay replay-deterministic (cross-thread
#: accounting would make peaks depend on real scheduling).  There is no
#: receiver-side charge: at receipt the payload becomes engine-owned and
#: the engine's own spans (``cannon.dblbuf``, ``redist.tiles``, ...)
#: account for it.
MEM_INFLIGHT = "transport.inflight"


@dataclass
class CollStats:
    """Traffic attributed to one collective algorithm within one phase.

    Unlike :class:`PhaseStats` there is no time here: simulated seconds
    belong to phases (collectives overlap and nest), while bytes and
    messages are owned by exactly one collective algorithm — the
    *outermost* collective call active at post time, so the scatter and
    allgather inside a long broadcast account to the broadcast.
    """

    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0

    def merged(self, other: "CollStats") -> "CollStats":
        return CollStats(
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_recv=self.bytes_recv + other.bytes_recv,
            msgs_sent=self.msgs_sent + other.msgs_sent,
            msgs_recv=self.msgs_recv + other.msgs_recv,
        )


@dataclass
class PhaseStats:
    """Traffic and simulated time attributed to one phase on one rank.

    ``comm_time`` is *exposed* communication: simulated seconds the rank
    clock actually spent blocked on transfers.  ``comm_covered_time`` is
    communication the async comm engine hid under concurrent compute —
    it is **not** part of ``time`` (the wall-clock identity
    ``time ≈ comm_time + compute_time`` still holds); it measures how
    much transfer time was paid on the comm timeline but never surfaced
    on the rank clock.  It stays exactly 0.0 under ``overlap="none"``.
    """

    time: float = 0.0
    comm_time: float = 0.0
    compute_time: float = 0.0
    comm_covered_time: float = 0.0
    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0

    def merged(self, other: "PhaseStats") -> "PhaseStats":
        return PhaseStats(
            time=self.time + other.time,
            comm_time=self.comm_time + other.comm_time,
            compute_time=self.compute_time + other.compute_time,
            comm_covered_time=self.comm_covered_time + other.comm_covered_time,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_recv=self.bytes_recv + other.bytes_recv,
            msgs_sent=self.msgs_sent + other.msgs_sent,
            msgs_recv=self.msgs_recv + other.msgs_recv,
        )


@dataclass
class RankState:
    """Mutable per-rank bookkeeping owned by the transport."""

    clock: float = 0.0
    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0
    peak_live_bytes: int = 0
    resident_bytes: int = 0  #: currently resident tracked bytes (memtrace)
    resident_peak_bytes: int = 0  #: high-water mark of resident_bytes
    #: live tracked bytes per purpose tag (``tile.a``, ``cannon.dblbuf``, ...)
    mem_live: dict[str, int] = field(default_factory=dict)
    #: per-purpose high-water marks of the purpose's own live bytes
    mem_peak: dict[str, int] = field(default_factory=dict)
    #: per-phase high-water marks of total resident bytes
    phase_mem_peak: dict[str, int] = field(default_factory=dict)
    phase_stack: list[str] = field(default_factory=list)
    phase_span_stack: list[int] = field(default_factory=list)  #: tracer span ids
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    coll_stack: list[str] = field(default_factory=list)  #: active collective calls
    #: per-phase, per-collective-algorithm traffic: phase -> label -> stats.
    colls: dict[str, dict[str, CollStats]] = field(default_factory=dict)
    waiting_on: str | None = None  #: populated while blocked (watchdog info)
    retries: int = 0  #: retransmits requested for dropped messages
    timeouts: int = 0  #: recv timeouts charged (== retries unless fatal)
    injected_wait_s: float = 0.0  #: simulated time added by injected faults
    corruptions_injected: int = 0  #: corrupt-rule firings on messages this rank sent
    corruptions_detected: int = 0  #: ABFT checksum mismatches this rank caught
    #: per-phase breakdown of ``corruptions_injected`` (sender's phase at post)
    corruptions_injected_by_phase: dict[str, int] = field(default_factory=dict)
    #: per-phase breakdown of ``corruptions_detected`` (detection site)
    corruptions_detected_by_phase: dict[str, int] = field(default_factory=dict)
    recomputed_flops: float = 0.0  #: flops re-executed for ABFT correction
    reused_flops: float = 0.0  #: flops avoided by reusing retained partials
    recoveries: int = 0  #: shrink-replan recovery rounds this rank survived
    #: structured wait state, consulted by the revocation quiescence
    #: check: ``(ctx, src, tag)`` while blocked in :meth:`Transport.match_recv`.
    recv_wait: tuple[int, int, int] | None = None
    agree_wait: bool = False  #: blocked in an agree rendezvous
    # -- async comm engine (overlap != "none") ------------------------- #
    async_depth: int = 0  #: nesting depth of open begin_async regions
    comm_clock: float = 0.0  #: comm-timeline clock while inside a region
    comm_engine_free: float = 0.0  #: when the engine last drained (partial)
    nic_free: float = 0.0  #: when this rank's NIC stream frees (partial)

    @property
    def phase(self) -> str:
        return self.phase_stack[-1] if self.phase_stack else DEFAULT_PHASE

    @property
    def coll(self) -> str:
        """The outermost active collective label (nested calls fold in)."""
        return self.coll_stack[0] if self.coll_stack else DEFAULT_COLL

    def phase_stats(self, name: str | None = None) -> PhaseStats:
        key = self.phase if name is None else name
        st = self.phases.get(key)
        if st is None:
            st = self.phases[key] = PhaseStats()
        return st

    def coll_stats(self) -> CollStats:
        by_coll = self.colls.setdefault(self.phase, {})
        cs = by_coll.get(self.coll)
        if cs is None:
            cs = by_coll[self.coll] = CollStats()
        return cs


@dataclass(frozen=True)
class Event:
    """One simulated-time interval on a rank (optional event recording).

    ``kind`` is one of ``"send"``, ``"recv"``, ``"wait"`` (clock raised
    to a message arrival or request completion), or ``"compute"``.
    ``peer`` is the world rank on the other side of a transfer (-1 for
    compute/wait).  ``seq`` is the transport sequence number of the
    message behind a send/recv interval (-1 otherwise); it keys into
    :attr:`Transport.msglog`, so the critical-path analyzer
    (:mod:`repro.obs.critpath`) can match every blocking receive to the
    exact send that released it.  Intervals use the simulated clock, in
    seconds.
    """

    rank: int
    kind: str
    phase: str
    t0: float
    t1: float
    nbytes: int = 0
    peer: int = -1
    seq: int = -1
    injected: bool = False  #: interval caused/extended by fault injection

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class MsgRecord:
    """One message's life on the wire (recorded with ``record_events``).

    ``t_post`` is the sender's simulated clock when the message was
    posted; ``arrival = t_post + msg_time`` is when it becomes
    receivable.  ``seq`` matches :attr:`Event.seq` on both the send- and
    recv-side events, giving the wait-for DAG its edges.
    """

    seq: int
    src: int
    dst: int
    t_post: float
    arrival: float
    nbytes: int
    tag: int
    ctx: int
    phase: str  #: the sender's active phase at post time
    injected: bool = False  #: flight perturbed (delayed/dropped) by a fault
    coll: str = DEFAULT_COLL  #: the sender's originating collective algorithm

    @property
    def flight(self) -> float:
        return self.arrival - self.t_post


@dataclass(frozen=True)
class MemEvent:
    """One tagged allocation or free on a rank's resident-memory timeline.

    ``kind`` is ``"alloc"`` or ``"free"``; ``purpose`` is the span tag
    (``tile.a``, ``replicate.buf``, ``cannon.dblbuf``, ``abft.checksum``,
    ``ckpt.staging``, ``transport.inflight``, ...); ``t`` is the rank's
    simulated clock at the event and ``resident_bytes`` the rank's total
    tracked resident bytes *after* applying it.  Events are appended in
    the owning rank's program order, so the per-rank timeline — and every
    watermark derived from it — replays byte-identically under a seeded
    :class:`~repro.mpi.faults.FaultPlan`.
    """

    rank: int
    kind: str
    purpose: str
    phase: str
    t: float
    nbytes: int
    resident_bytes: int


@dataclass
class RankTrace:
    """Immutable snapshot of a rank's counters, returned to the driver."""

    rank: int
    time: float
    bytes_sent: int
    bytes_recv: int
    msgs_sent: int
    msgs_recv: int
    peak_live_bytes: int
    phases: dict[str, PhaseStats]
    #: per-phase, per-collective-algorithm traffic: phase -> label -> stats.
    colls: dict[str, dict[str, CollStats]] = field(default_factory=dict)
    resident_peak_bytes: int = 0  #: measured resident watermark (memtrace)
    resident_bytes: int = 0  #: tracked bytes still live at snapshot time
    #: per-purpose high-water marks of that purpose's live bytes
    mem_peaks: dict[str, int] = field(default_factory=dict)
    #: purposes with bytes still live at snapshot time (leak detector)
    mem_live: dict[str, int] = field(default_factory=dict)
    #: per-phase high-water marks of total resident bytes
    phase_mem_peaks: dict[str, int] = field(default_factory=dict)
    retries: int = 0  #: fault-injection retransmits this rank requested
    timeouts: int = 0  #: fault-injection recv timeouts this rank charged
    injected_wait_s: float = 0.0  #: simulated seconds added by injected faults
    corruptions_injected: int = 0  #: corrupt-rule firings on this rank's sends
    corruptions_detected: int = 0  #: ABFT checksum mismatches this rank caught
    #: per-phase breakdown of ``corruptions_injected`` (sender's phase at post)
    corruptions_injected_by_phase: dict[str, int] = field(default_factory=dict)
    #: per-phase breakdown of ``corruptions_detected`` (detection site)
    corruptions_detected_by_phase: dict[str, int] = field(default_factory=dict)
    recomputed_flops: float = 0.0  #: flops re-executed for ABFT correction
    reused_flops: float = 0.0  #: flops avoided by reusing retained partials
    recoveries: int = 0  #: shrink-replan recovery rounds this rank survived


@dataclass
class _Dropped:
    """A message lost on the wire, awaiting receiver-driven retransmits."""

    msg: Message
    flight: float  #: perturbed one-transmission flight time
    drops: int  #: transmissions that must be lost before one succeeds
    t_post: float  #: sender's clock at the original post (causality floor)
    attempts: int = 0  #: retransmit requests made by the receiver so far


class Transport:
    """Mailboxes + clocks + counters for one virtual MPI world."""

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel | None = None,
        record_events: bool = False,
        faults: FaultPlan | None = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.machine = machine or MachineModel()
        self.record_events = record_events
        self.faults = faults
        self.events: list[Event] = []
        #: per-message records (by list index == seq - 1) when recording.
        self.msglog: list[MsgRecord] = []
        #: tagged alloc/free timeline (populated only with record_events;
        #: the watermark counters themselves are always on).
        self.memlog: list[MemEvent] = []
        #: structured span tracer (repro.obs); enabled with record_events.
        self.tracer = Tracer(enabled=record_events)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # mailbox[(ctx, dst_world)] -> list of pending Message in seq order
        self._mail: dict[tuple[int, int], list[Message]] = defaultdict(list)
        # dropped[(ctx, dst_world)] -> messages lost on the wire (faults)
        self._dropped: dict[tuple[int, int], list[_Dropped]] = defaultdict(list)
        # per-(rule, src, dst) matched-message counters (fault decisions)
        self._fault_hits: dict[tuple[int, int, int], int] = {}
        # per-(rule,) phase-entry counters for rank faults
        self._rankfault_hits: dict[int, int] = {}
        self._seq = 0
        self.ranks = [RankState() for _ in range(nprocs)]
        #: bumped on every delivery/removal; the watchdog samples it.
        self.progress = 0
        self._context_keys: dict[Any, int] = {}
        self._next_ctx = 1
        self.aborted: AbortError | None = None
        #: world ranks permanently failed by ``RankFault(kill=True)``.
        self.dead: set[int] = set()
        #: world ranks whose program has returned (see :meth:`mark_finished`).
        self.finished: set[int] = set()
        #: ULFM-style revocation flag: set by :meth:`revoke` after a
        #: failure is detected, cleared when an :meth:`agree` completes.
        self.revoked = False
        # agreement rendezvous state, keyed by the comm's (ctx, seq) key
        self._agrees: dict[Any, dict[str, Any]] = {}
        #: attached DES scheduler (:class:`repro.mpi.des.DesScheduler`)
        #: when running under ``backend="des"``; ``None`` = thread backend.
        self.scheduler = None

    # ----------------------------------------------------- context ids -- #
    def context_for_key(self, key: Any) -> int:
        """Deterministically map a split/dup key to a fresh context id.

        All member ranks of a new communicator call this with the same
        key and receive the same id; the first caller allocates it.
        """
        with self._lock:
            ctx = self._context_keys.get(key)
            if ctx is None:
                ctx = self._next_ctx
                self._next_ctx += 1
                self._context_keys[key] = ctx
            return ctx

    # ---------------------------------------------------------- blocking -- #
    def _wait_locked(self, world_rank: int, why: str) -> None:
        """Block ``world_rank`` until the world may have changed.

        Thread backend: a timed wait on the shared condition (the
        timeout keeps the loop checking abort/revocation flags even if
        a wakeup is missed).  DES backend: park the rank's strand and
        hand the world to the next runnable rank; the matching wake
        hook (``why`` = ``"recv"`` or ``"agree"``) readies it again.
        """
        if self.scheduler is not None:
            self.scheduler.park_locked(world_rank, why)
        else:
            self._cond.wait(timeout=0.5)

    # --------------------------------------------------------- aborting -- #
    def abort(self, err: AbortError) -> None:
        """Record a fatal error and wake all blocked ranks."""
        with self._cond:
            if self.aborted is None:
                self.aborted = err
            self._cond.notify_all()
            if self.scheduler is not None:
                self.scheduler.wake_all_locked()

    def _check_abort(self) -> None:
        if self.aborted is not None:
            raise self.aborted

    # ------------------------------------------- ULFM-style fault tolerance -- #
    def dead_ranks(self) -> frozenset[int]:
        """World ranks permanently failed so far (``RankFault(kill=True)``)."""
        with self._lock:
            return frozenset(self.dead)

    def revoke(self) -> None:
        """Revoke communication world-wide (ULFM ``MPI_Comm_revoke`` analog).

        Revocation is *quiescence-gated* so that faulted runs stay
        replay-deterministic: receivers keep delivering messages that
        are already (or still about to be) produced, and a blocked
        receiver is unwound with
        :class:`~repro.mpi.errors.CommRevokedError` only once every
        live, unfinished rank is parked in a transport wait with
        nothing deliverable (see :meth:`_quiescent_locked`).  That
        stable cut of the computation is a property of the program, not
        of thread scheduling, so the virtual timestamp at which each
        survivor observes the revocation is the same on every replay.
        The flag is cleared when a subsequent :meth:`agree` completes.
        """
        with self._cond:
            self.revoked = True
            self.progress += 1
            self._cond.notify_all()

    def mark_finished(self, world_rank: int) -> None:
        """Record that a rank's program has returned (or died).

        Finished ranks can never post another message, so the
        revocation quiescence check skips them; without this, a world
        where some ranks already returned could never quiesce and a
        revoked receiver would block forever.
        """
        with self._cond:
            self.finished.add(world_rank)
            self.progress += 1
            self._cond.notify_all()
            if self.scheduler is not None:
                # A finish can complete an agree rendezvous (the voter
                # set shrinks to the ranks already voted).
                self.scheduler.wake_agree_locked()

    def agree(
        self, key: Any, group: Sequence[int], world_rank: int, flag: bool
    ) -> tuple[bool, tuple[int, ...]]:
        """Fault-tolerant agreement over ``group`` (ULFM ``MPIX_Comm_agree``).

        Collective over the *surviving* members of ``group`` (world
        ranks): blocks until every live member has voted, then returns
        the same ``(all_ok, survivors)`` on each of them, where
        ``all_ok`` is true only when every member is alive *and* voted
        ``True``.  Works while the world is revoked — this is the
        recovery rendezvous — and completing it clears the revocation.
        Members that die mid-agreement are dropped from the required
        voter set, so the agreement itself tolerates failures.
        """
        group = tuple(group)
        with self._cond:
            st = self._agrees.setdefault(key, {"votes": {}, "result": None})
            st["votes"][world_rank] = bool(flag)
            self.progress += 1
            self._cond.notify_all()
            if self.scheduler is not None:
                self.scheduler.wake_agree_locked()
            me = self.ranks[world_rank]
            me.waiting_on = f"agree(key={key})"
            me.agree_wait = True
            try:
                while st["result"] is None:
                    self._check_abort()
                    alive = [
                        r for r in group
                        if r not in self.dead and r not in self.finished
                    ]
                    if alive and all(r in st["votes"] for r in alive):
                        ok = len(alive) == len(group) and all(
                            st["votes"][r] for r in alive
                        )
                        t = max(self.ranks[r].clock for r in alive)
                        st["result"] = (ok, tuple(alive), t)
                        self.revoked = False
                        self.progress += 1
                        self._cond.notify_all()
                        if self.scheduler is not None:
                            self.scheduler.wake_agree_locked()
                        break
                    self._wait_locked(world_rank, "agree")
            finally:
                me.waiting_on = None
                me.agree_wait = False
            ok, survivors, t = st["result"]
            self._raise_clock_locked(world_rank, t, event_kind="wait")
            return ok, survivors

    def add_ft(
        self,
        world_rank: int,
        *,
        detected: int = 0,
        recomputed_flops: float = 0.0,
        reused_flops: float = 0.0,
        recoveries: int = 0,
        phase: str | None = None,
    ) -> None:
        """Charge fault-tolerance counters (ABFT detection, recovery rounds).

        ``phase`` attributes detections to the pipeline stage whose guard
        caught them (``replicate`` / ``cannon`` / ``reduce`` / ``redist``),
        feeding the ``corruptions_detected_by_phase`` breakdown.
        """
        with self._lock:
            st = self.ranks[world_rank]
            st.corruptions_detected += detected
            if detected and phase is not None:
                st.corruptions_detected_by_phase[phase] = (
                    st.corruptions_detected_by_phase.get(phase, 0) + detected
                )
            st.recomputed_flops += recomputed_flops
            st.reused_flops += reused_flops
            st.recoveries += recoveries

    # ------------------------------------------------------------ clocks -- #
    def now(self, world_rank: int) -> float:
        with self._lock:
            return self.ranks[world_rank].clock

    def advance(self, world_rank: int, dt: float, kind: str = "comm") -> None:
        """Advance a rank's clock by ``dt`` and attribute it to its phase."""
        if dt < 0:
            raise ValueError("negative time advance")
        with self._lock:
            self._advance_locked(world_rank, dt, kind)

    def _advance_locked(
        self,
        world_rank: int,
        dt: float,
        kind: str,
        event_kind: str | None = None,
        nbytes: int = 0,
        peer: int = -1,
        seq: int = -1,
        injected: bool = False,
    ) -> None:
        st = self.ranks[world_rank]
        if (
            kind == "compute"
            and self.faults is not None
            and self.faults.has_compute_faults
        ):
            factor = self.faults.compute_factor(world_rank, st.phase)
            if factor != 1.0:
                slowed = dt * factor
                st.injected_wait_s += slowed - dt
                dt = slowed
                injected = True
        if kind == "comm" and st.async_depth > 0:
            # Inside an async region the transfer progresses on the
            # rank's comm timeline, not its clock.  Time is attributed
            # (exposed vs covered) when the matching wait settles the
            # region; no phase charge and no event here.
            st.comm_clock += dt
            return
        t0 = st.clock
        st.clock += dt
        ps = st.phase_stats()
        ps.time += dt
        if kind == "comm":
            ps.comm_time += dt
        elif kind == "compute":
            ps.compute_time += dt
        if self.record_events and dt > 0:
            self.events.append(
                Event(
                    rank=world_rank,
                    kind=event_kind or ("compute" if kind == "compute" else "wait"),
                    phase=st.phase,
                    t0=t0,
                    t1=st.clock,
                    nbytes=nbytes,
                    peer=peer,
                    seq=seq,
                    injected=injected,
                )
            )

    def raise_clock(
        self,
        world_rank: int,
        t: float,
        event_kind: str = "wait",
        nbytes: int = 0,
        peer: int = -1,
        seq: int = -1,
    ) -> None:
        """Move a rank's clock up to ``t`` if it is behind (never back)."""
        with self._lock:
            self._raise_clock_locked(world_rank, t, event_kind, nbytes, peer, seq)

    def _raise_clock_locked(
        self,
        world_rank: int,
        t: float,
        event_kind: str = "wait",
        nbytes: int = 0,
        peer: int = -1,
        seq: int = -1,
        injected: bool = False,
    ) -> None:
        """Move a rank's clock up to ``t`` (waiting time counts as comm)."""
        st = self.ranks[world_rank]
        if st.async_depth > 0:
            # In-region completions (e.g. a blocking recv matched on the
            # comm timeline) advance the comm clock, never the rank clock.
            if t > st.comm_clock:
                st.comm_clock = t
            return
        if t > st.clock:
            dt = t - st.clock
            t0 = st.clock
            st.clock = t
            ps = st.phase_stats()
            ps.time += dt
            ps.comm_time += dt
            if self.record_events:
                self.events.append(
                    Event(
                        rank=world_rank,
                        kind=event_kind,
                        phase=st.phase,
                        t0=t0,
                        t1=t,
                        nbytes=nbytes,
                        peer=peer,
                        seq=seq,
                        injected=injected,
                    )
                )

    # ------------------------------------------------- async comm engine -- #
    def begin_async(self, world_rank: int) -> float:
        """Open an async region on a rank; returns the region's start time.

        While the region is open, every comm-side charge against this
        rank (``_advance_locked(kind="comm")``, ``_raise_clock_locked``)
        is redirected to the rank's *comm timeline* instead of its
        clock, and no events are recorded — the region's entire cost is
        settled later by :meth:`async_wait`.  Regions nest; only the
        outermost open/close interacts with the engine-availability
        point (``overlap="partial"`` serializes consecutive regions of
        one rank on its single comm engine).
        """
        with self._lock:
            st = self.ranks[world_rank]
            st.async_depth += 1
            if st.async_depth == 1:
                if self.machine.overlap == "partial":
                    st.comm_clock = max(st.clock, st.comm_engine_free)
                else:
                    st.comm_clock = st.clock
            return st.comm_clock

    def end_async(self, world_rank: int) -> float:
        """Close an async region; returns its completion time.

        The returned time is where the rank's comm timeline stands after
        the region's transfers drained.  Under ``overlap="partial"`` the
        outermost close also publishes it as the engine-free point so
        the next region queues behind this one.
        """
        with self._lock:
            st = self.ranks[world_rank]
            if st.async_depth <= 0:
                raise RuntimeError("end_async without begin_async")
            t = st.comm_clock
            st.async_depth -= 1
            if st.async_depth == 0 and self.machine.overlap == "partial":
                st.comm_engine_free = t
            return t

    def async_wait(self, world_rank: int, t_start: float, t_complete: float) -> None:
        """Settle an async region's cost at wait time.

        Charges the *uncovered* remainder ``max(0, t_complete - clock)``
        to the rank clock (a ``wait`` event, comm time) and books the
        rest of the region's span as hidden communication
        (``PhaseStats.comm_covered_time``).  With ``overlap="none"``
        regions are pre-completed at post time (``t_start ==
        t_complete == clock``), so this charges nothing and the
        covered-time counter is never touched — bit-exact legacy
        behaviour.
        """
        with self._lock:
            st = self.ranks[world_rank]
            exposed = max(0.0, t_complete - st.clock)
            covered = max(0.0, (t_complete - t_start) - exposed)
            if exposed > 0.0:
                self._raise_clock_locked(world_rank, t_complete, event_kind="wait")
            if covered > 0.0:
                st.phase_stats().comm_covered_time += covered

    # ------------------------------------------------------------ phases -- #
    def push_phase(self, world_rank: int, name: str, attrs: dict | None = None) -> None:
        with self._lock:
            self.ranks[world_rank].phase_stack.append(name)
            if self.faults is not None:
                self._apply_rank_faults_locked(world_rank, name)
        if self.tracer.enabled:
            sid = self.begin_span(world_rank, name, cat=CAT_PHASE, attrs=attrs)
            with self._lock:
                self.ranks[world_rank].phase_span_stack.append(sid)

    def _apply_rank_faults_locked(self, world_rank: int, name: str) -> None:
        """Fire matching :class:`~repro.mpi.faults.RankFault` rules on
        phase entry (stall windows and scripted aborts; slowdown factors
        are applied per compute advance in :meth:`_advance_locked`)."""
        for idx, rule in enumerate(self.faults.ranks):
            if not rule.matches_phase(world_rank, name):
                continue
            count = self._rankfault_hits.get(idx, 0) + 1
            self._rankfault_hits[idx] = count
            if not rule.triggers(world_rank, name, count):
                continue
            if rule.stall_s > 0.0:
                st = self.ranks[world_rank]
                st.injected_wait_s += rule.stall_s
                self._advance_locked(
                    world_rank, rule.stall_s, "comm",
                    event_kind="wait", injected=True,
                )
            if rule.abort:
                raise InjectedAbortError(world_rank, name, count)
            if rule.kill:
                # Permanent death, not a world abort: mark the rank dead,
                # wake every blocked peer (their next matching attempt on
                # this rank raises RankFailedError), and unwind this
                # rank's thread with the typed kill error.
                self.dead.add(world_rank)
                self.progress += 1
                self._cond.notify_all()
                if self.scheduler is not None:
                    self.scheduler.wake_all_locked()
                raise RankKilledError(world_rank, name, count)

    def push_coll(self, world_rank: int, label: str) -> None:
        """Enter a collective call: traffic posted while the stack is
        non-empty is attributed to the *outermost* label (always-on and
        cheap, unlike tracer spans)."""
        with self._lock:
            self.ranks[world_rank].coll_stack.append(label)

    def pop_coll(self, world_rank: int) -> str:
        with self._lock:
            return self.ranks[world_rank].coll_stack.pop()

    def pop_phase(self, world_rank: int) -> str:
        with self._lock:
            name = self.ranks[world_rank].phase_stack.pop()
            sid = (
                self.ranks[world_rank].phase_span_stack.pop()
                if self.ranks[world_rank].phase_span_stack
                else None
            )
        if sid is not None:
            self.end_span(world_rank, sid)
        return name

    # ------------------------------------------------------------- spans -- #
    def _counter_snapshot(self, world_rank: int) -> tuple[int, int, int, int]:
        st = self.ranks[world_rank]
        return (st.bytes_sent, st.bytes_recv, st.msgs_sent, st.msgs_recv)

    def begin_span(
        self,
        world_rank: int,
        name: str,
        cat: str = "user",
        attrs: dict | None = None,
    ) -> int | None:
        """Open a tracer span at the rank's current simulated clock.

        Returns the span id, or ``None`` when tracing is disabled (the
        fast path: one attribute read, no locking).  The rank's traffic
        counters are snapshotted so :meth:`end_span` can attach the
        bytes/messages attributed to the span.
        """
        if not self.tracer.enabled:
            return None
        with self._lock:
            t = self.ranks[world_rank].clock
            snap = self._counter_snapshot(world_rank)
        sid = self.tracer.begin(world_rank, name, t, cat=cat, attrs=attrs)
        self.tracer.annotate(sid, _snap=snap)
        return sid

    def end_span(self, world_rank: int, sid: int | None) -> None:
        """Close a span opened with :meth:`begin_span` (``None`` is a no-op)."""
        if sid is None or not self.tracer.enabled:
            return
        with self._lock:
            t = self.ranks[world_rank].clock
            snap = self._counter_snapshot(world_rank)
        prev = self.tracer.take_attr(sid, "_snap")
        deltas = {}
        if prev is not None:
            deltas = {
                "bytes_sent": snap[0] - prev[0],
                "bytes_recv": snap[1] - prev[1],
                "msgs_sent": snap[2] - prev[2],
                "msgs_recv": snap[3] - prev[3],
            }
        self.tracer.end(world_rank, sid, t, attrs=deltas)

    def note_live_bytes(self, world_rank: int, nbytes: int) -> None:
        """Record a high-water mark of self-reported live bytes on a rank.

        Kept for engines that estimate their footprint analytically
        (e.g. the COSMA baseline); measured footprint lives in the
        memtrace counters (:meth:`mem_alloc` / :meth:`mem_free`).
        """
        with self._lock:
            st = self.ranks[world_rank]
            if nbytes > st.peak_live_bytes:
                st.peak_live_bytes = nbytes

    # ---------------------------------------------------------- memtrace -- #
    def mem_alloc(self, world_rank: int, purpose: str, nbytes: int) -> None:
        """Charge ``nbytes`` of tracked resident memory to ``purpose``.

        Updates the rank's resident total, its watermark, the
        per-purpose and per-phase high-water marks, and (when recording
        events) appends a :class:`MemEvent` at the rank's simulated
        clock.  Must only be called from the owning rank's program order
        so watermarks stay replay-deterministic.
        """
        with self._lock:
            self._mem_alloc_locked(world_rank, purpose, nbytes)

    def mem_free(self, world_rank: int, purpose: str, nbytes: int) -> None:
        """Release ``nbytes`` previously charged to ``purpose``.

        Raises :class:`ValueError` when the free exceeds the purpose's
        live bytes — that is an instrumentation bug, not a runtime
        condition, and silently clamping would corrupt every watermark
        downstream of it.
        """
        with self._lock:
            self._mem_free_locked(world_rank, purpose, nbytes)

    def _mem_alloc_locked(self, world_rank: int, purpose: str, nbytes: int) -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"mem_alloc of negative size {nbytes}")
        st = self.ranks[world_rank]
        st.resident_bytes += nbytes
        if st.resident_bytes > st.resident_peak_bytes:
            st.resident_peak_bytes = st.resident_bytes
        live = st.mem_live.get(purpose, 0) + nbytes
        st.mem_live[purpose] = live
        if live > st.mem_peak.get(purpose, 0):
            st.mem_peak[purpose] = live
        phase = st.phase
        if st.resident_bytes > st.phase_mem_peak.get(phase, 0):
            st.phase_mem_peak[phase] = st.resident_bytes
        if purpose == MEM_INFLIGHT and live > st.peak_live_bytes:
            # Fold the transport packed-copy category into the legacy
            # in-flight counter so ``peak_live_bytes`` genuinely tracks
            # transport buffering (plus any self-reported notes).
            st.peak_live_bytes = live
        if self.record_events:
            self.memlog.append(
                MemEvent(
                    rank=world_rank,
                    kind="alloc",
                    purpose=purpose,
                    phase=phase,
                    t=st.clock,
                    nbytes=nbytes,
                    resident_bytes=st.resident_bytes,
                )
            )

    def release_rank_memory(self, world_rank: int) -> None:
        """Free every span still open on a rank whose program unwound.

        Dead-letter reclamation for the leak table: a rank killed
        (``RankFault(kill=True)``) or aborted mid-phase never reaches
        its ``mem_free`` calls, so its open spans (``tile.a``,
        ``cannon.dblbuf``, ``transport.inflight``, ...) would sit in
        :attr:`RankTrace.mem_live` forever and every leak audit
        downstream would report false positives for memory that died
        with the rank.  The runtime calls this after the rank's program
        has fully unwound — every organic free has already run, so
        nothing here can double-free — and the frees are emitted in
        sorted purpose order at the rank's final clock, keeping the
        per-rank memory timeline replay-deterministic.
        """
        with self._lock:
            st = self.ranks[world_rank]
            for purpose in sorted(st.mem_live):
                live = st.mem_live[purpose]
                if live > 0:
                    self._mem_free_locked(world_rank, purpose, live)

    def _mem_free_locked(self, world_rank: int, purpose: str, nbytes: int) -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"mem_free of negative size {nbytes}")
        st = self.ranks[world_rank]
        live = st.mem_live.get(purpose, 0)
        if nbytes > live:
            raise ValueError(
                f"mem_free({purpose!r}) of {nbytes} bytes exceeds live "
                f"{live} on rank {world_rank}"
            )
        st.mem_live[purpose] = live - nbytes
        st.resident_bytes -= nbytes
        if self.record_events:
            self.memlog.append(
                MemEvent(
                    rank=world_rank,
                    kind="free",
                    purpose=purpose,
                    phase=st.phase,
                    t=st.clock,
                    nbytes=nbytes,
                    resident_bytes=st.resident_bytes,
                )
            )

    # --------------------------------------------------------------- p2p -- #
    def post_send(
        self,
        ctx: int,
        src_world: int,
        dst_world: int,
        tag: int,
        stored: Any,
        nbytes: int,
        is_array: bool,
        advance_sender: bool,
    ) -> tuple[float, int]:
        """Deposit a message; return ``(arrival_time, seq)``.

        ``advance_sender=True`` models a blocking send (the sender's
        clock moves past the transfer); ``False`` models a nonblocking
        send whose cost is accounted at ``wait`` time by the caller.
        ``seq`` identifies the message in :attr:`msglog` (and on the
        send/recv events bracketing its transfer) when recording.
        """
        t_msg = self.machine.msg_time(nbytes, src_world, dst_world)
        with self._cond:
            self._check_abort()
            # Sends always succeed locally, even to dead ranks and on a
            # revoked world (eager-buffered / dead-letter semantics).
            # Raising here would make the outcome depend on whether this
            # thread observed the death/revocation flag before or after
            # the racing detector set it — a wall-clock artifact that
            # made faulted makespans wobble between replays.  Failure
            # detection is the receiver's job (recv-from-dead, the
            # revocation quiescence check) with ``agree`` as the
            # collective backstop.
            st = self.ranks[src_world]
            drops = 0
            injected = False
            if self.faults is not None:
                t_msg, drops, injected, stored = self._perturb_flight_locked(
                    src_world, dst_world, st.phase, t_msg,
                    stored=stored, is_array=is_array,
                )
            in_region = st.async_depth > 0
            base = st.comm_clock if in_region else st.clock
            nic_serialized = (
                self.machine.overlap == "partial"
                and not self.machine.same_node(src_world, dst_world)
                and (in_region or not advance_sender)
            )
            if nic_serialized:
                # One NIC stream per rank in partial mode: an in-flight
                # nonblocking transfer delays the next one's start.
                # Blocking sends are untouched (their wait drags the
                # clock past nic_free anyway, keeping sync paths
                # bit-exact under every overlap mode).
                base = max(base, st.nic_free)
            t_post = base
            arrival = t_post + t_msg
            if nic_serialized:
                st.nic_free = arrival
            self._seq += 1
            seq = self._seq
            if self.record_events:
                self.msglog.append(
                    MsgRecord(
                        seq=seq,
                        src=src_world,
                        dst=dst_world,
                        t_post=t_post,
                        arrival=arrival,
                        nbytes=nbytes,
                        tag=tag,
                        ctx=ctx,
                        phase=st.phase,
                        injected=injected,
                        coll=st.coll,
                    )
                )
            if in_region:
                # The transfer rides the comm timeline; its cost is
                # settled by async_wait when the region's request is
                # waited on (no event, no phase charge here).
                st.comm_clock = arrival
            elif advance_sender:
                if t_post > st.clock:
                    # NIC-delayed start (partial mode): charge straight
                    # to the arrival so the queueing delay is visible as
                    # send time.  (a+b)-a != b in floating point, so the
                    # undelayed path below must stay the legacy advance.
                    self._raise_clock_locked(
                        src_world, arrival,
                        event_kind="send", nbytes=nbytes, peer=dst_world,
                        seq=seq, injected=injected,
                    )
                else:
                    self._advance_locked(
                        src_world, t_msg, "comm",
                        event_kind="send", nbytes=nbytes, peer=dst_world, seq=seq,
                        injected=injected,
                    )
            ps = st.phase_stats()
            ps.bytes_sent += nbytes
            ps.msgs_sent += 1
            cs = st.coll_stats()
            cs.bytes_sent += nbytes
            cs.msgs_sent += 1
            st.bytes_sent += nbytes
            st.msgs_sent += 1
            # Sender-side packed copy: charged transiently in the
            # sender's own program order (deterministic on replay).
            self._mem_alloc_locked(src_world, MEM_INFLIGHT, nbytes)
            self._mem_free_locked(src_world, MEM_INFLIGHT, nbytes)
            msg = Message(
                ctx=ctx,
                src_world=src_world,
                dst_world=dst_world,
                tag=tag,
                stored=stored,
                nbytes=nbytes,
                is_array=is_array,
                arrival=arrival,
                seq=seq,
            )
            if drops > 0:
                # Lost on the wire: held until the receiver times out and
                # requests retransmits (see match_recv).  The sender is
                # oblivious — its clock and counters were charged as usual.
                self._dropped[(ctx, dst_world)].append(
                    _Dropped(msg=msg, flight=t_msg, drops=drops, t_post=t_post)
                )
            else:
                self._mail[(ctx, dst_world)].append(msg)
            self.progress += 1
            if self.scheduler is not None:
                # Precise wakeup: only the receiver can be unblocked by
                # this post.  A *dropped* message readies it too — the
                # receiver must start charging its timeout/retry clock.
                # No DES strand ever waits on the condition, so the
                # broadcast notify is thread-backend only.
                self.scheduler.wake_recv_locked(dst_world)
            else:
                self._cond.notify_all()
        return arrival, seq

    def _perturb_flight_locked(
        self,
        src_world: int,
        dst_world: int,
        phase: str,
        t_msg: float,
        stored: Any = None,
        is_array: bool = False,
    ) -> tuple[float, int, bool, Any]:
        """Apply matching link-fault rules to one posted message.

        Returns ``(perturbed_flight, drops, injected, stored)`` — the
        returned payload replaces the caller's, because corrupting a
        pickled container produces a *new* blob.  Factors from
        multiple matching rules multiply, extra delays add, and drop
        counts take the max.  Per-(rule, link) hit counters make every
        decision reproducible (one sender thread per link).  Corrupt
        rules flip seeded elements of ``stored`` (``payload_pack``
        hands the transport a private copy, so the sender's buffer is
        untouched and the receiver sees the corrupted bits, exactly
        like a wire-level flip).  Rules with ``corrupt_phase`` draw
        their corruption decisions from a separate per-link hit
        counter, so adding phase-targeted corruption to a plan never
        shifts the seeded decisions of existing rules.
        """
        extra = 0.0
        factor = 1.0
        drops = 0
        corrupt: list[tuple[int, int, int]] = []
        for idx, rule in self.faults.link_rules(src_world, dst_world, phase):
            key = (idx, src_world, dst_world)
            hit = self._fault_hits.get(key, 0)
            self._fault_hits[key] = hit + 1
            dec = rule.decide(
                self.faults.seed, idx, src_world, dst_world, hit, t_msg
            )
            extra += dec.extra_s
            factor *= dec.latency_factor
            drops = max(drops, dec.drops)
            if dec.corrupt_elems > 0:
                corrupt.append((idx, hit, dec.corrupt_elems))
            if rule.corrupt_phase is not None and phase == rule.corrupt_phase:
                ckey = (idx, src_world, dst_world, "corrupt")
                chit = self._fault_hits.get(ckey, 0)
                self._fault_hits[ckey] = chit + 1
                elems = rule.corrupt_elems_for(
                    self.faults.seed, idx, src_world, dst_world, chit
                )
                if elems > 0:
                    corrupt.append((idx, chit, elems))
        corrupted = False
        if corrupt:
            if is_array:
                corrupted = self._corrupt_payload_locked(
                    src_world, dst_world, phase, stored, corrupt
                )
            else:
                blob = self._corrupt_container_locked(
                    src_world, dst_world, phase, stored, corrupt
                )
                if blob is not None:
                    stored = blob
                    corrupted = True
        injected = extra > 0.0 or factor != 1.0 or drops > 0 or corrupted
        return t_msg * factor + extra, drops, injected, stored

    def _record_injection_locked(self, src_world: int, phase: str) -> None:
        st = self.ranks[src_world]
        st.corruptions_injected += 1
        st.corruptions_injected_by_phase[phase] = (
            st.corruptions_injected_by_phase.get(phase, 0) + 1
        )

    def _corrupt_payload_locked(
        self,
        src_world: int,
        dst_world: int,
        phase: str,
        arr: Any,
        requests: list[tuple[int, int, int]],
    ) -> bool:
        """Flip seeded elements of an in-flight array payload (in place).

        Only inexact (float/complex) arrays are corruptible — integer
        arrays carry control decisions (ABFT votes), and flipping them
        would corrupt the corrector rather than the data it guards.
        Each flip adds ``1 + |v|`` to the chosen element: large
        relative to both the value and float64 roundoff, hence always
        detectable by a checksum with a sane tolerance.
        """
        if not isinstance(arr, np.ndarray) or arr.size == 0:
            return False
        if not np.issubdtype(arr.dtype, np.inexact):
            return False
        seed = self.faults.seed
        for idx, hit, elems in requests:
            for e in range(elems):
                pos = int(
                    _mix(seed, idx, 5, src_world, dst_world, hit, e) * arr.size
                ) % arr.size
                val = arr.flat[pos]
                arr.flat[pos] = val + (1.0 + abs(val))
            self._record_injection_locked(src_world, phase)
        return True

    def _corrupt_container_locked(
        self,
        src_world: int,
        dst_world: int,
        phase: str,
        blob: Any,
        requests: list[tuple[int, int, int]],
    ) -> bytes | None:
        """Flip seeded elements inside a pickled container payload.

        Redistribution batches and allgather rounds travel as pickled
        containers of arrays, not raw ndarrays.  Wire corruption
        reaches them by unpickling the blob, walking it
        deterministically for inexact arrays, flipping a seeded
        element of the virtual concatenation of those arrays (same
        formula as the raw-array path), and re-pickling.  Returns the
        replacement blob, or ``None`` when there is nothing to flip —
        payloads without float arrays (ABFT vote ints, resend nack
        bools) are incorruptible by construction.
        """
        if not isinstance(blob, (bytes, bytearray)):
            return None
        try:
            obj = pickle.loads(bytes(blob))
        except Exception:
            return None
        arrays: list[np.ndarray] = []

        def walk(x: Any) -> None:
            if isinstance(x, np.ndarray):
                if x.size and np.issubdtype(x.dtype, np.inexact):
                    arrays.append(x)
            elif isinstance(x, (list, tuple)):
                for y in x:
                    walk(y)
            elif isinstance(x, dict):
                for k in x:
                    walk(x[k])

        walk(obj)
        total = sum(a.size for a in arrays)
        if total == 0:
            return None
        seed = self.faults.seed
        for idx, hit, elems in requests:
            for e in range(elems):
                pos = int(
                    _mix(seed, idx, 5, src_world, dst_world, hit, e) * total
                ) % total
                for a in arrays:
                    if pos < a.size:
                        val = a.flat[pos]
                        a.flat[pos] = val + (1.0 + abs(val))
                        break
                    pos -= a.size
            self._record_injection_locked(src_world, phase)
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def msg_record(self, seq: int) -> MsgRecord | None:
        """The :class:`MsgRecord` for a message seq (None when unknown)."""
        i = seq - 1
        if 0 <= i < len(self.msglog) and self.msglog[i].seq == seq:
            return self.msglog[i]
        return None

    @staticmethod
    def _matches(msg: Message, src_world: int, tag: int) -> bool:
        if src_world != ANY_SOURCE and msg.src_world != src_world:
            return False
        if tag != ANY_TAG and msg.tag != tag:
            return False
        return True

    def _select_locked(
        self,
        ctx: int,
        dst_world: int,
        src_world: int,
        tag: int,
        caps: dict[int, int] | None = None,
    ) -> int | None:
        """Index of the deliverable mailbox message this receive takes.

        Per sender, only that pair's oldest matching message is a
        candidate (mailboxes hold each pair's messages in seq order, so
        the first hit per sender preserves MPI non-overtaking).  ``caps``
        maps a sender's world rank to the seq of its lowest *held
        dropped* message matching this receive: candidates at or past
        the cap are invisible until the retransmit lands.  Among
        candidates the smallest ``(arrival, src)`` wins — a virtual-time
        tie-break, so an ``ANY_SOURCE`` receive resolves identically on
        every backend and replay instead of inheriting the wall-clock
        order in which sender threads reached the mailbox.
        """
        box = self._mail.get((ctx, dst_world))
        if not box:
            return None
        best_i = -1
        best_key: tuple[float, int] | None = None
        seen: set[int] = set()
        for i, msg in enumerate(box):
            if not self._matches(msg, src_world, tag):
                continue
            s = msg.src_world
            if s in seen:
                continue
            seen.add(s)
            if caps is not None and s in caps and msg.seq >= caps[s]:
                continue
            key = (msg.arrival, s)
            if best_key is None or key < best_key:
                best_i, best_key = i, key
            if src_world != ANY_SOURCE:
                break  # single pair: its oldest candidate is the answer
        if best_key is None:
            return None
        return best_i

    def _find_locked(
        self,
        ctx: int,
        dst_world: int,
        src_world: int,
        tag: int,
        caps: dict[int, int] | None = None,
    ) -> Message | None:
        """Pop the matching mailbox message :meth:`_select_locked` chose."""
        i = self._select_locked(ctx, dst_world, src_world, tag, caps)
        if i is None:
            return None
        return self._mail[(ctx, dst_world)].pop(i)

    def _drop_caps_locked(
        self, ctx: int, dst_world: int, src_world: int, tag: int
    ) -> dict[int, int] | None:
        """Per-sender seq caps from held dropped messages this receive matches.

        Non-overtaking is a *per-pair* property: a drop from sender A
        must not be overtaken by A's later messages, but says nothing
        about sender B.  (The old global ``before_seq`` cap compared
        seqs across pairs — a wall-clock artifact under ``ANY_SOURCE``.)
        """
        held = self._dropped.get((ctx, dst_world))
        if not held:
            return None
        caps: dict[int, int] = {}
        for d in held:
            if self._matches(d.msg, src_world, tag):
                s = d.msg.src_world
                if s not in caps or d.msg.seq < caps[s]:
                    caps[s] = d.msg.seq
        return caps or None

    def _find_dropped_locked(
        self, ctx: int, dst_world: int, src_world: int, tag: int
    ) -> _Dropped | None:
        """The held dropped message this receive times out against.

        Per sender the lowest-seq matching drop is the candidate (its
        retransmit must land first); across senders the one whose
        original arrival would have been earliest wins, with the sender
        rank as tie-break — again virtual-time ordering, never the
        wall-clock order the drops were registered in.
        """
        held = self._dropped.get((ctx, dst_world))
        if not held:
            return None
        per_src: dict[int, _Dropped] = {}
        for d in held:
            if self._matches(d.msg, src_world, tag):
                cur = per_src.get(d.msg.src_world)
                if cur is None or d.msg.seq < cur.msg.seq:
                    per_src[d.msg.src_world] = d
        if not per_src:
            return None
        return min(
            per_src.values(), key=lambda d: (d.msg.arrival, d.msg.src_world)
        )

    def _timeout_retry_locked(self, ctx: int, dst_world: int, d: _Dropped) -> None:
        """Charge one recv timeout against the held dropped message ``d``
        and either request a retransmit or raise :class:`RecvTimeoutError`.

        The timeout is a *simulated-time* construct: it fires as soon as
        the transport can prove the awaited message was dropped, and the
        wait it models (``timeout_s * backoff**(n-1)``) is charged to
        the receiver's simulated clock as an ``injected=True`` wait.
        """
        st = self.ranks[dst_world]
        policy = self.faults.retry
        d.attempts += 1
        wait_s = policy.nth_timeout_s(d.attempts)
        st.timeouts += 1
        st.injected_wait_s += wait_s
        self._advance_locked(
            dst_world, wait_s, "comm",
            event_kind="wait", peer=d.msg.src_world, seq=d.msg.seq,
            injected=True,
        )
        self.progress += 1
        if d.attempts > policy.max_retries:
            waited = sum(policy.nth_timeout_s(i) for i in range(1, d.attempts + 1))
            raise RecvTimeoutError(
                dst_world, d.msg.src_world, d.msg.tag, d.attempts, waited
            )
        st.retries += 1
        if d.attempts >= d.drops:
            # Retransmit succeeds: receiver-driven resend arrives one
            # flight after the request.  The msglog record is replaced
            # in place (index == seq - 1 invariant) so the critical-path
            # walk sees the true arrival.
            self._dropped[(ctx, dst_world)].remove(d)
            msg = d.msg
            # The resend leaves no earlier than the receiver's request
            # *and* no earlier than the original post: a receiver whose
            # timeouts all fired before the sender even posted (e.g. the
            # sender straggling under a slowdown fault) must not receive
            # a message from the future.  Deadlines are virtual-clock
            # quantities, never real thread-wait time.
            msg.arrival = max(st.clock, d.t_post) + d.flight
            # Re-insert in seq order: later same-(src, tag) messages may
            # already sit in the mailbox, and matching pops in list order,
            # so an append here would let them overtake the retransmit.
            box = self._mail[(ctx, dst_world)]
            i = len(box)
            while i > 0 and box[i - 1].seq > msg.seq:
                i -= 1
            box.insert(i, msg)
            if self.record_events:
                i = msg.seq - 1
                if 0 <= i < len(self.msglog) and self.msglog[i].seq == msg.seq:
                    self.msglog[i] = dataclasses.replace(
                        self.msglog[i], arrival=msg.arrival, injected=True
                    )
            self._cond.notify_all()

    def match_recv(
        self,
        ctx: int,
        dst_world: int,
        src_world: int,
        tag: int,
        advance_receiver: bool = True,
    ) -> tuple[Message, Status]:
        """Block (the real thread) until a matching message is available.

        On return the receiver's simulated clock has been raised to the
        message arrival time (if ``advance_receiver``), and the
        receive-side counters are charged.

        Under a fault plan, a receive whose matching message was
        *dropped* times out per the plan's
        :class:`~repro.mpi.faults.RetryPolicy`: each timeout charges a
        simulated backoff wait and requests a retransmit; exhausting the
        budget raises :class:`~repro.mpi.errors.RecvTimeoutError`.
        """
        with self._cond:
            st = self.ranks[dst_world]
            st.recv_wait = (ctx, src_world, tag)
            try:
                while True:
                    self._check_abort()
                    # Non-overtaking: a held dropped message must not be
                    # overtaken by a later message on the same pair, so
                    # mailbox matching is capped at the dropped seqs.
                    caps = (
                        self._drop_caps_locked(ctx, dst_world, src_world, tag)
                        if self.faults is not None
                        else None
                    )
                    msg = self._find_locked(
                        ctx, dst_world, src_world, tag, caps=caps
                    )
                    if msg is not None:
                        break
                    # A message already on the wire from a now-dead rank
                    # is still deliverable (checked above); with nothing
                    # in flight, waiting on a dead rank is hopeless.
                    if src_world != ANY_SOURCE and src_world in self.dead:
                        raise RankFailedError(dst_world, src_world, op="recv from")
                    if caps is not None:
                        d = self._find_dropped_locked(
                            ctx, dst_world, src_world, tag
                        )
                        if d is not None:
                            self._timeout_retry_locked(ctx, dst_world, d)
                            continue
                    # Quiescence-gated revocation: a deliverable message
                    # always wins over the revoked flag, so the program
                    # point (and virtual clock) at which each survivor
                    # is unwound is replay-deterministic.
                    if self.revoked and self._quiescent_locked():
                        raise CommRevokedError(dst_world)
                    # Described only when about to park: most receives
                    # match at once and never show up as blocked.
                    if st.waiting_on is None:
                        st.waiting_on = f"recv(src={src_world}, tag={tag}, ctx={ctx})"
                    self._wait_locked(dst_world, "recv")
                self.progress += 1
                if advance_receiver:
                    self._raise_clock_locked(
                        dst_world, msg.arrival,
                        event_kind="recv", nbytes=msg.nbytes, peer=msg.src_world,
                        seq=msg.seq,
                    )
                ps = st.phase_stats()
                ps.bytes_recv += msg.nbytes
                ps.msgs_recv += 1
                cs = st.coll_stats()
                cs.bytes_recv += msg.nbytes
                cs.msgs_recv += 1
                st.bytes_recv += msg.nbytes
                st.msgs_recv += 1
                # No receiver-side in-flight charge: at receipt the
                # payload is handed to the engine, whose own spans
                # (cannon.dblbuf, redist.tiles, ...) account for it —
                # charging here would double-count every received block.
                status = Status(source=msg.src_world, tag=msg.tag, nbytes=msg.nbytes)
                return msg, status
            finally:
                st.waiting_on = None
                st.recv_wait = None

    def _quiescent_locked(self) -> bool:
        """True when no live, unfinished rank can make progress.

        The gate for delivering :class:`CommRevokedError` (see
        :meth:`revoke`): every rank is dead, finished, parked in an
        agree rendezvous, or blocked in a receive with no matching
        message in the mailbox and no held drop a retransmit could
        still release.  Quiescence is a stable property — once reached,
        only the unwinding of a blocked receiver changes it — so the
        set of ranks unwound, and the virtual clock each is unwound at,
        do not depend on thread scheduling.
        """
        for r, st in enumerate(self.ranks):
            if r in self.dead or r in self.finished or st.agree_wait:
                continue
            w = st.recv_wait
            if w is None:
                return False  # still running between transport calls
            ctx, src, tag = w
            if self.faults is not None and self._find_dropped_locked(
                ctx, r, src, tag
            ) is not None:
                return False  # a retransmit can still release it
            box = self._mail.get((ctx, r))
            if box and any(self._matches(m, src, tag) for m in box):
                return False  # deliverable: about to make progress
        return True

    def probe(self, ctx: int, dst_world: int, src_world: int, tag: int) -> Status | None:
        """Nonblocking probe: status of the message a receive would take.

        Candidate selection is shared with :meth:`match_recv`
        (:meth:`_select_locked`), so a probe-then-recv pair always
        agrees on the message — including under fault injection, where
        held dropped messages cap what the probe may report: a later
        message that a drop should precede is invisible until the
        retransmit lands.
        """
        with self._lock:
            self._check_abort()
            caps = (
                self._drop_caps_locked(ctx, dst_world, src_world, tag)
                if self.faults is not None
                else None
            )
            i = self._select_locked(ctx, dst_world, src_world, tag, caps)
            if i is not None:
                msg = self._mail[(ctx, dst_world)][i]
                return Status(source=msg.src_world, tag=msg.tag, nbytes=msg.nbytes)
            # A deliverable message wins over the revoked flag (matching
            # match_recv); with nothing to report, refuse so that a
            # probe-polling loop cannot spin forever on a revoked world.
            if self.revoked:
                raise CommRevokedError(dst_world)
            if self.scheduler is not None:
                # Cooperative yield: a probe miss must not monopolise the
                # DES world — let every rank with real work run first.
                self.scheduler.poll_yield_locked(dst_world)
            return None

    # ----------------------------------------------------------- tracing -- #
    def trace(self, world_rank: int) -> RankTrace:
        with self._lock:
            st = self.ranks[world_rank]
            return RankTrace(
                rank=world_rank,
                time=st.clock,
                bytes_sent=st.bytes_sent,
                bytes_recv=st.bytes_recv,
                msgs_sent=st.msgs_sent,
                msgs_recv=st.msgs_recv,
                peak_live_bytes=st.peak_live_bytes,
                phases={k: v.merged(PhaseStats()) for k, v in st.phases.items()},
                colls={
                    phase: {c: v.merged(CollStats()) for c, v in by_coll.items()}
                    for phase, by_coll in st.colls.items()
                },
                resident_peak_bytes=st.resident_peak_bytes,
                resident_bytes=st.resident_bytes,
                mem_peaks=dict(st.mem_peak),
                mem_live={k: v for k, v in st.mem_live.items() if v},
                phase_mem_peaks=dict(st.phase_mem_peak),
                retries=st.retries,
                timeouts=st.timeouts,
                injected_wait_s=st.injected_wait_s,
                corruptions_injected=st.corruptions_injected,
                corruptions_detected=st.corruptions_detected,
                corruptions_injected_by_phase=dict(
                    st.corruptions_injected_by_phase
                ),
                corruptions_detected_by_phase=dict(
                    st.corruptions_detected_by_phase
                ),
                recomputed_flops=st.recomputed_flops,
                reused_flops=st.reused_flops,
                recoveries=st.recoveries,
            )

    def traces(self) -> list[RankTrace]:
        return [self.trace(r) for r in range(self.nprocs)]

    def blocked_ranks(self) -> dict[int, str]:
        with self._lock:
            return {
                r: st.waiting_on
                for r, st in enumerate(self.ranks)
                if st.waiting_on is not None
            }
