"""Communicator management: split, dup, create_sub, and Cart2D."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.machine.model import laptop
from repro.mpi import Cart2D, DeadlockError, run_spmd
from repro.mpi.errors import CommError

BACKENDS = ("threads", "des")


def _run(backend, nprocs, fn, **kw):
    return run_spmd(nprocs, fn, machine=laptop(), backend=backend,
                    deadlock_timeout=20.0, **kw)


def _reference_split(colors, keys, members):
    """The pre-typed split, in pure Python: ``members`` are the parent's
    world ranks by local rank; returns each member's new group (None
    for color None) from sorting ``(key, local rank)`` within a color."""
    out = {}
    triples = [(colors[w], keys[w], r) for r, w in enumerate(members)]
    for c, _k, r in triples:
        if c is None:
            out[members[r]] = None
            continue
        ordered = sorted((k2, r2) for (c2, k2, r2) in triples if c2 == c)
        out[members[r]] = tuple(members[r2] for (_k2, r2) in ordered)
    return out


class TestSplit:
    def test_split_even_odd(self, spmd):
        def f(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            return (sub.rank, sub.size, sub.allgather(comm.rank))

        res = spmd(6, f)
        for rank, (sr, ss, members) in enumerate(res.results):
            assert ss == 3
            assert sr == rank // 2
            assert members == ([0, 2, 4] if rank % 2 == 0 else [1, 3, 5])

    def test_split_key_reorders(self, spmd):
        def f(comm):
            # Reverse ordering via descending keys.
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        res = spmd(4, f)
        assert res.results == [3, 2, 1, 0]

    def test_split_none_color(self, spmd):
        def f(comm):
            sub = comm.split(color=0 if comm.rank < 2 else None, key=comm.rank)
            if comm.rank < 2:
                assert sub is not None and sub.size == 2
                return sub.allreduce(np.array([1.0]))[0]
            assert sub is None
            return None

        res = spmd(5, f)
        assert res.results[:2] == [2.0, 2.0]
        assert res.results[2:] == [None, None, None]

    def test_nested_splits_are_isolated(self, spmd):
        """Traffic in a subcommunicator never leaks into the parent."""

        def f(comm):
            sub = comm.split(color=comm.rank // 2, key=comm.rank)
            sub2 = sub.split(color=0, key=sub.rank)
            a = sub2.allgather(comm.rank)
            b = comm.allgather(comm.rank)
            return a, b

        res = spmd(4, f)
        assert res.results[0][0] == [0, 1]
        assert res.results[2][0] == [2, 3]
        assert all(r[1] == [0, 1, 2, 3] for r in res.results)

    def test_repeated_splits_unique_contexts(self, spmd):
        def f(comm):
            subs = [comm.split(color=0, key=comm.rank) for _ in range(3)]
            return [s.allreduce(np.array([float(comm.rank)]))[0] for s in subs]

        res = spmd(3, f)
        assert all(r == [3.0, 3.0, 3.0] for r in res.results)


class TestTypedSplit:
    """The split wire format: one int32 ``(color, key)`` row per member."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_semantics_nested(self, backend, seed):
        p = 11
        rng = np.random.default_rng(seed)

        def table():
            # Few colors (so groups collide), None, and negative and
            # duplicate keys (ties broken by parent rank).
            colors = [None if rng.random() < 0.2 else int(c)
                      for c in rng.integers(0, 3, p)]
            keys = [int(k) for k in rng.integers(-2, 2, p)]
            return colors, keys

        (c1, k1), (c2, k2) = table(), table()

        def f(comm):
            w = comm.rank
            sub = comm.split(c1[w], k1[w])
            if sub is None:
                return None, None
            assert sub.allgather(w) == list(sub.group)
            sub2 = sub.split(c2[w], k2[w])
            return sub.group, None if sub2 is None else sub2.group

        res = _run(backend, p, f)
        level1 = _reference_split(c1, k1, tuple(range(p)))
        for w, (g1, g2) in enumerate(res.results):
            assert g1 == level1[w]
            if g1 is not None:
                assert g2 == _reference_split(c2, k2, g1)[w]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("p", [2, 6, 7, 8])
    def test_round_h_sends_min_h_p_minus_h_rows_of_8_bytes(self, backend, p):
        def f(comm):
            comm.split(comm.rank % 2, -comm.rank)

        res = _run(backend, p, f, record_events=True)
        expected, h = [], 1
        while h < p:
            expected.append(min(h, p - h) * 8)
            h += min(h, p - h)
        for src in range(p):
            sent = [m.nbytes for m in res.transport.msglog if m.src == src]
            assert sent == expected
            assert all(m.coll == "allgather.bruck"
                       for m in res.transport.msglog if m.src == src)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "color,key",
        [(-1, 0), (-5, 0), (2 ** 31, 0), (0, 2 ** 31), (0, -(2 ** 31) - 1),
         (1.5, 0), ("a", 0)],
    )
    def test_invalid_color_or_key_rejected(self, backend, color, key):
        def f(comm):
            with pytest.raises(CommError):
                comm.split(color, key)
            # The rejection is local and sends nothing: the next split
            # still pairs up across ranks.
            return comm.split(0, comm.rank).size

        assert _run(backend, 3, f).results == [3, 3, 3]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_int32_extremes_accepted(self, backend):
        top = 2 ** 31 - 1

        def f(comm):
            sub = comm.split(top, -(2 ** 31) if comm.rank == 2 else top)
            return sub.group

        assert _run(backend, 3, f).results == [(2, 0, 1)] * 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadlock_message_names_the_receive(self, backend):
        """The blocked-receive text is built only when a rank parks, and
        still reaches the DeadlockError."""

        def f(comm):
            comm.recv(source=1 - comm.rank, tag=7 + comm.rank)

        with pytest.raises(DeadlockError) as info:
            run_spmd(2, f, machine=laptop(), backend=backend,
                     deadlock_timeout=2.0)
        msg = str(info.value)
        assert re.search(r"rank 0: recv\(src=1, tag=7, ctx=\d+\)", msg), msg
        assert re.search(r"rank 1: recv\(src=0, tag=8, ctx=\d+\)", msg), msg


class TestDupCreate:
    def test_dup_preserves_group(self, spmd):
        def f(comm):
            d = comm.dup()
            return (d.rank, d.size, d.group == comm.group)

        res = spmd(4, f)
        for rank, (dr, ds, same) in enumerate(res.results):
            assert (dr, ds, same) == (rank, 4, True)

    def test_create_sub(self, spmd):
        def f(comm):
            sub = comm.create_sub([3, 1])
            if comm.rank in (1, 3):
                # order follows the list: rank 3 is local 0, rank 1 local 1
                return (sub.rank, sub.allgather(comm.rank))
            assert sub is None
            return None

        res = spmd(4, f)
        assert res.results[3] == (0, [3, 1])
        assert res.results[1] == (1, [3, 1])

    def test_create_sub_duplicate_ranks_rejected(self, spmd):
        def f(comm):
            with pytest.raises(CommError):
                comm.create_sub([0, 0])

        spmd(2, f)


class TestCart2D:
    def test_coords_column_major(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 2, 3)
            return (cart.row, cart.col)

        res = spmd(6, f)
        assert res.results == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]

    def test_neighbours_wrap(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 2, 2)
            return (cart.left(1), cart.right(1), cart.up(1), cart.down(1))

        res = spmd(4, f)
        # rank 0 = (0,0): left -> (0,1)=2, right -> 2, up -> (1,0)=1, down -> 1
        assert res.results[0] == (2, 2, 1, 1)

    def test_row_col_comms(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 2, 3)
            row = cart.row_comm()
            col = cart.col_comm()
            return (row.size, col.size, row.allgather(cart.col), col.allgather(cart.row))

        res = spmd(6, f)
        for rs, cs, rows, cols in res.results:
            assert (rs, cs) == (3, 2)
            assert rows == [0, 1, 2]
            assert cols == [0, 1]

    def test_size_mismatch_rejected(self, spmd):
        def f(comm):
            with pytest.raises(CommError):
                Cart2D(comm, 2, 2)

        spmd(6, f)

    def test_rank_of_wraps(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 3, 3)
            return cart.rank_of(-1, 4)

        res = spmd(9, f)
        # (-1 mod 3, 4 mod 3) = (2, 1) -> 2 + 1*3 = 5
        assert res.results[0] == 5
