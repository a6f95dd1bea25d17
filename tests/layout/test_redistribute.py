"""Any-to-any redistribution, including transposes and exotic layouts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layout import (
    Block2D,
    BlockCol1D,
    BlockCyclic2D,
    BlockRow1D,
    DistMatrix,
    dense_random,
    redistribute,
)
from repro.machine.model import laptop
from repro.mpi import run_spmd


def _roundtrip(comm, m, n, src_dist, dst_dist, transpose=False):
    ref = dense_random(m, n, 42)
    x = DistMatrix.from_global(comm, src_dist, ref)
    y = redistribute(x, dst_dist, transpose=transpose)
    got = y.to_global()
    expect = ref.T if transpose else ref
    assert np.array_equal(got, expect)
    return True


class TestPairs:
    @pytest.mark.parametrize(
        "mk_src,mk_dst",
        [
            (lambda s, P: BlockRow1D(s, P), lambda s, P: BlockCol1D(s, P)),
            (lambda s, P: BlockCol1D(s, P), lambda s, P: Block2D(s, P, 2, 2)),
            (lambda s, P: Block2D(s, P, 4, 1), lambda s, P: Block2D(s, P, 1, 4)),
            (lambda s, P: BlockRow1D(s, P), lambda s, P: BlockCyclic2D(s, P, 2, 2, bs=3)),
            (
                lambda s, P: BlockCyclic2D(s, P, 2, 2, bs=2),
                lambda s, P: BlockCyclic2D(s, P, 2, 2, bs=5),
            ),
        ],
    )
    def test_roundtrip(self, spmd, mk_src, mk_dst):
        P, m, n = 4, 14, 18

        def f(comm):
            return _roundtrip(comm, m, n, mk_src((m, n), P), mk_dst((m, n), P))

        assert all(spmd(P, f).results)

    def test_identity_moves_no_data(self, spmd):
        """Native-to-same-native conversion sends only empty batches."""
        P = 4

        def f(comm):
            d = BlockRow1D((12, 8), P)
            x = DistMatrix.random(comm, d, seed=1)
            y = redistribute(x, d)
            return np.array_equal(x.tiles[0], y.tiles[0])

        res = spmd(P, f)
        assert all(res.results)
        # the neighbourhood exchange has no overlapping pairs: zero traffic.
        assert res.max_bytes_sent == 0

    def test_shape_mismatch_rejected(self, spmd):
        def f(comm):
            x = DistMatrix.random(comm, BlockRow1D((4, 6), comm.size), seed=0)
            with pytest.raises(ValueError):
                redistribute(x, BlockRow1D((6, 4), comm.size))

        spmd(2, f)

    def test_wrong_world_size_rejected(self, spmd):
        def f(comm):
            x = DistMatrix.random(comm, BlockRow1D((4, 6), comm.size), seed=0)
            with pytest.raises(ValueError):
                redistribute(x, BlockRow1D((4, 6), comm.size + 1))

        spmd(2, f)


class TestTranspose:
    @pytest.mark.parametrize("m,n", [(9, 13), (1, 16), (16, 1), (8, 8)])
    def test_transpose_roundtrip(self, spmd, m, n):
        P = 4

        def f(comm):
            return _roundtrip(
                comm, m, n, BlockCol1D((m, n), P), BlockRow1D((n, m), P), transpose=True
            )

        assert all(spmd(P, f).results)

    def test_transpose_shape_checked(self, spmd):
        def f(comm):
            x = DistMatrix.random(comm, BlockRow1D((4, 6), comm.size), seed=0)
            with pytest.raises(ValueError):
                # transpose=True needs destination shape (6, 4), not (4, 6)
                redistribute(x, BlockRow1D((4, 6), comm.size), transpose=True)

        spmd(2, f)

    def test_double_transpose_is_identity(self, spmd):
        def f(comm):
            ref = dense_random(7, 11, 3)
            x = DistMatrix.from_global(comm, BlockRow1D((7, 11), comm.size), ref)
            t = redistribute(x, BlockCol1D((11, 7), comm.size), transpose=True)
            back = redistribute(t, BlockRow1D((7, 11), comm.size), transpose=True)
            return np.array_equal(back.to_global(), ref)

        assert all(spmd(3, f).results)


class TestDistMatrix:
    def test_random_is_deterministic(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockRow1D((6, 6), comm.size), seed=9)
            b = DistMatrix.random(comm, BlockCol1D((6, 6), comm.size), seed=9)
            return np.array_equal(a.to_global(), b.to_global())

        assert all(spmd(3, f).results)

    def test_from_global_shape_mismatch(self, spmd):
        def f(comm):
            with pytest.raises(ValueError):
                DistMatrix.from_global(
                    comm, BlockRow1D((4, 4), comm.size), np.zeros((5, 4))
                )

        spmd(2, f)

    def test_tile_shape_validated(self, spmd):
        def f(comm):
            d = BlockRow1D((4, 4), comm.size)
            with pytest.raises(ValueError):
                DistMatrix(comm, d, [np.zeros((1, 1))])

        spmd(2, f)

    def test_zeros_and_local_bytes(self, spmd):
        def f(comm):
            z = DistMatrix.zeros(comm, BlockRow1D((8, 4), comm.size))
            return z.local_bytes(), float(z.to_global().sum())

        res = spmd(2, f)
        assert res.results == [(4 * 4 * 8, 0.0), (4 * 4 * 8, 0.0)]

    def test_dtype_preserved(self, spmd):
        def f(comm):
            a = DistMatrix.random(
                comm, BlockRow1D((4, 4), comm.size), seed=0, dtype=np.float32
            )
            b = redistribute(a, BlockCol1D((4, 4), comm.size))
            return b.dtype == np.float32

        assert all(spmd(2, f).results)

    def test_complex_dtype(self, spmd):
        def f(comm):
            a = DistMatrix.random(
                comm, BlockRow1D((4, 4), comm.size), seed=0, dtype=np.complex128
            )
            g = a.to_global()
            return bool(np.abs(g.imag).sum() > 0)

        assert all(spmd(2, f).results)


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(1, 20),
    n=st.integers(1, 20),
    p=st.integers(1, 6),
    seed=st.integers(0, 1000),
    transpose=st.booleans(),
)
def test_redistribute_property(m, n, p, seed, transpose):
    """Random 1D <-> 2D conversions preserve content (and transpose)."""
    rng = np.random.default_rng(seed)
    pr = int(rng.integers(1, p + 1))
    pc = p // pr

    def f(comm):
        src = BlockRow1D((m, n), p)
        if transpose:
            dst = Block2D((n, m), p, max(1, pc), pr) if pc else BlockCol1D((n, m), p)
        else:
            dst = Block2D((m, n), p, max(1, pc), pr) if pc else BlockCol1D((m, n), p)
        return _roundtrip(comm, m, n, src, dst, transpose=transpose)

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=15.0)
    assert all(res.results)


class TestCrcEnvelope:
    def test_envelope_is_four_bytes_per_piece(self):
        from repro.layout.blocks import Rect
        from repro.layout.redistribute import _batch_bad, _batch_crcs

        batch = [(Rect(0, 2, 0, 3), dense_random(2, 3, s)) for s in range(5)]
        env = _batch_crcs(batch)
        assert isinstance(env, bytes) and len(env) == 4 * len(batch)
        assert not _batch_bad(env, batch)
        assert _batch_bad(env[:-4], batch)
        flipped = [(r, d.copy()) for r, d in batch]
        flipped[3][1][1, 2] += 1.0
        assert _batch_bad(env, flipped)

    @pytest.mark.parametrize("backend", ["threads", "des"])
    def test_verified_wire_bytes_do_not_depend_on_values(self, backend):
        """A CRC's value must not change the batch's size on the wire."""
        shape, p = (12, 10), 4

        def f(comm, seed):
            x = DistMatrix.from_global(
                comm, BlockRow1D(shape, p), dense_random(*shape, seed)
            )
            redistribute(x, Block2D(shape, p, 2, 2), verify=True)

        sent = {
            tuple(t.phases["redist"].bytes_sent for t in
                  run_spmd(p, f, args=(seed,), machine=laptop(),
                           backend=backend).traces)
            for seed in range(6)
        }
        assert len(sent) == 1
