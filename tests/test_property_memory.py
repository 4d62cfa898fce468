"""Property-based tests for the coalescing model and hashing primitives.

The packed-key kernels (PR 2) are additionally checked against
brute-force per-row Python references on randomized address/mask
patterns — including all-inactive rows, same-word broadcasts and
straddling accesses — so the single-sort implementations can never
silently drift from the model they encode.  The counts-only kernels
are checked against the summed per-row kernels, including which of
their two paths (int32 rows or the int64 fallback) each input takes.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.gpusim import memory
from repro.gpusim.memory import (
    bank_conflict_factor,
    bank_conflict_totals,
    coalesced_totals,
    transactions_per_row,
)
from repro.gpusim.trace import SAMPLE_BASE
from repro.hashing.rabin_karp import rabin_karp
from repro.hashing.simhash import token_bits

addr_arrays = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 32)),
    elements=st.integers(0, 1 << 20),
)


def ref_transactions_per_row(addr, active, transaction_bytes=128, access_bytes=4):
    """Naive per-row reference for the coalescing model.

    Distinct start granules among active lanes, plus one extra granule
    per boundary an access straddles (the model's exact semantics).
    """
    tx, sectors, req = [], [], []
    for a_row, m_row in zip(addr, active):
        lanes = [int(a) for a, m in zip(a_row, m_row) if m]
        counts = []
        for granule in (transaction_bytes, 32):
            starts = {a // granule for a in lanes}
            straddle = sum(
                (a + access_bytes - 1) // granule - a // granule for a in lanes
            )
            counts.append(len(starts) + straddle)
        tx.append(counts[0])
        sectors.append(counts[1])
        req.append(len(lanes) * access_bytes)
    return np.array(tx), np.array(sectors), np.array(req)


def ref_bank_conflict_factor(addr, active, n_banks=32, bank_width=4):
    """Naive per-row reference: max multiplicity of distinct words per bank."""
    out = []
    for a_row, m_row in zip(addr, active):
        words = {int(a) // bank_width for a, m in zip(a_row, m_row) if m}
        if not words:
            out.append(0)
            continue
        out.append(max(Counter(w % n_banks for w in words).values()))
    return np.array(out)


@given(addr_arrays, st.data(), st.sampled_from([1, 4, 8, 9, 16]))
@settings(max_examples=80, deadline=None)
def test_transactions_match_reference(addr, data, access_bytes):
    active = data.draw(arrays(dtype=bool, shape=addr.shape, elements=st.booleans()))
    tx, sectors, req = transactions_per_row(addr, active, access_bytes=access_bytes)
    rtx, rsec, rreq = ref_transactions_per_row(addr, active, access_bytes=access_bytes)
    np.testing.assert_array_equal(tx, rtx)
    np.testing.assert_array_equal(sectors, rsec)
    np.testing.assert_array_equal(req, rreq)


@given(addr_arrays, st.data())
@settings(max_examples=80, deadline=None)
def test_bank_conflict_matches_reference(addr, data):
    active = data.draw(arrays(dtype=bool, shape=addr.shape, elements=st.booleans()))
    np.testing.assert_array_equal(
        bank_conflict_factor(addr, active), ref_bank_conflict_factor(addr, active)
    )


def test_bank_conflict_edge_cases():
    # All-inactive rows get factor 0; same-word lanes broadcast (factor 1);
    # same-bank different-word lanes serialise.
    addr = np.array(
        [
            [4, 4, 4, 4],  # same word -> broadcast
            [0, 128, 256, 384],  # bank 0, four distinct words
            [0, 4, 8, 12],  # four distinct banks
            [7, 7, 7, 7],  # inactive row
        ],
        dtype=np.int64,
    )
    active = np.ones_like(addr, dtype=bool)
    active[3] = False
    np.testing.assert_array_equal(bank_conflict_factor(addr, active), [1, 4, 1, 0])
    np.testing.assert_array_equal(
        bank_conflict_factor(addr, active), ref_bank_conflict_factor(addr, active)
    )


def test_bank_conflict_wide_span_fallback():
    # Word spread too wide for int64 key packing: the kernel must fall
    # back to lexicographic dedup and still match the reference.
    big = np.int64(1) << 62
    addr = np.stack(
        [np.array([0, 4, big, big + 4, big + 128, 0, 4, 128], dtype=np.int64)] * 64
    )
    active = np.ones_like(addr, dtype=bool)
    result = bank_conflict_factor(addr, active)
    np.testing.assert_array_equal(result, ref_bank_conflict_factor(addr, active))


def test_transactions_straddling_and_broadcast_edges():
    addr = np.array(
        [
            [126, 126, 126, 126],  # same straddling access in every lane
            [0, 32, 64, 96],  # four sectors, one transaction
            [0, 0, 0, 0],  # broadcast
            [120, 130, 250, 260],  # mixed boundaries
        ],
        dtype=np.int64,
    )
    active = np.ones_like(addr, dtype=bool)
    for access_bytes in (1, 4, 8, 9):
        tx, sectors, req = transactions_per_row(addr, active, access_bytes=access_bytes)
        rtx, rsec, rreq = ref_transactions_per_row(
            addr, active, access_bytes=access_bytes
        )
        np.testing.assert_array_equal(tx, rtx)
        np.testing.assert_array_equal(sectors, rsec)
        np.testing.assert_array_equal(req, rreq)


@given(addr_arrays, st.data())
@settings(max_examples=80, deadline=None)
def test_transactions_bounds(addr, data):
    """1 <= transactions <= active lanes (for non-straddling accesses),
    and exactly the number of distinct 128-byte segments."""
    active = data.draw(
        arrays(dtype=bool, shape=addr.shape, elements=st.booleans())
    )
    tx, sectors, req = transactions_per_row(addr, active, access_bytes=4)
    for i in range(addr.shape[0]):
        lanes = active[i].sum()
        segs = np.unique(addr[i][active[i]] // 128)
        secs = np.unique(addr[i][active[i]] // 32)
        extra = sum(
            1
            for a in addr[i][active[i]]
            if (a + 3) // 128 != a // 128
        )
        assert tx[i] >= len(segs)
        assert tx[i] <= len(segs) + extra
        assert sectors[i] >= len(secs)
        assert req[i] == lanes * 4
        if lanes == 0:
            assert tx[i] == 0 and sectors[i] == 0


@given(addr_arrays)
@settings(max_examples=50, deadline=None)
def test_transactions_permutation_invariant(addr):
    rng = np.random.default_rng(0)
    active = np.ones_like(addr, dtype=bool)
    tx1, _, _ = transactions_per_row(addr, active)
    perm = rng.permutation(addr.shape[1])
    tx2, _, _ = transactions_per_row(addr[:, perm], active)
    np.testing.assert_array_equal(np.sort(tx1), np.sort(tx2))


@given(addr_arrays)
@settings(max_examples=50, deadline=None)
def test_bank_conflict_bounds(addr):
    active = np.ones_like(addr, dtype=bool)
    factor = bank_conflict_factor(addr, active)
    assert np.all(factor >= 1)
    assert np.all(factor <= addr.shape[1])


def summed_per_row(addr, active, transaction_bytes, access_bytes):
    """``(requested, fetched, transactions, accesses)`` from the per-row
    kernels: coalesced global reads, then shared reads."""
    tx, sectors, req = transactions_per_row(addr, active, transaction_bytes, access_bytes)
    coalesced = (int(req.sum()), int(sectors.sum()) * 32, int(tx.sum()), int(active.sum()))
    factor = bank_conflict_factor(addr, active)
    per_row = active.sum(axis=1).astype(np.int64) * access_bytes
    shared = (
        int(per_row.sum()),
        int((per_row * np.maximum(factor, 1)).sum()),
        int(factor.sum()),
        int(active.sum()),
    )
    return coalesced, shared


@given(
    st.data(),
    st.integers(1, 8),
    st.integers(4, 16),
    st.sampled_from([0, int(SAMPLE_BASE)]),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_counts_only_kernels_equal_summed_per_row(data, rows, access_bytes, base, wide):
    # Offsets above the base: within int32 unless ``wide``, where one
    # active lane lands beyond it and the int64 fallback must be taken.
    offsets = data.draw(
        arrays(np.int64, (rows, 32), elements=st.integers(0, (1 << 20) - 1))
    )
    active = data.draw(arrays(bool, (rows, 32), elements=st.booleans()))
    dead_rows = data.draw(arrays(bool, (rows,), elements=st.booleans()))
    active[dead_rows] = False
    if wide:
        r, lane = data.draw(st.tuples(st.integers(0, rows - 1), st.integers(0, 31)))
        active[r, lane] = True
        offsets[r, lane] = data.draw(st.integers(1 << 31, 1 << 42))
    # Inactive lanes hold -1, as the traversal's node lanes may.
    global_addr = np.where(active, base + offsets, -1)
    shared_addr = np.where(active, offsets, -1)
    want_coalesced, _ = summed_per_row(global_addr, active, 128, access_bytes)
    _, want_shared = summed_per_row(shared_addr, active, 128, access_bytes)
    with mock.patch.object(
        memory, "transactions_per_row", wraps=memory.transactions_per_row
    ) as tx_fallback, mock.patch.object(
        memory, "bank_conflict_factor", wraps=memory.bank_conflict_factor
    ) as bank_fallback:
        got_coalesced = coalesced_totals(global_addr, active, 128, access_bytes, base=base)
        got_shared = bank_conflict_totals(shared_addr, active, access_bytes)
    assert got_coalesced == want_coalesced
    assert got_shared == want_shared
    # In-range inputs stay on the int32 path (so the -1 lanes were masked
    # and the base subtracted); out-of-range ones take the fallback.
    assert tx_fallback.called == wide
    assert bank_fallback.called == wide


def test_counts_only_kernels_all_inactive_and_empty():
    addr = np.full((3, 32), -1, dtype=np.int64)
    active = np.zeros((3, 32), dtype=bool)
    assert coalesced_totals(addr, active, base=int(SAMPLE_BASE)) == (0, 0, 0, 0)
    assert bank_conflict_totals(addr, active) == (0, 0, 0, 0)
    empty = np.zeros((0, 32), dtype=np.int64)
    assert coalesced_totals(empty, empty.astype(bool)) == (0, 0, 0, 0)
    assert bank_conflict_totals(empty, empty.astype(bool)) == (0, 0, 0, 0)


@given(st.lists(st.integers(0, 255), max_size=64))
@settings(max_examples=60, deadline=None)
def test_rabin_karp_deterministic_and_bounded(symbols):
    a = rabin_karp(symbols)
    b = rabin_karp(list(symbols))
    assert a == b
    assert 0 <= a < 2_147_483_647


@given(st.binary(min_size=0, max_size=64), st.integers(1, 512))
@settings(max_examples=60, deadline=None)
def test_token_bits_shape_and_determinism(content, l_hash):
    bits = token_bits(content, l_hash)
    assert bits.shape == (l_hash,)
    assert set(np.unique(bits)) <= {0, 1}
    np.testing.assert_array_equal(bits, token_bits(content, l_hash))
