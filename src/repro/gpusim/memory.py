"""Global-memory coalescing and shared-memory bank-conflict models.

Global memory: a warp's lane addresses are grouped into transactions of
``transaction_bytes`` (128 B, the size the paper's motivating example
uses), and each transaction moves only the 32-byte *sectors* its lanes
actually touch — the granularity of NVIDIA's memory system.  Distinct
128-byte segments cost one transaction each; fetched bytes = touched
sectors x 32; requested bytes = active lanes x access size.  A fully
random 4-byte access pattern therefore floors at 4/32 = 12.5 % load
efficiency — matching the ~13.7 % the paper measures with NVProf at the
deep tree levels (section 3).

Shared memory: 32 banks of 4 bytes.  Lanes hitting the same bank at
different 4-byte words serialise; the per-access cost multiplier is the
maximum bank multiplicity of the warp access.

These kernels are the simulator's innermost loop — every strategy, the
COA probe and the selector funnel all of their accounting through them —
so they are written around a single 1-D sort per call:

* :func:`transactions_per_row` sorts the masked *addresses* once and
  derives both granule sizes (128 B transactions, 32 B sectors) from the
  same sorted array (floor division is monotonic, so sorted addresses
  yield sorted granule indices).
* :func:`bank_conflict_factor` packs each active ``(row, word)`` pair
  into one int64 key, deduplicates with a single 1-D sort, and reduces
  per-``(row, bank)`` multiplicities with ``np.bincount`` — replacing a
  lexicographic ``np.unique(axis=0)`` over (row, bank, word) triples
  that cost three sorts and dominated the simulator's profile.

The trace engine reads only the totals of a flush, so it calls the
counts-only kernels instead:

* :func:`coalesced_totals` and :func:`bank_conflict_totals` drop warp
  rows with no active lane, shift addresses by an aligned ``base`` so the
  rest fits in int32, sort each 32-lane row in int32 and return the
  ``(requested, fetched, transactions, accesses)`` totals without
  building per-row arrays the caller would only sum.  The bank-conflict
  kernel deduplicates words inside each sorted row and counts distinct
  words per ``(row, bank)`` with one ``np.bincount``.  A range that does
  not fit in int32 falls back to the per-row kernels above.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "transactions_per_row",
    "coalesced_transactions",
    "adjacent_lane_distances",
    "bank_conflict_factor",
    "coalesced_totals",
    "bank_conflict_totals",
]

_SENTINEL = np.int64(np.iinfo(np.int64).max)


SECTOR_BYTES = 32


def _distinct_granules(
    addr_sorted: np.ndarray,
    first_active: np.ndarray,
    granule_bytes: int,
) -> np.ndarray:
    """Distinct start granules per row, from row-sorted masked addresses.

    ``addr_sorted`` has inactive lanes pushed to the right as
    ``_SENTINEL``; dividing keeps it sorted, so distinct granules are
    counted from adjacent differences without re-sorting per granule
    size.
    """
    start_sorted = addr_sorted // granule_bytes
    sentinel = _SENTINEL // granule_bytes
    fresh = (np.diff(start_sorted, axis=1) > 0) & (start_sorted[:, 1:] != sentinel)
    return first_active.astype(np.int64) + fresh.sum(axis=1)


def transactions_per_row(
    addresses: np.ndarray,
    active: np.ndarray,
    transaction_bytes: int = 128,
    access_bytes: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row transaction and sector counts for a batch of warp accesses.

    Args:
        addresses: int64 array (rows, lanes); each row is one warp access
            (all lanes executing the same load instruction).
        active: boolean mask (rows, lanes); inactive lanes issue nothing.
        transaction_bytes: memory transaction size (coalescing window).
        access_bytes: bytes requested per lane.  Accesses that straddle a
            granule boundary count the extra granule.

    Returns:
        ``(transactions, sectors, requested)`` — int64 arrays of shape
        (rows,).  Fetched bytes are ``sectors * 32`` (the memory system
        moves 32-byte sectors, not whole 128-byte lines).
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    active = np.asarray(active, dtype=bool)
    addr_sorted = np.sort(np.where(active, addresses, _SENTINEL), axis=1)
    first_active = addr_sorted[:, 0] != _SENTINEL
    # Straddling accesses contribute their extra granules independently
    # of lane order; computed from the unsorted arrays so the sentinel
    # never enters the ``+ access_bytes - 1`` arithmetic.
    last = addresses + (access_bytes - 1)
    tx = _distinct_granules(addr_sorted, first_active, transaction_bytes)
    tx += np.where(
        active, last // transaction_bytes - addresses // transaction_bytes, 0
    ).sum(axis=1)
    sectors = _distinct_granules(addr_sorted, first_active, SECTOR_BYTES)
    sectors += np.where(
        active, last // SECTOR_BYTES - addresses // SECTOR_BYTES, 0
    ).sum(axis=1)
    requested = active.sum(axis=1).astype(np.int64) * access_bytes
    return tx, sectors, requested


def coalesced_transactions(
    addresses: np.ndarray,
    active: np.ndarray | None = None,
    transaction_bytes: int = 128,
    access_bytes: int = 4,
) -> tuple[int, int, int]:
    """Total ``(transactions, fetched_bytes, requested_bytes)`` over a
    batch of warp rows."""
    addresses = np.atleast_2d(np.asarray(addresses, dtype=np.int64))
    if active is None:
        active = np.ones_like(addresses, dtype=bool)
    active = np.atleast_2d(np.asarray(active, dtype=bool))
    requested, fetched, tx, _ = coalesced_totals(
        addresses, active, transaction_bytes, access_bytes
    )
    return tx, fetched, requested


def adjacent_lane_distances(
    addresses: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Byte distance between addresses of adjacent active lanes.

    Reproduces figure 2(a)'s metric: for each warp row, the |difference|
    of addresses issued by lanes ``i`` and ``i+1`` when both are active.

    Returns:
        ``(distance_sum, pair_count)`` per row.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    active = np.asarray(active, dtype=bool)
    both = active[:, 1:] & active[:, :-1]
    diffs = np.abs(addresses[:, 1:] - addresses[:, :-1])
    distance_sum = np.where(both, diffs, 0).sum(axis=1).astype(np.float64)
    pair_count = both.sum(axis=1).astype(np.int64)
    return distance_sum, pair_count


def bank_conflict_factor(
    addresses: np.ndarray,
    active: np.ndarray,
    n_banks: int = 32,
    bank_width: int = 4,
) -> np.ndarray:
    """Per-row shared-memory serialisation factor.

    The factor is the maximum number of active lanes whose addresses map
    to the same bank but different 4-byte words (same-word accesses
    broadcast for free).  A conflict-free access has factor 1; rows with
    no active lane get factor 0.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    active = np.asarray(active, dtype=bool)
    rows = addresses.shape[0]
    factor = np.zeros(rows, dtype=np.int64)
    r_idx, l_idx = np.nonzero(active)
    if r_idx.size == 0:
        return factor
    words = addresses[r_idx, l_idx] // bank_width
    # The bank is derived from the word (bank = word % n_banks), so the
    # distinct (row, bank, word) triples of the model are exactly the
    # distinct (row, word) pairs — packable into one int64 key.
    wmin = words.min()
    span = int(words.max() - wmin) + 1
    if span > int(np.iinfo(np.int64).max) // max(rows, 1):
        return _bank_conflict_factor_wide(
            factor, r_idx, words, rows, n_banks
        )
    keys = np.sort(r_idx * np.int64(span) + (words - wmin))
    distinct = np.empty(keys.shape[0], dtype=bool)
    distinct[0] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    urow = keys // span
    ubank = (keys - urow * span + wmin) % n_banks
    degree = np.bincount(urow * np.int64(n_banks) + ubank, minlength=rows * n_banks)
    return degree.reshape(rows, n_banks).max(axis=1)


def _bank_conflict_factor_wide(
    factor: np.ndarray,
    r_idx: np.ndarray,
    words: np.ndarray,
    rows: int,
    n_banks: int,
) -> np.ndarray:
    """Fallback when the (row, word) key range overflows int64 packing."""
    pairs = np.unique(np.stack([r_idx, words], axis=1), axis=0)
    row_bank = pairs[:, 0] * np.int64(n_banks) + pairs[:, 1] % n_banks
    uniq_rb, degree = np.unique(row_bank, return_counts=True)
    np.maximum.at(factor, uniq_rb // n_banks, degree)
    return factor


_I32_MAX = int(np.iinfo(np.int32).max)

# The shared-memory model of bank_conflict_totals: 32 banks (shift 5) of
# 4-byte words (shift 2).
_N_BANKS, _BANK_SHIFT = 32, 5
_BANK_WIDTH, _WIDTH_SHIFT = 4, 2


def _log2(n: int) -> int | None:
    """``log2(n)`` for a power of two, else ``None``."""
    return n.bit_length() - 1 if n > 0 and n & (n - 1) == 0 else None


def _int32_rows(
    addresses: np.ndarray, active: np.ndarray, base: int, margin: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows with an active lane as base-relative int32 addresses.

    Inactive lanes are masked to 0 *before* the range check (they may
    hold any value, e.g. ``-1``).  Returns ``None`` when an active
    address falls outside ``[0, INT32_MAX - margin]``, so the caller can
    take the int64 kernels instead.
    """
    live = active.any(axis=1)
    if not live.all():
        addresses = addresses[live]
        active = active[live]
    if addresses.shape[0] == 0:
        return np.zeros(active.shape, dtype=np.int32), active
    # Masks are applied arithmetically: np.where with an unpredictable
    # mask costs several times more per lane than a multiply.
    rel = (addresses - base) * active
    if rel.min() < 0 or rel.max() > _I32_MAX - margin:
        return None
    return rel.astype(np.int32), active


def _sorted_lanes(rel: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Each row's addresses sorted, inactive lanes last as INT32_MAX."""
    return np.sort(rel | ~active * np.int32(_I32_MAX), axis=1)


def coalesced_totals(
    addresses: np.ndarray,
    active: np.ndarray,
    transaction_bytes: int = 128,
    access_bytes: int = 4,
    base: int = 0,
) -> tuple[int, int, int, int]:
    """``(requested, fetched, transactions, accesses)`` summed over a
    batch of warp rows — the totals of :func:`transactions_per_row`.

    ``base`` is subtracted from every address first; it must be a
    multiple of ``transaction_bytes`` (and so of the sector size), which
    leaves every granule count unchanged.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    active = np.asarray(active, dtype=bool)
    accesses = int(np.count_nonzero(active))
    tx_shift = _log2(transaction_bytes)
    rows = None
    if tx_shift is not None and access_bytes <= SECTOR_BYTES <= transaction_bytes:
        rows = _int32_rows(addresses, active, base, transaction_bytes + access_bytes)
    if rows is None:
        tx, sectors, req = transactions_per_row(
            addresses, active, transaction_bytes, access_bytes
        )
        return int(req.sum()), int(sectors.sum()) * SECTOR_BYTES, int(tx.sum()), accesses
    rel, active = rows
    addr_sorted = _sorted_lanes(rel, active)
    # Every row's first lane is active and opens a granule; a later lane
    # opens one when its granule differs from its left neighbour's.  The
    # one step from a row's last active lane to its INT32_MAX padding is
    # not a granule, so rows with padding are subtracted once each.
    padded = np.count_nonzero(addr_sorted[:, -1] == _I32_MAX)
    counts = []
    for shift in (tx_shift, _log2(SECTOR_BYTES)):
        start = addr_sorted >> shift
        fresh = np.count_nonzero(start[:, 1:] != start[:, :-1]) - padded
        # access_bytes <= granule, so an access straddles at most one
        # boundary; masked lanes sit at 0 and never straddle.
        granule = 1 << shift
        straddle = np.count_nonzero((rel & (granule - 1)) > granule - access_bytes)
        counts.append(int(rel.shape[0] + fresh + straddle))
    return accesses * access_bytes, counts[1] * SECTOR_BYTES, counts[0], accesses


def bank_conflict_totals(
    addresses: np.ndarray,
    active: np.ndarray,
    access_bytes: int = 4,
) -> tuple[int, int, int, int]:
    """``(requested, fetched, transactions, accesses)`` of shared-memory
    reads summed over a batch of warp rows, on the 32-bank, 4-byte model.

    Per row, the conflict factor ``f`` of :func:`bank_conflict_factor`
    serialises the access into ``f`` replays: requested bytes are the
    row's active lanes times ``access_bytes``, fetched bytes that times
    ``max(f, 1)``, transactions ``f``.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    active = np.asarray(active, dtype=bool)
    accesses = int(np.count_nonzero(active))
    rows = None
    # (row, bank) keys are int32 too.
    if addresses.shape[0] << _BANK_SHIFT <= _I32_MAX:
        rows = _int32_rows(addresses, active, 0, _BANK_WIDTH)
    if rows is None:
        factor = bank_conflict_factor(addresses, active, _N_BANKS, _BANK_WIDTH)
        per_row = active.sum(axis=1).astype(np.int64) * access_bytes
        return (
            int(per_row.sum()),
            int((per_row * np.maximum(factor, 1)).sum()),
            int(factor.sum()),
            accesses,
        )
    rel, active = rows
    n_rows, lanes = rel.shape
    words = _sorted_lanes(rel, active) >> _WIDTH_SHIFT
    # A word counts once per row: at the first lane of each run of equal
    # sorted words (same-word lanes broadcast).  The first padding lane
    # of a row (at index = its active-lane count) starts a run too, and
    # is cleared.
    distinct = np.empty(words.shape, dtype=bool)
    distinct[:, 0] = True
    np.not_equal(words[:, 1:], words[:, :-1], out=distinct[:, 1:])
    n_active = np.count_nonzero(active, axis=1)
    padded = np.flatnonzero(n_active < lanes)
    distinct[padded, n_active[padded]] = False
    row_bank = (words & (_N_BANKS - 1)) | (
        np.arange(n_rows, dtype=np.int32)[:, None] << _BANK_SHIFT
    )
    degree = np.bincount(row_bank[distinct], minlength=n_rows * _N_BANKS)
    factor = degree.reshape(n_rows, _N_BANKS).max(axis=1)
    per_row = n_active.astype(np.int64) * access_bytes
    return int(per_row.sum()), int((per_row * factor).sum()), int(factor.sum()), accesses
