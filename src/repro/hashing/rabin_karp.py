"""Rabin–Karp rolling hash.

The paper applies "a locality sensitive hashing (particularly the
Rabin–Karp hashing)" to each chunk of the normalised SimHash checksum.
Equal chunks hash equal (a collision signals similarity); the polynomial
accumulation makes the hash cheap to compute over the 0/1 chunk symbols.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["rabin_karp", "rabin_karp_rolling", "rabin_karp_rows"]

#: Default polynomial base and modulus (a large prime below 2^31 keeps the
#: arithmetic exact in int64).
DEFAULT_BASE = 257
DEFAULT_MODULUS = 2_147_483_647


def rabin_karp(
    symbols: Sequence[int] | np.ndarray,
    base: int = DEFAULT_BASE,
    modulus: int = DEFAULT_MODULUS,
) -> int:
    """Hash a symbol sequence: ``sum(s_i * base^(n-1-i)) mod modulus``.

    Symbols are shifted by one so a leading 0 is significant (``[0, 1]``
    and ``[1]`` hash differently).
    """
    h = 0
    for s in symbols:
        h = (h * base + int(s) + 1) % modulus
    return h


def rabin_karp_rows(symbols: np.ndarray) -> np.ndarray:
    """:func:`rabin_karp` (default polynomial) of every row of ``symbols``.

    Hashes the last axis of an integer array in int64, one symbol column
    at a time.  Exact for symbols below ``2**22`` (such as the 0/1 chunk
    symbols): every intermediate then stays below ``2**63``.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    h = np.zeros(symbols.shape[:-1], dtype=np.int64)
    for column in np.moveaxis(symbols, -1, 0):
        h = (h * DEFAULT_BASE + column + 1) % DEFAULT_MODULUS
    return h


def rabin_karp_rolling(
    symbols: Sequence[int] | np.ndarray,
    window: int,
    base: int = DEFAULT_BASE,
    modulus: int = DEFAULT_MODULUS,
) -> Iterable[int]:
    """Yield the hash of every length-``window`` substring, reusing the
    previous window's hash (the classic rolling update).

    Provided for completeness / tests; the LSH step hashes disjoint chunks
    and uses :func:`rabin_karp` directly.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    n = len(symbols)
    if n < window:
        return
    top = pow(base, window - 1, modulus)
    h = rabin_karp(symbols[:window], base, modulus)
    yield h
    for i in range(window, n):
        outgoing = int(symbols[i - window]) + 1
        incoming = int(symbols[i]) + 1
        h = ((h - outgoing * top) * base + incoming) % modulus
        yield h
