"""Suffix array / inverse / LCP construction and cyclic rotation ranking.

Both orders come from one numpy prefix-doubling kernel (O(n log n)); the
suffix order of w is the rotation order of w$.

Arrays use 1-based position values (sa[i] is the 1-based start of the
(i+1)-th smallest suffix) stored in ordinary 0-indexed tuples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .text import Text


@dataclass(frozen=True)
class SuffixContext:
    """Suffix array, inverse suffix array and LCP array of one text.

    Invariants: isa[sa[i]-1] == i+1; lcp[0] == 0; lcp[i] is the length
    of the longest common prefix of the suffixes starting at sa[i-1]
    and sa[i].
    """

    sa: tuple[int, ...]
    isa: tuple[int, ...]
    lcp: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.sa)

    @functools.cached_property
    def matcher(self):
        """The LZ longest-match structure over these arrays, built on first
        use and kept for the life of the context; every LZ parser of the
        text reads it, so it is built once per text."""
        from . import lz    # lz imports this module
        return lz._SuffixMatcher(self)


def _initial_ranks(symbols: tuple[int, ...]) -> np.ndarray:
    a = np.asarray(symbols, dtype=np.int64)
    return np.unique(a, return_inverse=True)[1].astype(np.int64)


def _dense_ranks(key: np.ndarray) -> tuple[np.ndarray, bool]:
    """Ranks 0, 1, ... of the keys in sorted order (equal keys share a
    rank), and whether they are all distinct."""
    order = np.argsort(key)
    sk = key[order]
    csum = np.zeros(len(key), dtype=np.int64)
    np.cumsum(sk[1:] != sk[:-1], out=csum[1:])
    rank = np.empty_like(csum)
    rank[order] = csum
    return rank, int(csum[-1]) == len(key) - 1


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def _doubling_ranks(rank: np.ndarray, succ: np.ndarray, limit: int) -> np.ndarray:
    """Ranks 0..n-1 of the positions by the symbols they reach along `succ`.

    `rank` holds non-negative symbol ranks and `succ` a successor
    permutation; position i reads rank[i], rank[succ[i]], ...  Prefix
    doubling compares 2^j symbols after round j and stops once the ranks
    are distinct or at least `limit` symbols were compared; positions
    still equal then are ranked by position.  While two k-symbol keys fit
    in 62 bits, the first rounds pack them into one int64 by shifts, with
    no sort; each later round sorts the single key rank * n + rank[succ]
    (Manber & Myers, SIAM J. Comput. 1993).
    """
    n = len(rank)
    bits = max(1, int(rank.max()).bit_length())
    key, k = rank, 1
    while k < limit and 2 * k * bits <= 62:
        key = (key << (k * bits)) | key[succ]
        succ = succ[succ]
        k *= 2
    rank, distinct = _dense_ranks(key)
    while not distinct and k < limit:
        rank, distinct = _dense_ranks(rank * n + rank[succ])
        succ = succ[succ]
        k *= 2
    if not distinct:
        rank, _ = _dense_ranks(rank * n + np.arange(n))
    return rank


def _suffix_sort(symbols: tuple[int, ...]) -> np.ndarray:
    """0-based suffix array; a shorter suffix precedes a longer one it
    prefixes.  This is the rotation order of w$, `$` being a unique
    smallest symbol, so it ranks the cycle of w$ and drops the `$`."""
    n = len(symbols)
    rank = np.append(_initial_ranks(symbols) + 1, 0)
    succ = np.arange(1, n + 2, dtype=np.int64)
    succ[n] = 0
    return _inverse(_doubling_ranks(rank, succ, n + 1))[1:]


def _kasai_lcp(symbols: tuple[int, ...], sa0: np.ndarray, isa0: np.ndarray) -> list[int]:
    n = len(symbols)
    lcp = [0] * n
    sa_list = sa0.tolist()
    isa_list = isa0.tolist()
    k = 0
    for i in range(n):
        r = isa_list[i]
        if r == 0:
            k = 0
            continue
        j = sa_list[r - 1]
        while i + k < n and j + k < n and symbols[i + k] == symbols[j + k]:
            k += 1
        lcp[r] = k
        if k:
            k -= 1
    return lcp


def build_suffix_context(w: Text) -> SuffixContext:
    if len(w) == 0:
        raise ValueError("suffix structures require a non-empty text")
    sa0 = _suffix_sort(w.symbols)
    isa0 = _inverse(sa0)
    lcp = _kasai_lcp(w.symbols, sa0, isa0)
    return SuffixContext(tuple((sa0 + 1).tolist()), tuple((isa0 + 1).tolist()), tuple(lcp))


def cyclic_rotation_order(w: Text, starts: Sequence[int] = (1,)) -> tuple[int, ...]:
    """Start positions (1-based) of the rotations of the cycles of w, in
    non-decreasing lexicographic order of their infinite periodic strings.

    The cycles are the factors of w that begin at the 1-based positions in
    `starts` (default: w itself, one cycle).  Each position is ranked by
    prefix doubling over the successor permutation that steps to the next
    position and wraps from a cycle's last position to its first; no
    sentinel is ever appended.  Rotations x, y that agree on |x|+|y|
    symbols agree forever (Fine and Wilf), so 2*(longest cycle) symbols
    decide the order.  Equal rotations are tie-broken by start position.
    """
    if len(w) == 0:
        raise ValueError("the empty text has no rotations")
    n = len(w)
    first = np.asarray(starts, dtype=np.int64) - 1
    if len(first) == 0 or first[0] != 0 or first[-1] >= n or np.any(np.diff(first) <= 0):
        raise ValueError(f"cycle starts must begin at 1 and increase strictly within [1, {n}]")
    ends = np.append(first[1:], n)
    succ = np.arange(1, n + 1, dtype=np.int64)
    succ[ends - 1] = first
    longest = int((ends - first).max())
    order = _inverse(_doubling_ranks(_initial_ranks(w.symbols), succ, 2 * longest))
    return tuple((order + 1).tolist())
