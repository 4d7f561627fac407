"""Suffix array / inverse / LCP construction and cyclic rotation ranking.

The efficient constructions are prefix-doubling over numpy lexsorts
(O(n log n)); naive twins that sort materialized suffixes/rotations by
direct comparison are kept alongside for differential testing.

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


def _refine(rank: np.ndarray, key2: np.ndarray) -> tuple[np.ndarray, bool]:
    """One doubling round: re-rank by (rank, key2) pairs."""
    n = len(rank)
    order = np.lexsort((key2, rank))
    r1, r2 = rank[order], key2[order]
    changed = np.empty(n, dtype=np.int64)
    changed[0] = 0
    changed[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
    csum = np.cumsum(changed)
    new_rank = np.empty(n, dtype=np.int64)
    new_rank[order] = csum
    return new_rank, int(csum[-1]) == n - 1


def _suffix_sort(symbols: tuple[int, ...]) -> np.ndarray:
    """0-based suffix array by prefix doubling; shorter suffix wins ties."""
    n = len(symbols)
    rank = _initial_ranks(symbols)
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        rank, distinct = _refine(rank, key2)
        if distinct:
            break
        k *= 2
    sa = np.empty(n, dtype=np.int64)
    sa[rank] = np.arange(n)
    return sa


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
    isa0 = np.empty(len(w), dtype=np.int64)
    isa0[sa0] = np.arange(len(w))
    lcp = _kasai_lcp(w.symbols, sa0, isa0)
    return SuffixContext(
        sa=tuple(int(p) + 1 for p in sa0),
        isa=tuple(int(r) + 1 for r in isa0),
        lcp=tuple(lcp),
    )


def naive_suffix_context(w: Text) -> SuffixContext:
    """Oracle twin: sort materialized suffixes, LCP by direct scan."""
    if len(w) == 0:
        raise ValueError("suffix structures require a non-empty text")
    s = w.symbols
    n = len(s)
    sa = sorted(range(1, n + 1), key=lambda i: s[i - 1:])
    isa = [0] * n
    for r, p in enumerate(sa, start=1):
        isa[p - 1] = r
    lcp = [0] * n
    for r in range(1, n):
        a, b = s[sa[r - 1] - 1:], s[sa[r] - 1:]
        m = 0
        while m < len(a) and m < len(b) and a[m] == b[m]:
            m += 1
        lcp[r] = m
    return SuffixContext(tuple(sa), tuple(isa), tuple(lcp))


def cyclic_rotation_order(w: Text, starts: Sequence[int] = (1,)) -> tuple[int, ...]:
    """Start positions (1-based) of the rotations of the cycles of w, in
    non-decreasing lexicographic order of their infinite periodic strings.

    The cycles are the factors of w that begin at the 1-based positions in
    `starts` (default: w itself, one cycle).  Each position is ranked by
    prefix doubling over the successor permutation that steps to the next
    position and wraps from a cycle's last position to its first; no
    sentinel is ever appended.  Rotations x, y that agree on |x|+|y|
    symbols agree forever (Fine and Wilf, as in omega_compare), so
    2*(longest cycle) symbols decide the order.  Equal rotations are
    tie-broken by start position.
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
    rank = _initial_ranks(w.symbols)
    k = 1
    while k < 2 * longest:
        rank, distinct = _refine(rank, rank[succ])
        if distinct:
            break
        succ = succ[succ]
        k *= 2
    order = np.argsort(rank, kind="stable")
    return tuple(int(p) + 1 for p in order)


def naive_cyclic_rotation_order(w: Text) -> tuple[int, ...]:
    """Oracle twin: materialize and sort all rotations."""
    if len(w) == 0:
        raise ValueError("the empty text has no rotations")
    s = w.symbols
    n = len(s)
    return tuple(sorted(range(1, n + 1), key=lambda i: (s[i - 1:] + s[:i - 1], i)))
