"""Suffix array / inverse / LCP construction and cyclic rotation ranking.

Both orders come from one numpy prefix-doubling kernel (O(n log n)); the
suffix order of w is the rotation order of w$.  The kernel packs two ids
into one int64 key by shifts and sorts only to turn the keys back into
dense ids, as narrow as the number of distinct reads allows, and it
outputs the last sort's order.  On one cycle (w$, or w alone) it reads
the key 2^j positions on by shifting the key.  It stops after a sort
once every read is distinct; once the sort finds as many groups as its
phase began with, as groups only split, so no doubling split one and
none ever will; or once it read n symbols, n the total length of the
cycles.  Two rotations of one cycle that agree on its length are equal,
and rotations of two cycles, whose lengths sum to at most n, that agree
on n symbols agree forever (Fine and Wilf).  No caller bounds the reads.

The LCP array is read off the same kernel's rounds, as Manber & Myers
(SIAM J. Comput. 1993) do: each round's ids tell which 2^j-symbol
prefixes are equal, so a binary lift over them gives every adjacent LCP
at once, with no walk over the text; a context built without `lcp`
keeps no round's ids and runs no lift.  Ranks are int32, so a text holds
fewer than 2^31 symbols.  Both orders start from the text's cached
`Text.dense_ranks`; `cyclic_rotation_order` returns the int64 order,
while a SuffixContext keeps int32 arrays as `array('i')`, which numpy
reads in place.

Positions are 0-based throughout: sa[i] is the start of the (i+1)-th
smallest suffix and isa[p] the rank of the suffix at p, both read straight
off the kernel's arrays.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .text import Text


PARTS = frozenset({"sa", "isa", "lcp"})


@dataclass(frozen=True)
class SuffixContext:
    """Suffix array, inverse suffix array and LCP array of one text, the
    suffix sort's int32 data as `array('i')`: 12 bytes per symbol, or None
    where a build left `isa` or `lcp` out.  Two contexts are equal iff their
    arrays are; like them, none is hashable.

    Invariants: isa[sa[i]] == i; lcp[0] == 0; lcp[i] is the length
    of the longest common prefix of the suffixes starting at sa[i-1]
    and sa[i].

    Memory: a build with `lcp` keeps one int32 id array per doubling round
    until the LCP is read, O(n log L) words for the longest LCP L; only the
    keys of more than 31 bits that go into a sort are int64.
    """

    sa: array
    isa: array | None
    lcp: array | None

    def __len__(self) -> int:
        return len(self.sa)


def _dense_ranks(key: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """int32 ranks 0, 1, ... of the keys in sorted order (equal keys share
    a rank), the number of distinct keys, and the int64 order of the
    positions by key.  While the keys leave s = bit_length(n - 1) bits free,
    one in-place value sort of key << s | position gives both, equal keys
    by position; an argsort of wider keys orders equal keys anyhow."""
    n = len(key)
    s = (n - 1).bit_length()
    if int(key.max()) >> (63 - s) == 0:
        sk = key.astype(np.int64)
        sk <<= s
        sk |= np.arange(n)
        sk.sort()
        order = sk & ((1 << s) - 1)
        sk >>= s
    else:
        order = np.argsort(key)
        sk = key[order]
    csum = np.zeros(n, dtype=np.int32)
    np.cumsum(sk[1:] != sk[:-1], out=csum[1:])
    rank = np.empty_like(csum)
    rank[order] = csum
    return rank, int(csum[-1]) + 1, order


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def _doubling_rounds(rank: np.ndarray, succ: np.ndarray | None) -> Iterator[np.ndarray]:
    """Prefix doubling over the symbol ranks `rank` along `succ`, a
    successor permutation, or None for one cycle (i steps to i + 1, the
    last to 0), which is read by shifting the key instead.

    Yields the ids of round j = 0, 1, ... before each doubling: two
    positions get equal ids exactly when they read the same 2^j symbols.
    Keys of at most 31 bits, which include every yielded one, are int32.
    Yields last the int64 order of the positions by their reads, equal
    reads by position.  A round packs two keys into one by shifts, with no
    sort, while they fit in 62 bits and fewer than n symbols were read;
    then a sort turns the keys into G dense ids, bit_length(G - 1) bits
    wide, and the packing goes on at that width.  So a sort buys three
    doublings or more while G <= 2^7, two while G <= 2^15 and one
    otherwise, as G <= n < 2^31; Manber & Myers (SIAM J. Comput. 1993) sort
    in every round.  It stops after the sort that makes every read
    distinct, finds no more groups than its phase began with, or ends a
    read of n symbols; the module docstring says why that is sound.
    """
    n = len(rank)
    groups, k = int(rank.max()) + 1, 1
    while True:
        key, width, before = rank, max(1, (groups - 1).bit_length()), groups
        while k < n and 2 * width <= 62:
            yield key
            packed = key.astype(np.int64 if 2 * width > 31 else key.dtype)
            packed <<= width
            if succ is None:
                packed[:n - k] |= key[k:]
                packed[n - k:] |= key[:k]
            else:
                packed |= key[succ]
                succ = succ[succ]
            key, k, width = packed, 2 * k, 2 * width
        rank, groups, order = _dense_ranks(key)
        if groups in (n, before) or k >= n:
            break
    if groups < n:
        order = np.argsort(rank, kind="stable")
    yield order


def _suffix_sort(ranks: np.ndarray, with_lcp: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Suffix array and, if `with_lcp`, LCP array; a shorter suffix precedes
    a longer one it prefixes.  This is the rotation order of w$, `$` being a
    unique smallest symbol, so it orders the cycle of w$ and drops the `$`.

    The LCP comes from the rounds' ids (Manber & Myers): the final round
    makes every 2^J-symbol read distinct, so each adjacent pair has LCP
    < 2^J.  The pair's read positions a and b start at its two suffixes
    and both move on by 2^j wherever round j's ids at a and b agree, from
    j = J - 1 down; the LCP is how far they moved.  Equal reads cannot
    hold the unique `$`, so a and b never pass it.
    """
    n = len(ranks)
    # the cycle w$: `$` is rank 0 at position n, which wraps to 0
    cycle = np.append(ranks + 1, np.int32(0))
    if not with_lcp:
        for order in _doubling_rounds(cycle, None):
            pass
        return order[1:].astype(np.int32), None
    levels = list(_doubling_rounds(cycle, None))
    sa = levels.pop()[1:].astype(np.int32)
    a, b = sa[:-1].astype(np.int64), sa[1:].astype(np.int64)
    while levels:
        ids = levels.pop()
        step = (ids[a] == ids[b]) << len(levels)
        a += step
        b += step
    lcp = np.zeros(n, dtype=np.int32)
    lcp[1:] = a - sa[:-1]
    return sa, lcp


def build_suffix_context(w: Text, parts: frozenset[str] = PARTS) -> SuffixContext:
    """w's suffix context with `sa`, the sort's output, and the arrays of `parts`."""
    if len(w) == 0:
        raise ValueError("suffix structures require a non-empty text")
    sa, lcp = _suffix_sort(w.dense_ranks, "lcp" in parts)
    isa = _inverse(sa) if "isa" in parts else None
    return SuffixContext(*(None if x is None else array("i", x.tobytes()) for x in (sa, isa, lcp)))


def context_for(w: Text, ctx: SuffixContext | None) -> SuffixContext:
    """w's suffix context: `ctx`, refused if of another length, or built if None."""
    if ctx is None:
        return build_suffix_context(w)
    if len(ctx) != len(w):
        raise ValueError(f"a suffix context of {len(ctx)} suffixes for a text of length {len(w)}")
    return ctx


def cyclic_rotation_order(w: Text, starts: Sequence[int] = (0,)) -> np.ndarray:
    """Start positions of the rotations of the cycles of w, in
    non-decreasing lexicographic order of their infinite periodic strings,
    as an int64 array.

    The cycles are the factors of w that begin at the positions in `starts`
    (default: w itself, one cycle).  Each position is ranked by
    prefix doubling over the successor permutation that steps to the next
    position and wraps from a cycle's last position to its first; no
    sentinel is ever appended.  The kernel stops once its reads decide the
    order.  Equal rotations are tie-broken by start position.
    """
    if len(w) == 0:
        raise ValueError("the empty text has no rotations")
    n = len(w)
    if (len(starts) == 0 or starts[0] != 0 or starts[-1] >= n
            or not all(map(operator.lt, starts, starts[1:]))):
        raise ValueError(f"cycle starts must begin at 0 and increase strictly within [0, {n})")
    succ = None
    if len(starts) > 1:
        succ = np.arange(1, n + 1, dtype=np.int64)
        succ[np.asarray((*starts[1:], n), dtype=np.int64) - 1] = starts
    for order in _doubling_rounds(w.dense_ranks, succ):
        pass
    return order
