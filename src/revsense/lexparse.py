"""The lexicographic parse and its size measure v.

Phrases are produced left to right; the phrase starting at position i
has length max(1, LCP[ISA[i]]) -- the longest common prefix of the
suffix at i with its lexicographic predecessor suffix.  The source of
a non-literal phrase is that predecessor's start, which may lie to
either side of the phrase.  The phrase loop is the LZ parsers' greedy
loop; the rule reads only the suffix, inverse and LCP arrays, so no
longest-match structure is built.  Given a context without the LCP array,
as a v-only report builds to skip the LCP lift, it measures each phrase's
LCP on the text instead: the phrases tile it, so those comparisons read
O(n) symbols in all.
"""

from __future__ import annotations

import functools

from .lz import Parsing, _greedy_parse
from .suffixes import SuffixContext
from .text import Text


def _common_prefix(s: tuple[int, ...], buf: bytes, i: int, j: int) -> int:
    """The LCP of the suffixes at i and j of the text with symbols `s`,
    whose ranks `buf` holds as int32 bytes, 4 per symbol.  Up to 8 symbols
    are compared one by one; past them, chunks of 8, 16, 32, ... symbols are
    compared as bytes, in C, and in the first chunk that differs the top
    bit of the XOR of its two sides, read as big-endian ints, is in the
    first byte that differs.  So an LCP of l reads O(l) symbols."""
    cap, ell = len(s) - max(i, j), 0
    while ell < 8:
        if ell == cap or s[i + ell] != s[j + ell]:
            return ell
        ell += 1
    k = 8
    while ell < cap:
        hi = min(ell + k, cap)
        a, b = buf[4 * (i + ell):4 * (i + hi)], buf[4 * (j + ell):4 * (j + hi)]
        if a != b:
            diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
            return ell + (len(a) - (diff.bit_length() + 7) // 8) // 4
        ell, k = hi, 2 * k
    return cap


def _lex_rule(w: Text, ctx: SuffixContext):
    sa, isa, lcp = ctx.sa, ctx.isa, ctx.lcp
    if lcp is None:
        s, buf = w.symbols, w.dense_ranks.tobytes()

        def measured_match(i0: int) -> tuple[int, int | None]:
            r = isa[i0]
            return (ell, sa[r - 1]) if r and (ell := _common_prefix(s, buf, sa[r - 1], i0)) else (0, None)

        return measured_match

    def longest_match(i0: int) -> tuple[int, int | None]:
        r = isa[i0]
        return (ell, sa[r - 1]) if (ell := lcp[r]) else (0, None)

    return longest_match


def lex_parse(w: Text, ctx: SuffixContext | None = None) -> Parsing:
    return _greedy_parse(w, ctx, functools.partial(_lex_rule, w), "lex")
