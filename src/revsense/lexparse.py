"""The lexicographic parse and its size measure v.

Phrases are produced left to right; the phrase starting at position i
has length max(1, LCP[ISA[i]]) -- the longest common prefix of the
suffix at i with its lexicographic predecessor suffix.  The source of
a non-literal phrase is that predecessor's start, which may lie to
either side of the phrase.  The phrase loop is the LZ parsers' greedy
loop; the rule reads only the suffix, inverse and LCP arrays, so no
longest-match structure is built.
"""

from __future__ import annotations

from .lz import Parsing, _greedy_parse
from .suffixes import SuffixContext
from .text import Text


def _lex_rule(ctx: SuffixContext):
    sa, isa, lcp = ctx.sa, ctx.isa, ctx.lcp

    def longest_match(i0: int) -> tuple[int, int | None]:
        r = isa[i0]
        return (ell, sa[r - 1]) if (ell := lcp[r]) else (0, None)

    return longest_match


def lex_parse(w: Text, ctx: SuffixContext | None = None) -> Parsing:
    return _greedy_parse(w, ctx, _lex_rule, "lex")
