"""The lexicographic parse and its size measure v.

Phrases are produced left to right; the phrase starting at position i
has length max(1, LCP[ISA[i]]) -- the longest common prefix of the
suffix at i with its lexicographic predecessor suffix.  The source of
a non-literal phrase is that predecessor's start, which may lie to
either side of the phrase.
"""

from __future__ import annotations

from .lz import Parsing, Phrase
from .suffixes import SuffixContext, build_suffix_context
from .text import Text


def lex_parse(w: Text, ctx: SuffixContext | None = None) -> Parsing:
    if len(w) == 0:
        raise ValueError("cannot parse the empty text")
    if ctx is None:
        ctx = build_suffix_context(w)
    sa, isa, lcp = ctx.sa, ctx.isa, ctx.lcp
    n = len(w)
    phrases: list[Phrase] = []
    i = 0
    while i < n:
        r = isa[i]
        ell = lcp[r]
        if ell >= 1:
            phrases.append(Phrase(i + 1, ell, sa[r - 1] + 1))
            i += ell
        else:
            phrases.append(Phrase(i + 1, 1, None))
            i += 1
    return Parsing(tuple(phrases), "lex")
