"""Substring complexity (delta) and CDAWG right-extension count (e).

delta(w) = max over k of |S_w(k)| / k, with S_w(k) the set of distinct
length-k substrings.  Returned as an exact Fraction, never a float, so
invariance checks and cross-family comparisons stay exact.

e(w) = |E_r(w)|, where E_r collects every substring xa whose stem x is
right-maximal: x (the empty string included) counts as right-maximal
iff at least two distinct symbols follow occurrences of x in w, or x
is a suffix of w.

The stems that have an extension are exactly the internal nodes of the
suffix tree of w$ (root included), and each extension xa is a child edge
of x other than its `$`-child (Blumer et al., "Complete inverted files
for efficient text retrieval and analysis", JACM 1987).  With m internal
nodes and n + 1 leaves there are m + n child edges, and 1 + L of them are
`$`-children: the root's, and one for each suffix of w that occurs at
least twice, L being the longest such suffix.  Hence

    e(w) = m + n - 1 - L.

Both m and L are read off the suffix and LCP arrays of w, as in the
enhanced-suffix-array reading of suffix-tree nodes as LCP intervals
(Abouelhoda, Kurtz & Ohlebusch, "Replacing suffix trees with enhanced
suffix arrays", JDA 2004).  Only the count is computed; the set E_r is
never enumerated, since it can hold Theta(n^2) symbols.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .suffixes import SuffixContext, context_for
from .text import Text


def _substring_counts(w: Text, ctx: SuffixContext | None) -> np.ndarray:
    """counts[k-1] = number of distinct length-k substrings, for k in [1, n]:
    (#suffixes of length >= k) - (#LCP entries >= k)."""
    if len(w) == 0:
        raise ValueError("substring counts require a non-empty text")
    lcp = np.frombuffer(context_for(w, ctx).lcp, np.int32)
    n = len(w)
    # geq[k] = number of LCP entries >= k
    geq = np.bincount(lcp, minlength=n + 1)[::-1].cumsum()[::-1]
    return np.arange(n, 0, -1) - geq[1:]     # n - k + 1 suffixes of length >= k


def substring_complexity(w: Text, ctx: SuffixContext | None = None) -> Fraction:
    """delta(w) = max_k c_k / k.  Float ratios pick the candidates within a
    relative 1e-9 of the maximum (counts are at most n, so a float ratio
    is off by far less); the exact maximum is taken over those alone."""
    counts = _substring_counts(w, ctx)
    ratio = counts / np.arange(1, len(counts) + 1)
    near = np.flatnonzero(ratio >= ratio.max() * (1 - 1e-9))
    return max(Fraction(int(counts[i]), int(i) + 1) for i in near)


def right_extension_count(w: Text, ctx: SuffixContext | None = None) -> int:
    """e(w) = m + n - 1 - L, read off the suffix and LCP arrays.

    The suffix sort puts a shorter suffix before a longer one it prefixes,
    so the suffix array of w is that of w$ without the lone `$` suffix and
    the LCP intervals of w are the internal nodes of the suffix tree of w$:
    a stack pass counts them.  The suffix at rank r occurs again iff it is
    a prefix of the suffix at rank r + 1; numpy checks every rank at once.
    """
    if len(w) == 0:
        raise ValueError("right extensions require a non-empty text")
    ctx = context_for(w, ctx)
    n = len(w)
    lcp = np.frombuffer(ctx.lcp, np.int32)[1:]
    repeated = lcp == n - np.frombuffer(ctx.sa, np.int32)[:-1]
    longest_repeated_suffix = int(lcp[repeated].max(initial=0))
    nodes = 1  # the root
    stack = [0]
    for v in ctx.lcp:
        while stack[-1] > v:
            stack.pop()
        if stack[-1] < v:
            stack.append(v)
            nodes += 1
    return nodes + n - 1 - longest_repeated_suffix
