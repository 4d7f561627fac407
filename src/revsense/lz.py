"""Lempel-Ziv factorizations: greedy with self-overlap (z), greedy
non-overlapping (z_no), greedy end-aligned (z_e), and the smallest
end-aligned parsing (z_end) by bounded exact search.

Parsing model: a parsing tiles the text; a phrase either copies some
earlier-starting occurrence (its source) or is a single literal
character.  A `Parsing` keeps only ints, the 0-based phrase bounds and
sources, and every measure reads its length.  The variants differ only in
which sources qualify:

* lz_parse       -- source starts strictly before the phrase (it may
                    overlap the phrase).
* lz_no_overlap  -- source lies entirely before the phrase.
* lz_end_greedy  -- source ends exactly at the end of a previously
                    produced phrase.  Such a source of length l ends at
                    e when w[:e] and w[:i0+l] share a suffix of length
                    l, so it is found in the suffix context of
                    reverse(w) next to the rank of w[:i0+l]; a phrase
                    checks the lengths L, L-1, ... down to the first
                    that has one, L - l + 1 checks for L = min(LPF(i0), i0),
                    and walks from the nearest passing end to the
                    earliest-produced one, the leftmost source.
* lz_end_optimal -- minimum number of phrases over all parsings whose
                    sources end at earlier boundaries of that same
                    parsing; greedy end-aligned parsing is not optimal
                    in general.  The search is one loop over an explicit
                    path, so its depth is not bounded by the interpreter's
                    recursion limit, and it holds O(n) memory besides the
                    moves of the nodes on its path.

z, the bound L of z_e and z_end's lower bound read the longest previous
factor at increasing positions.  z_no's walk reads the link pass
(`_SuffixMatcher`, each rank's nearest earlier-starting ranks) at every
rank; a link pass stands in for its suffix context wherever one is read.
Given one, the others read its links; given a plain context, they mark the
ranks of the positions passed and search the marks (`_earlier_matches`),
so they make no pass over all ranks.
"""

from __future__ import annotations

import functools
import numbers
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .suffixes import SuffixContext, build_suffix_context, context_for
from .text import Text, reverse

DEFAULT_NODE_BUDGET = 10**6     # lz_end_optimal's search stops, inexact, after this many nodes


@dataclass(frozen=True)
class Parsing:
    """A tiling of a text into phrases, kept as ints: `bounds` holds the
    0-based phrase starts followed by n, and `sources` the 0-based source
    of each phrase, None for a literal.  Two parsings are equal iff they
    have the same bounds, sources and variant."""

    bounds: tuple[int, ...]
    sources: tuple[int | None, ...]
    variant: str

    def __len__(self) -> int:
        return len(self.sources)


class _SuffixMatcher:
    """Longest-match links over a suffix context, read by z_no's walk at
    every rank, and by z, z_e and z_end's lower bound when given one.  It
    keeps the context's `sa`, `isa`, `lcp` and length, so it stands in for it.

    psv[r] / nsv[r] is the nearest rank before / after r whose suffix
    starts earlier, or -1; plcp[r] / nlcp[r] is the lcp of the suffixes
    at r and that rank, or 0.  One left-to-right stack pass fills all
    four: the stack holds ranks with increasing starts, a second stack
    their starts, and m is the lcp of r with the rank on top.  Popping t makes r its
    next smaller start at lcp m; the rank below t is psv[t], so m drops
    to min(m, plcp[t]) (Crochemore & Ilie, "Computing Longest Previous
    Factor in linear time", IPL 2008).
    """

    def __init__(self, ctx: SuffixContext):
        n = len(ctx)
        self.sa, self.isa, self.lcp = ctx.sa, ctx.isa, ctx.lcp
        self.psv = psv = [-1] * n
        self.nsv = nsv = [-1] * n
        self.plcp = plcp = [0] * n
        self.nlcp = nlcp = [0] * n
        stack, starts = [-1], [-1]
        for r, p, m in zip(range(n), ctx.sa, ctx.lcp):
            while starts[-1] > p:
                starts.pop()
                t = stack.pop()
                nsv[t], nlcp[t] = r, m
                if plcp[t] < m:
                    m = plcp[t]
            psv[r], plcp[r] = stack[-1], m
            stack.append(r)
            starts.append(p)

    def __len__(self) -> int:
        return len(self.sa)

    def longest_earlier_match(self, i0: int) -> tuple[int, int | None]:
        """Longest prefix of w[i0:] occurring at some position < i0
        (overlap with the phrase allowed); returns (length, source0)."""
        r = self.isa[i0]
        if self.plcp[r] >= self.nlcp[r]:
            ell, cand = self.plcp[r], self.psv[r]
        else:
            ell, cand = self.nlcp[r], self.nsv[r]
        return (ell, self.sa[cand]) if ell else (0, None)

    def longest_nonoverlapping_match(self, i0: int) -> tuple[int, int | None]:
        """Longest prefix of w[i0:] with an occurrence inside [0, i0),
        leftmost source on ties.

        Walks the previous- and next-smaller-value chains outward from the
        rank of i0 (Crochemore & Tischler, IPL 2011).  A rank that a chain
        skips has a lower lcp with i0 and a later start than the chain
        rank that skips it, so it never scores higher.  The lcp of i0 with a
        chain rank is the minimum of the links walked to reach it.  A walk
        stops once its running lcp falls below the best length, so a phrase
        costs O(its earlier occurrences) rank steps.
        """
        r = self.isa[i0]
        sa = self.sa
        best, src = 0, None
        for chain, link in ((self.psv, self.plcp), (self.nsv, self.nlcp)):
            x, c = r, len(sa)
            while chain[x] >= 0:
                if link[x] < c:
                    c = link[x]
                x = chain[x]
                if c < best or not c:
                    break
                v = i0 - (j := sa[x])
                if c < v:
                    v = c
                if v > best or (v == best and j < src):
                    best, src = v, j
        return best, src


def _earlier_matches(w: Text, ctx: SuffixContext | _SuffixMatcher):
    """`_SuffixMatcher.longest_earlier_match` for a caller that asks at
    increasing positions (a parse, or z_end's lower bound at every one):
    the link pass's own if `ctx` is one, else one with no pass over all ranks.

    Before answering at i0 it marks the ranks of the positions < i0 in a
    byte array, so the nearest earlier-starting rank on each side of
    isa[i0], psv or nsv, is a byte search in C for the nearest mark, and the
    longest previous factor is the longer lcp with them (Kärkkäinen, Kempa
    & Puglisi, CPM 2013).  A found rank whose suffix starts with another
    symbol has lcp 0; otherwise the lcp is the minimum of `ctx.lcp` over the
    ranks between, so only ranks of one first symbol are ever scanned; the
    right side is skipped when lcp[r + 1] cannot beat the left.  Over more
    than 128 ranks the minimum reads 64-rank block minima, built on first
    use (the scans covered 4.4 n ranks on random text at 10^6 without
    them): both ways take about 2.3 us at 129 ranks, and at 512 the scan 8 us
    against 2.7.  More than 48 positions are marked by one numpy store,
    which costs about what the loop costs at 48, 2.2 us (Python 3.11).
    """
    if isinstance(ctx, _SuffixMatcher):
        return ctx.longest_earlier_match
    sa, isa, lcp, s, n = ctx.sa, ctx.isa, ctx.lcp, w.symbols, len(ctx)
    marked = bytearray(n)
    rfind, find = marked.rfind, marked.find
    done = 0        # the positions < done are marked
    blocks = None   # blocks[k] = min(lcp[64 k:64 k + 64]) over the whole blocks

    def far_min(lo: int, hi: int) -> int:
        """min(lcp[lo:hi]) for hi - lo > 128: two part-blocks and the whole ones."""
        nonlocal blocks
        if blocks is None:
            whole = np.frombuffer(lcp, np.int32)[:n - n % 64]
            blocks = array("i", whole.reshape(-1, 64).min(axis=1).tobytes())
        b0, b1 = -(-lo // 64), hi // 64
        return min((min(blocks[b0:b1]), *lcp[lo:64 * b0], *lcp[64 * b1:hi]))

    def longest_earlier_match(i0: int) -> tuple[int, int | None]:
        nonlocal done
        if i0 - done == 1:
            marked[isa[done]] = 1
        elif i0 - done > 48:
            np.frombuffer(marked, np.uint8)[np.frombuffer(isa, np.int32, i0 - done, 4 * done)] = 1
        else:
            for r in isa[done:i0]:
                marked[r] = 1
        done = i0
        r, c = isa[i0], s[i0]
        ell, src = 0, None
        # lcp[x] is the lcp of ranks x - 1 and x, so ranks x < y share min(lcp[x + 1:y + 1])
        a = rfind(1, 0, r)
        if a >= 0 and s[sa[a]] == c:
            ell = lcp[r] if a == r - 1 else min(lcp[a + 1:r + 1]) if r - a <= 128 else far_min(a + 1, r + 1)
            src = sa[a]
        if r + 1 < n and lcp[r + 1] > ell and (b := find(1, r + 1)) >= 0 and s[sa[b]] == c:
            m = lcp[b] if b == r + 1 else min(lcp[r + 1:b + 1]) if b - r <= 128 else far_min(r + 1, b + 1)
            if m > ell:
                ell, src = m, sa[b]
        return ell, src

    return longest_earlier_match


def _match_lengths(ctx: SuffixContext, i0: int) -> list[tuple[int, int]]:
    """(j0, m) for every j0 < i0 whose suffix shares m >= 1 symbols with
    w[i0:], sorted by j0.  Those suffixes are the ranks around isa[i0]:
    walking outward from it, the running minimum of the lcp entries passed
    is the lcp with each rank, and each walk stops where it reaches 0."""
    sa, lcp = ctx.sa, ctx.lcp
    r = ctx.isa[i0]
    found = []
    # lcp[x] links ranks x - 1 and x: walking up it reaches x - 1, down x
    for ranks, step in ((range(r, 0, -1), -1), (range(r + 1, len(sa)), 0)):
        m = len(sa)
        for x in ranks:
            if lcp[x] < m:
                m = lcp[x]
                if not m:
                    break
            if sa[x + step] < i0:
                found.append((sa[x + step], m))
    found.sort()
    return found


def _greedy_parse(w: Text, ctx: SuffixContext | None, rule, variant: str) -> Parsing:
    """Greedy phrase loop: `rule(ctx)` returns the per-position function,
    bound once per parse, that reports the longest qualifying source at i0
    as (length, source0), or (0, None) for a literal.  Every greedy parse
    runs this loop, the lexicographic one (`lexparse.lex_parse`) included.
    It records each phrase as two ints, its start and source."""
    if len(w) == 0:
        raise ValueError("cannot parse the empty text")
    longest_match = rule(context_for(w, ctx))
    n = len(w)
    starts: list[int] = []
    sources: list[int | None] = []
    add_start, add_source = starts.append, sources.append
    i0 = 0
    while i0 < n:
        ell, src0 = longest_match(i0)
        add_start(i0)
        add_source(src0)
        i0 += ell or 1
    add_start(n)
    return Parsing(tuple(starts), tuple(sources), variant)


def lz_parse(w: Text, ctx: SuffixContext | None = None) -> Parsing:
    """Greedy LZ with self-overlap allowed; phrase count = z(w).

    Each phrase is the longest previous factor at its start, read off the
    links when `ctx` is a link pass (`_SuffixMatcher`), and off marked
    earlier ranks (`_earlier_matches`) when not: O(n) for the marks plus,
    per phrase, two byte searches and a scan of `ctx.lcp` between ranks of
    one first symbol."""
    return _greedy_parse(w, ctx, functools.partial(_earlier_matches, w), "lz")


def lz_no_overlap(w: Text, ctx: SuffixContext | None = None) -> Parsing:
    """Greedy LZ with sources completely to the left; count = z_no(w).
    It walks the links of `ctx` if that is a link pass, else builds one."""
    return _greedy_parse(w, ctx, lambda c: (c if isinstance(c, _SuffixMatcher) else _SuffixMatcher(c))
                         .longest_nonoverlapping_match, "lz_no")


def _no_copy_overlaps(parsing: Parsing) -> bool:
    """Whether every copy phrase's source ends by its start.  Then, for a z
    parse, the greedy non-overlapping parse has the same phrases: z_no = z."""
    b = parsing.bounds
    return all(src is None or src + end - start <= start
               for start, end, src in zip(b, b[1:], parsing.sources))


def _sources_end_at_bounds(parsing: Parsing) -> bool:
    """Whether every copy phrase's source ends by its start, at one of the
    parse's bounds.  Then, for a z parse, the greedy end-aligned parse has
    the same phrases, so z = z_end = z_e: by induction on the phrases, at a
    start i0 that both parses share, lz_end_greedy tries lengths from
    min(LPF(i0), i0), which is z's phrase length, and z's own source ends
    at a bound <= i0, an end that it has produced, so that length passes."""
    b = parsing.bounds
    ends = set(b)
    return all(src is None or (src + end - start <= start and src + end - start in ends)
               for start, end, src in zip(b, b[1:], parsing.sources))


def lz_end_greedy(w: Text, ctx: SuffixContext | None = None,
                  rev_ctx: SuffixContext | None = None) -> Parsing:
    """Greedy end-aligned LZ; phrase count = z_e(w).

    A source of length l for the phrase at i0 ends at an earlier phrase
    end e exactly when w[e-l:e] == w[i0:i0+l], that is, when the
    prefixes w[:e] and w[:i0+l] share a suffix of length l.  w[:p] read
    backwards is the suffix of reverse(w) at n - p, so in the suffix order
    of reverse(w), `rev_ctx` (only its `sa` and `isa` are read, and only
    they are built when it is not given; one of another length is refused),
    the marked ends that pass form one run of ranks around the rank of
    w[:i0+l].  Feasible lengths are not downward closed, so l runs
    down from L = min(LPF(i0), i0), the longest earlier match bounding any
    source, read as `lz_parse` reads it, and the first l that passes wins: a phrase costs L - l + 1
    checks of the nearest marked end on each side of that rank.

    The leftmost source is the one at the smallest passing end, the earliest
    marked, as ends are marked in increasing order.  Each check stores the
    nearest marked rank on each side of the rank it starts from as that
    rank's links.  A phrase's last check starts at the rank of its own end
    (the check at its length, or at 1 for a literal), nothing is marked
    between that check and the end's marking, and a marked rank is never
    checked again: a check is of a prefix longer than every end.  So an
    end's links are its nearest earlier-marked neighbours.  A phrase with
    L = 0 makes no check, but its symbol is new: no earlier end shares the
    first symbol of its end's reversed prefix, so that end is the earliest
    of every run it is in, and any link it holds is an earlier end that
    fails wherever it passes.  A passing end that is not the earliest of its
    run has an earlier one on some side, so that side's link lies between
    them, inside the run, and passes.  So a walk that moves to a passing
    link, the earlier end when both pass, stops exactly at the leftmost
    source, and each step moves to a strictly earlier end of the run.
    """
    n = len(w)
    if rev_ctx is not None and len(rev_ctx) != n:
        raise ValueError(f"a reverse suffix context of {len(rev_ctx)} suffixes for a text of length {n}")

    def rule(ctx: SuffixContext):
        earlier = _earlier_matches(w, ctx)
        rev = rev_ctx or build_suffix_context(reverse(w), frozenset({"sa", "isa"}))
        # positions are reverse(w)'s: w[:e] is its suffix at n - e, of rank isa[n - e];
        # buf holds its symbol ranks as int32 bytes, 4 per symbol, so checks compare in C
        isa, sa, buf = rev.isa, rev.sa, w.dense_ranks[::-1].tobytes()
        # a byte of `marked` is 1 at the rank of a phrase end, so finding the
        # next one either way is a byte search in C, and marking one is a store;
        # left[r] / right[r] is the nearest marked rank on its side when a check
        # last started at r, or -1
        marked = bytearray(n)
        rfind, find, startswith = marked.rfind, marked.find, buf.startswith
        left, right = array("i", [-1]) * n, array("i", [-1]) * n

        def longest_match(i0: int) -> tuple[int, int | None]:
            # the greedy loop asks once per phrase start, in order, and every
            # start after the first ends the phrase before it
            if i0:
                marked[isa[n - i0]] = 1
            ell = min(earlier(i0)[0], i0)
            while ell:
                # an end e < ell runs past buf's end and fails; an earlier end has a larger sa
                q = n - i0 - ell
                pat = buf[4 * q:4 * (q + ell)]
                r = isa[q]
                top, a, b = -1, rfind(1, 0, r), find(1, r)
                left[r], right[r] = a, b
                while a >= 0 or b >= 0:
                    # try the earlier end, the larger sa, first
                    if a < 0 or (b >= 0 and sa[b] > sa[a]):
                        a, b = b, a
                    if startswith(pat, 4 * sa[a]):
                        top = a
                    elif b >= 0 and startswith(pat, 4 * sa[b]):
                        top = b
                    else:
                        break
                    a, b = left[top], right[top]
                if top >= 0:
                    return ell, n - sa[top] - ell
                ell -= 1
            return 0, None

        return longest_match

    return _greedy_parse(w, ctx, rule, "lz_end_greedy")


def lz_end_optimal(
    w: Text, node_budget: int = DEFAULT_NODE_BUDGET, ctx: SuffixContext | None = None,
    greedy: Parsing | None = None, base: Parsing | None = None,
) -> tuple[Parsing, bool]:
    """Smallest end-aligned parsing; count = z_end(w).

    Shortcut: z(w) <= z_end(w) <= z_e(w), so when the greedy overlap
    parse and the greedy end-aligned parse have the same size the
    greedy end-aligned parsing is already optimal.  Otherwise a
    depth-first search over (position, boundary set) states runs with
    branch-and-bound pruning; the bound reads the longest earlier match
    at every position (`_earlier_matches`).  The search is one loop over
    an explicit path (its phrase bounds and sources, and per node on it an
    iterator of the moves not yet tried), so its depth is not bounded by
    the interpreter's recursion limit.  A node that passes the bound
    reads the earlier matches of its position off `ctx` (`_match_lengths`),
    keeps none, and tries the lengths whose source ends at a bound of the
    path, longest first, then the literal.  So the search holds O(n)
    memory (the bound, the path and one node's matches) besides the moves
    of the nodes on the path, at most LPF(i0) at position i0.  Exactness
    is False when node_budget, a positive integer, is exhausted (the best
    parsing found so far is returned).

    `greedy` and `base` are lz_end_greedy(w) and lz_parse(w) when the
    caller has them already; a parsing of another variant or text is
    refused, and each one not given is computed here.
    """
    if len(w) == 0:
        raise ValueError("cannot parse the empty text")
    if not isinstance(node_budget, numbers.Integral) or node_budget < 1:
        raise ValueError(f"node_budget must be a positive integer, got {node_budget!r}")
    for given, variant in ((greedy, "lz_end_greedy"), (base, "lz")):
        if given and (given.variant, given.bounds[-1]) != (variant, len(w)):
            raise ValueError("greedy and base must be the lz_end_greedy and lz_parse parsings of w")
    ctx = context_for(w, ctx)
    greedy = greedy or lz_end_greedy(w, ctx)
    base = base or lz_parse(w, ctx)
    best = Parsing(greedy.bounds, greedy.sources, "lz_end")
    if len(base) == len(best):
        return best, True

    n = len(w)
    earlier = _earlier_matches(w, ctx)
    # Lower bound ignoring end-alignment: greedy jumps over the longest
    # earlier match are optimal for that relaxation.  lb[i] first holds
    # that jump and then the phrase count of w[i:].
    lb = [max(1, earlier(i)[0]) for i in range(n)] + [0]
    for i in range(n - 1, -1, -1):
        lb[i] = 1 + lb[i + lb[i]]

    # the path: its phrase starts then its end, and its sources; per node
    # on it, the (end, source) moves not yet tried
    bounds: list[int] = [0]
    sources: list[int | None] = []
    moves = []
    nodes = 0
    while True:
        if nodes == node_budget:
            return best, False
        nodes += 1
        i0 = bounds[-1]
        # lb[n] is 0, so a leaf that passes is a smaller parsing; lb[0] is
        # z < z_e, so the root passes
        if len(sources) + lb[i0] < len(best):
            if i0 == n:
                best = Parsing(tuple(bounds), tuple(sources), "lz_end")
            else:
                found = {}
                # w[i0:i0 + e - j0] copies w[j0:e] when e is a bound with j0 < e <= j0 + m
                # (never 0); the matches come sorted by j0, so each keeps its leftmost source
                for j0, m in _match_lengths(ctx, i0):
                    for e in bounds[bisect_left(bounds, j0 + 1):bisect_right(bounds, j0 + m)]:
                        found.setdefault(i0 + e - j0, j0)
                found.setdefault(i0 + 1, None)
                moves.append(iter(sorted(found.items(), reverse=True)))
        if len(moves) < len(bounds):      # a leaf or a cut node: leave it
            bounds.pop()
            sources.pop()
        # back up to the deepest node with a move left, and take it
        while (move := next(moves[-1], None)) is None:
            moves.pop()
            if not moves:
                return best, True
            bounds.pop()
            sources.pop()
        bounds.append(move[0])
        sources.append(move[1])
