"""Independent brute-force oracles for differential tests, and the text
helpers that only tests use.

The oracles work directly from definitions on plain symbol tuples,
deliberately sharing no machinery with the library implementations; the
suffix-structure oracles take a Text and return the library's
SuffixContext only so that results compare with ==.  `rle` and
`lyndon_factorize` are conveniences over Text: the run-length encoding
that run counts are checked against, and the factors that
`text.lyndon_starts` delimits.

`phrase_triples` states a library parsing in the oracles' 1-based form,
and `phrase_texts` slices its phrases out of the text.
The helpers at the end are test-only API over the library: `concat`,
`is_lyndon` (from `text.lyndon_starts`), KMP `occurrences` (1-based, as
the paper reports positions), the per-length counts that `delta` maximizes
(`distinct_substring_counts`), the five central-word properties of
the Fibonacci words (`fib_property_check`), one family member's closed
form for one measure (`predict`), and the sweep rows that a CSV of
`harness.rows_to_csv` holds (`rows_from_csv`).

`MEASURE_LATTICE` lists the inequalities between measures that every text
satisfies, each with where it comes from.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from revsense import measures
from revsense.families import FamilySpec, Prediction, central_word, fibonacci_word, predictions
from revsense.harness import CSV_HEADER, SweepRow
from revsense.suffixes import SuffixContext
from revsense.text import Text, lyndon_starts, reverse


@dataclass(frozen=True)
class RunLengthEncoding:
    """Maximal equal-symbol runs, as (symbol, count) pairs."""

    runs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.runs)


def rle(w: Text) -> RunLengthEncoding:
    runs: list[tuple[int, int]] = []
    for sym in w.symbols:
        if runs and runs[-1][0] == sym:
            runs[-1] = (sym, runs[-1][1] + 1)
        else:
            runs.append((sym, 1))
    return RunLengthEncoding(tuple(runs))


def lyndon_factorize(w: Text) -> list[Text]:
    """Unique factorization into non-increasing Lyndon factors."""
    bounds = lyndon_starts(w) + (len(w),)
    return [w[a:b] for a, b in zip(bounds, bounds[1:])]


def random_symbols(rng: random.Random, max_n: int, alphabets=(2, 3, 5), min_n: int = 1):
    n = rng.randint(min_n, max_n)
    sigma = rng.choice(alphabets)
    return tuple(rng.randrange(sigma) for _ in range(n))


def shown_names_are_unique(symbols, names) -> bool:
    """The name-table rule by its definition: every rank a table may show,
    a present symbol or a key, gets a different name, its table's name or
    else its default name."""
    def name(r):
        if names and r in names:
            return names[r]
        return chr(r) if 33 <= r < 127 else f"<{r}>"

    shown = set(symbols).union(names)
    return len({name(r) for r in shown}) == len(shown)


def brute_lz_shape(s):
    """Greedy LZ with overlap, straight from the definition."""
    n = len(s)
    i = 0
    out = []
    while i < n:
        best = 0
        for j in range(i):
            l = 0
            while i + l < n and s[j + l] == s[i + l]:
                l += 1
            if l > best:
                best = l
        step = best if best else 1
        out.append((i + 1, step))
        i += step
    return tuple(out)


def brute_lz_no_overlap(s):
    """Greedy LZ with sources entirely before the phrase, as 1-based
    (start, length, source) triples; source None marks a literal, and
    ties go to the leftmost source."""
    n = len(s)
    i = 0
    out = []
    while i < n:
        best, src = 0, None
        for j in range(i):
            l = 0
            while i + l < n and j + l < i and s[j + l] == s[i + l]:
                l += 1
            if l > best:
                best, src = l, j + 1
        step = best if best else 1
        out.append((i + 1, step, src))
        i += step
    return tuple(out)


def brute_lz_end_greedy(s):
    """Greedy end-aligned LZ as (start, length, source) triples: every
    source start j against every earlier phrase end inside its match,
    leftmost source on ties."""
    n = len(s)
    i = 0
    ends = []  # 1-based ends of the phrases so far
    out = []
    while i < n:
        best, src = 0, None
        for j in range(i):
            l = 0
            while i + l < n and s[j + l] == s[i + l]:
                l += 1
            for e in ends:
                if j < e <= min(j + l, i) and e - j > best:
                    best, src = e - j, j + 1
        step = best if best else 1
        out.append((i + 1, step, src))
        ends.append(i + step)
        i += step
    return tuple(out)


def definition_lz_end_greedy(s):
    """Greedy end-aligned LZ as (start, length, source) triples, straight
    from the definition but fast enough for a few thousand symbols: at the
    phrase start i0, l runs down from min(LPF(i0), i0), and the first l
    with some phrase end e <= i0 and s[e-l:e] == s[i0:i0+l] wins, its
    source at the smallest such e.  The symbols become one character each,
    so the longest previous factor and the comparisons are string searches
    and slices."""
    code = {c: chr(k) for k, c in enumerate(sorted(set(s)))}
    t = "".join(code[c] for c in s)
    n = len(t)
    i = 0
    ends = []  # 1-based ends of the phrases so far, increasing
    out = []
    while i < n:
        lpf = 0    # some occurrence of t[i:i+lpf+1] starts before i
        while i + lpf < n and t.find(t[i:i + lpf + 1], 0, i + lpf) >= 0:
            lpf += 1
        best, src = 0, None
        for l in range(min(lpf, i), 0, -1):
            e = next((e for e in ends if e >= l and t[e - l:e] == t[i:i + l]), None)
            if e is not None:
                best, src = l, e - l + 1
                break
        step = best if best else 1
        out.append((i + 1, step, src))
        ends.append(i + step)
        i += step
    return tuple(out)


def brute_match_lengths(s, i0):
    """(j0, m) for every j0 < i0 whose suffix shares m >= 1 symbols with
    s[i0:], sorted by j0, by comparing symbols."""
    out = []
    for j0 in range(i0):
        m = 0
        while i0 + m < len(s) and s[j0 + m] == s[i0 + m]:
            m += 1
        if m:
            out.append((j0, m))
    return out


def exhaustive_lz_end_size(s):
    """Exact smallest end-aligned parsing by enumerating boundary sets."""
    n = len(s)
    best = [n]

    def extend(i, ends, count):
        if count >= best[0]:
            return
        if i == n:
            best[0] = count
            return
        moves = {1}
        for e in ends:
            for ell in range(1, min(e, n - i) + 1):
                if s[e - ell:e] == s[i:i + ell]:
                    moves.add(ell)
        for ell in sorted(moves, reverse=True):
            ends.append(i + ell)
            extend(i + ell, ends, count + 1)
            ends.pop()

    extend(0, [], 0)
    return best[0]


def left_source_optimal_size(s):
    """Minimal left-source parsing size by dynamic programming."""
    n = len(s)
    dp = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = 0
        for j in range(i):
            l = 0
            while i + l < n and s[j + l] == s[i + l]:
                l += 1
            if l > best:
                best = l
        hi = max(1, best)
        dp[i] = 1 + min(dp[i + 1:i + hi + 1])
    return dp[0]


def brute_delta(s):
    n = len(s)
    return max(
        Fraction(len({s[i:i + k] for i in range(n - k + 1)}), k)
        for k in range(1, n + 1)
    )


def omega_compare(x, y):
    """Compare the infinite powers of the symbol tuples x and y: -1, 0 or 1.

    If the powers agree on |x|+|y| symbols they agree everywhere (Fine and
    Wilf: both are then powers of one primitive word), so 0 means x and y
    share a primitive root.
    """
    if not x or not y:
        raise ValueError("omega order is defined for non-empty strings only")
    for t in range(len(x) + len(y)):
        a, b = x[t % len(x)], y[t % len(y)]
        if a != b:
            return -1 if a < b else 1
    return 0


def brute_lyndon_starts(s):
    """Starts of the Lyndon factors of s from the definition: each
    factor is the longest prefix of the rest that is strictly smaller than
    all of its proper rotations."""
    def is_lyndon(x):
        return all(x < x[i:] + x[:i] for i in range(1, len(x)))

    starts = []
    i = 0
    while i < len(s):
        starts.append(i)
        i = max(j for j in range(i + 1, len(s) + 1) if is_lyndon(s[i:j]))
    return tuple(starts)


def suffix_minimum_starts(s):
    """Starts of the Lyndon factors of s in quadratic time: the positions
    whose suffix is smaller than every suffix that starts before them,
    suffixes compared as tuples."""
    starts, least = [], None
    for i in range(len(s)):
        if least is None or s[i:] < least:
            starts.append(i)
            least = s[i:]
    return tuple(starts)


def brute_bbwt(s):
    """Bijective BWT from the definition: split s into its Lyndon factors,
    sort every rotation of every factor by its infinite power, and read
    off the last symbols."""
    bounds = suffix_minimum_starts(s) + (len(s),)
    factors = [s[a:b] for a, b in zip(bounds, bounds[1:])]
    rotations = [f[k:] + f[:k] for f in factors for k in range(len(f))]
    rotations.sort(key=cmp_to_key(omega_compare))
    return tuple(r[-1] for r in rotations)


def brute_right_extensions(s):
    """E_r from the definition: one occurrence scan per distinct substring."""
    n = len(s)
    subs = {s[i:j] for i in range(n) for j in range(i + 1, n + 1)}
    subs.add(())
    out = set()
    for x in subs:
        m = len(x)
        nexts = {s[i + m] for i in range(n - m) if s[i:i + m] == x}
        is_suffix = s[n - m:] == x
        if len(nexts) >= 2 or is_suffix:
            out |= {x + (a,) for a in nexts}
    return out


def phrase_triples(parsing):
    """A library parsing's phrases as 1-based (start, length, source)
    triples, source None for a literal: the form in which the paper and
    the brute-force oracles state a parse."""
    b = parsing.bounds
    return tuple((i + 1, j - i, None if src is None else src + 1)
                 for i, j, src in zip(b, b[1:], parsing.sources))


def phrase_texts(parsing, w):
    """A library parsing's phrases as slices of the text w it parses."""
    b = parsing.bounds
    return [w[i:j] for i, j in zip(b, b[1:])]


def decode_parsing(parsing, w):
    """Rebuild the text from phrase sources (literals from the phrase start).

    Sources start strictly before their phrase, so copying one symbol at
    a time from the already-decoded output is well defined even when the
    source overlaps the phrase.
    """
    out = []
    b = parsing.bounds
    for i, j, src in zip(b, b[1:], parsing.sources):
        if src is None:
            assert j - i == 1
            out.append(w.symbols[i])
        else:
            for t in range(j - i):
                out.append(out[src + t])
    return tuple(out)


def naive_suffix_context(w):
    """Suffix array, inverse and LCP of a Text by sorting materialized
    suffixes and scanning neighbours directly, held as a SuffixContext
    holds them, so that the two compare by value."""
    if len(w) == 0:
        raise ValueError("suffix structures require a non-empty text")
    s = w.symbols
    n = len(s)
    sa = sorted(range(n), key=lambda i: s[i:])
    isa = [0] * n
    for r, p in enumerate(sa):
        isa[p] = r
    lcp = [0] * n
    for r in range(1, n):
        a, b = s[sa[r - 1]:], s[sa[r]:]
        m = 0
        while m < len(a) and m < len(b) and a[m] == b[m]:
            m += 1
        lcp[r] = m
    return SuffixContext(array("i", sa), array("i", isa), array("i", lcp))


def naive_cyclic_rotation_order(w, starts=(0,)):
    """Rotation starts of the cycles of a Text (the factors that begin at
    `starts`), sorted by their infinite powers cut to twice the longest
    cycle (two powers that agree on |x| + |y| symbols are equal), ties by
    start position."""
    s = w.symbols
    bounds = list(starts) + [len(s)]
    cut = 2 * max(b - a for a, b in zip(bounds, bounds[1:]))
    keys = []
    for a, b in zip(bounds, bounds[1:]):
        f = s[a:b]
        for k in range(len(f)):
            rot = f[k:] + f[:k]
            keys.append(((rot * (cut // len(rot) + 1))[:cut], a + k))
    return tuple(p for _, p in sorted(keys))


def kasai_lcp(s, sa):
    """LCP array of the symbols `s` from their suffix array `sa`,
    by Kasai et al. (CPM 2001): walk the text in position order, carrying
    the common prefix minus one into the next suffix."""
    n = len(s)
    rank = [0] * n
    for r, p in enumerate(sa):
        rank[p] = r
    lcp = [0] * n
    k = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            k = 0
            continue
        j = sa[r - 1]
        while i + k < n and j + k < n and s[i + k] == s[j + k]:
            k += 1
        lcp[r] = k
        if k:
            k -= 1
    return tuple(lcp)


def concat(*parts: Text) -> Text:
    """Concatenate texts, merging their name tables."""
    names: dict[int, str] = {}
    symbols: list[int] = []
    for p in parts:
        if p.names:
            names.update(p.names)
        symbols.extend(p.symbols)
    return Text(tuple(symbols), names or None)


def predict(spec: FamilySpec, measure: str) -> Prediction | None:
    """Closed-form value of a measure on this family member, if known."""
    return next((p for p in predictions(spec) if p.measure == measure), None)


def _parse_value(s: str) -> object:
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return int(s)


def rows_from_csv(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for ln in lines[1:]:
        f, param, n, measure, vf, vr, add, mnum, mden, exact = ln.split(",")
        mult = Fraction(int(mnum), int(mden)) if mnum else None
        rows.append(SweepRow(
            f, int(param) if param else None, int(n), measure,
            _parse_value(vf), _parse_value(vr), _parse_value(add), mult,
            exact == "true",
        ))
    return rows


def is_lyndon(w: Text) -> bool:
    """True iff w is strictly smaller than all of its proper suffixes,
    that is, iff w is its own only Lyndon factor."""
    if len(w) == 0:
        raise ValueError("the empty text is not eligible for the Lyndon test")
    return lyndon_starts(w) == (0,)


def occurrences(pattern: Text, text: Text) -> list[int]:
    """All 1-based start positions of pattern in text (overlaps included), via KMP."""
    if len(pattern) == 0:
        raise ValueError("pattern must be non-empty")
    p, t = pattern.symbols, text.symbols
    m, n = len(p), len(t)
    if m > n:
        return []
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and p[i] != p[k]:
            k = fail[k - 1]
        if p[i] == p[k]:
            k += 1
        fail[i] = k
    out: list[int] = []
    k = 0
    for i, c in enumerate(t):
        while k and c != p[k]:
            k = fail[k - 1]
        if c == p[k]:
            k += 1
            if k == m:
                out.append(i - m + 2)
                k = fail[k - 1]
    return out


def distinct_substring_counts(w: Text, ctx: SuffixContext | None = None) -> list[int]:
    """counts[k-1] = number of distinct length-k substrings, for k in [1, n],
    as `measures.substring_complexity` reads them off the LCP array."""
    return measures._substring_counts(w, ctx).tolist()


@dataclass(frozen=True)
class FibPropertyReport:
    """Direct evaluation of the five structural central-word properties."""

    palindrome: bool            # C_k reads the same both ways
    telescoped_product: bool    # C_k = F_(k-2) F_(k-3) ... F_3 F_2
    bracket_lyndon: bool        # a C_k b is a Lyndon word
    triple_occurrence: bool     # F_(k-2) occurs in F_k exactly at 1, f_(k-2)+1, f_(k-1)+1
    parity_suffix: bool         # F_k = C_k * (ab|ba) and F_(k-2)F_(k-1) = C_k * (ba|ab)

    def all_hold(self) -> bool:
        return all(
            (self.palindrome, self.telescoped_product, self.bracket_lyndon,
             self.triple_occurrence, self.parity_suffix)
        )


def fib_property_check(k: int) -> FibPropertyReport:
    if k < 6:
        raise ValueError(f"property suite needs k >= 6, got {k}")
    f_k = fibonacci_word(k)
    f_k1 = fibonacci_word(k - 1)
    f_k2 = fibonacci_word(k - 2)
    c_k = central_word(k)
    names = f_k.names
    a = Text((0,), names)
    b = Text((1,), names)
    ab = Text((0, 1), names)
    ba = Text((1, 0), names)

    palindrome = c_k == reverse(c_k)
    telescoped = c_k == concat(*(fibonacci_word(i) for i in range(k - 2, 1, -1)))
    bracket = is_lyndon(concat(a, c_k, b))
    expected_positions = [1, len(f_k2) + 1, len(f_k1) + 1]
    triple = occurrences(f_k2, f_k) == expected_positions
    tail, other = (ab, ba) if k % 2 else (ba, ab)
    parity = f_k == concat(c_k, tail) and concat(f_k2, f_k1) == concat(c_k, other)
    return FibPropertyReport(palindrome, telescoped, bracket, triple, parity)


OBSERVED = "observed"

# (name, predicate over {measure id: value}, source).  A row cites its paper
# only where the published convention is this code's.  The e rows are
# observed: r_dollar <= e fails here (e("a") = 1, r_dollar("a") = 2), so this
# code's e, which counts no `$` extension, is not the e of the CPM 2015
# bounds z <= e and r <= e.  delta <= r is observed too: the published bound
# reads the BWT of w$, not this code's cyclic r.  Two rows that look alike
# are false here and left out: r_dollar <= e, and v <= z_no
# (v("010110") = 5, z_no = 4).
MEASURE_LATTICE = (
    ("z <= e", lambda m: m["z"] <= m["e"], OBSERVED),
    ("r <= e", lambda m: m["r"] <= m["e"], OBSERVED),
    ("r_b <= e", lambda m: m["r_b"] <= m["e"], OBSERVED),
    ("z_end <= e", lambda m: m["z_end"] <= m["e"], OBSERVED),
    ("r_dollar <= e + 1", lambda m: m["r_dollar"] <= m["e"] + 1, OBSERVED),
    ("v <= 2*r_dollar", lambda m: m["v"] <= 2 * m["r_dollar"],
     'Navarro, Ochoa & Prezza, "On the approximation ratio of ordered parsings", '
     "IEEE TIT 2021"),
    ("delta <= v", lambda m: m["delta"] <= m["v"],
     'Kociumaka, Navarro & Prezza, "Towards a definitive measure of repetitiveness", '
     "IEEE TIT 2023"),
    ("delta <= r", lambda m: m["delta"] <= m["r"], OBSERVED),
    ("delta <= r_b", lambda m: m["delta"] <= m["r_b"], OBSERVED),
)
