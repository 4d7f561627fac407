import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from revsense.families import FamilySpec, generate
from revsense.measures import right_extension_count, substring_complexity
from revsense.suffixes import build_suffix_context
from revsense.text import Text, reverse

from oracles import (
    brute_delta,
    brute_right_extensions,
    distinct_substring_counts,
    random_symbols,
)


def test_delta_examples():
    assert substring_complexity(Text.from_str("aaaa")) == Fraction(1)
    assert substring_complexity(Text.from_str("ab")) == Fraction(2)
    # maximum attained at k = 1 with five distinct symbols
    assert substring_complexity(Text.from_str("abracadabracabra")) == Fraction(5)
    assert brute_delta(Text.from_str("abracadabracabra").symbols) == Fraction(5)
    with pytest.raises(ValueError):
        substring_complexity(Text(()))


def test_distinct_substring_counts_small():
    # counts for "abab": length-1 -> 2, length-2 -> 2 (ab, ba), 3 -> 2, 4 -> 1
    assert distinct_substring_counts(Text.from_str("abab")) == [2, 2, 2, 1]


def test_delta_matches_brute_oracle():
    rng = random.Random(8)
    for _ in range(600):
        s = random_symbols(rng, 40)
        assert substring_complexity(Text(s)) == brute_delta(s)
        assert distinct_substring_counts(Text(s)) == [
            len({s[i:i + k] for i in range(len(s) - k + 1)}) for k in range(1, len(s) + 1)
        ]
    # longer texts: the float preselection against the exact maximum over every k
    for w in (generate(FamilySpec("fib", 20)), Text(random_symbols(rng, 5000, min_n=5000))):
        exact = max(Fraction(c, k) for k, c in enumerate(distinct_substring_counts(w), 1))
        assert substring_complexity(w) == exact


def test_delta_reversal_invariant_sample():
    rng = random.Random(9)
    for _ in range(600):
        w = Text(random_symbols(rng, 48))
        assert substring_complexity(w) == substring_complexity(reverse(w))


def test_right_extensions_worked_examples():
    def extensions(w):
        return {Text(x, w.names).display() for x in brute_right_extensions(w.symbols)}

    w = generate(FamilySpec("unary_plus", 6))       # a b^5
    assert extensions(w) == {"a", "b", "bb", "bbb", "bbbb", "bbbbb"}
    assert right_extension_count(w) == 6
    wr = reverse(w)                                  # b^5 a
    assert extensions(wr) == {"a", "ba", "bba", "bbba", "bbbba",
                              "b", "bb", "bbb", "bbbb", "bbbbb"}
    assert right_extension_count(wr) == 10
    assert extensions(Text.from_str("ab")) == {"a", "b"}
    with pytest.raises(ValueError):
        right_extension_count(Text(()))


def _e_three_ways(s):
    w = Text(s)
    return (right_extension_count(w),
            right_extension_count(w, build_suffix_context(w)),
            len(brute_right_extensions(s)))


def test_right_extension_count_matches_oracle():
    rng = random.Random(11)
    for _ in range(2000):
        s = random_symbols(rng, 40, alphabets=(1, 2, 3, 4))
        a, b, c = _e_three_ways(s)
        assert a == b == c, s


def test_right_extension_count_edge_cases():
    cases = {
        "a": 1,
        "aaaaaaa": 7,        # unary: every prefix is a suffix
        "abab": 4,           # a, b, ba, aba; the suffix ab repeats
        "abaab": 6,
        "abcabc": 6,         # the whole half abc repeats as a suffix
    }
    for word, expected in cases.items():
        assert _e_three_ways(Text.from_str(word).symbols) == (expected,) * 3, word
    with pytest.raises(ValueError):
        right_extension_count(Text(()))


def test_right_extension_count_scales_to_1e5():
    n = 10**5
    rng = random.Random(12)
    w = Text(tuple(rng.randrange(4) for _ in range(n)))
    t0 = time.time()
    ctx = build_suffix_context(w)
    tracemalloc.start()
    try:
        e = right_extension_count(w, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.time() - t0
    # m <= n internal nodes and m >= L + 1 give n <= e <= 2n - 1
    assert n <= e <= 2 * n - 1
    assert elapsed < 60
    # linear scratch only: an O(n^2) table would need tens of GB here
    assert peak < 16 * 2**20, peak


def test_right_extension_family_gap():
    for n in (2, 3, 10, 41):
        w = generate(FamilySpec("unary_plus", n))
        e_fwd = right_extension_count(w)
        e_rev = right_extension_count(reverse(w))
        assert e_fwd == n
        assert e_rev == 2 * (n - 1)
        assert e_rev - e_fwd == n - 2


def test_delta_lower_bounds_other_measures_on_families():
    # delta <= r, z, v on a reduced family grid
    from revsense.harness import evaluate
    grids = [("u_k", range(1, 16)), ("w_sigma", range(2, 41, 2)),
             ("T_p", range(1, 6)), ("fib_plus", range(8, 15, 2)),
             ("c_fib", range(9, 16, 2)), ("t55", [None])]
    for family, params in grids:
        for param in params:
            for fam in (family, family + "_rev"):
                w = generate(FamilySpec(fam, param))
                (delta, _), *others = evaluate(w, ["delta", "r", "z", "v"])
                for m, (value, _) in zip(("r", "z", "v"), others):
                    assert delta <= value, (fam, param, m)
