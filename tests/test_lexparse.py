import random

import pytest

from revsense.families import FamilySpec, central_word, fibonacci_word, generate
from revsense.lexparse import _common_prefix, lex_parse
from revsense.lz import lz_parse
from revsense.suffixes import build_suffix_context
from revsense.text import Text, reverse

from oracles import naive_suffix_context, phrase_texts, phrase_triples, random_symbols


def test_worked_example():
    w = Text.from_str("abracadabracabra")
    p = lex_parse(w)
    assert [t.display() for t in phrase_texts(p, w)] == [
        "abraca", "d", "abra", "c", "a", "b", "r", "a"]
    assert len(p) == 8


def test_all_distinct_symbols():
    w = Text.from_str("abc")
    assert [t.display() for t in phrase_texts(lex_parse(w), w)] == ["a", "b", "c"]


def test_reversed_fibonacci_with_marker():
    # (c F_9)^R parses as (b, a, C_6, F_7^R, F_7^R, c)
    w = generate(FamilySpec("c_fib_rev", 9))
    assert len(w) == 35
    p = lex_parse(w)
    assert [length for _, length, _ in phrase_triples(p)] == [1, 1, 6, 13, 13, 1]
    texts = phrase_texts(p, w)
    assert texts[2] == central_word(6)
    assert texts[3] == reverse(fibonacci_word(7))
    assert texts[4] == reverse(fibonacci_word(7))
    assert [t.display() for t in (texts[0], texts[1], texts[5])] == ["b", "a", "c"]


def test_source_is_lexicographic_predecessor():
    rng = random.Random(6)
    for _ in range(300):
        w = Text(random_symbols(rng, 48))
        ctx = build_suffix_context(w)
        p = lex_parse(w, ctx)
        for i, j, src in zip(p.bounds, p.bounds[1:], p.sources):
            r = ctx.isa[i]
            if src is None:
                assert ctx.lcp[r] == 0 and j - i == 1
            else:
                assert src == ctx.sa[r - 1]
                assert j - i == ctx.lcp[r]


def test_tiling_and_naive_context_agreement():
    rng = random.Random(7)
    for _ in range(800):
        w = Text(random_symbols(rng, 64))
        p = lex_parse(w, build_suffix_context(w))
        q = lex_parse(w, naive_suffix_context(w))
        assert p.bounds == q.bounds
        assert p.bounds[0] == 0 and p.bounds[-1] == len(w)


def _random_text(sigma, n, seed):
    rng = random.Random(seed)
    return Text(tuple(rng.randrange(sigma) for _ in range(n)))


@pytest.mark.parametrize("w", [
    generate(FamilySpec("fib", 20)), Text((0,) * 5000), Text((0, 1) * 2500),
    generate(FamilySpec("c_fib_rev", 25)), _random_text(4, 3000, 1), _random_text(1000, 3000, 2),
    Text((2**64, 3, 2**64, 2**64 + 1) * 50),
], ids=["F_20", "unary_5000", "ab_2500", "c_fib_rev_25", "random4", "random1000", "past_int64"])
def test_a_context_without_lcp_measures_each_phrase_s_lcp(w):
    """Given sa and isa only, as a v-only report builds its context, each
    phrase's LCP is measured on the text: the parse is the one read off the
    LCP array."""
    lean = build_suffix_context(w, frozenset({"sa", "isa"}))
    assert lean.lcp is None
    assert lex_parse(w, lean) == lex_parse(w, build_suffix_context(w))


def test_measured_lcp_agrees_with_the_lcp_array():
    """Short random and periodic texts: every chunk width of the measured
    LCP runs, against the LCP array of the naive context."""
    rng = random.Random(8)
    for i in range(600):
        n = rng.randint(1, 90)
        if i % 2:
            w = Text(random_symbols(rng, n, min_n=n))
        else:
            period = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
            w = Text((period * n)[:n])
        ctx = naive_suffix_context(w)
        buf = w.dense_ranks.tobytes()
        for r in range(1, len(w)):
            assert _common_prefix(w.symbols, buf, ctx.sa[r - 1], ctx.sa[r]) == ctx.lcp[r], (w, r)


def expected_lex_shape_w_sigma(sigma):
    # singles a_1..a_(sigma-1) doubled, then a_(sigma-1) a_sigma, then the
    # leading pairs of the ascending tail, then two final singles
    lengths = [1] * (2 * (sigma - 2)) + [2] + [2] * (sigma // 2 - 1) + [1, 1]
    shape = []
    pos = 1
    for ell in lengths:
        shape.append((pos, ell))
        pos += ell
    return tuple(shape)


def expected_lex_shape_w_sigma_rev(sigma):
    lengths = [1] * (sigma - 2) + [2] + [2] * (sigma - 2) + [1, 1]
    shape = []
    pos = 1
    for ell in lengths:
        shape.append((pos, ell))
        pos += ell
    return tuple(shape)


def test_block_family_phrase_lists():
    for sigma in range(2, 31, 2):
        w = generate(FamilySpec("w_sigma", sigma))
        p = lex_parse(w)
        assert tuple(t[:2] for t in phrase_triples(p)) == expected_lex_shape_w_sigma(sigma)
        assert len(p) == 5 * sigma // 2 - 2
        assert p.bounds != lz_parse(w).bounds
        wr = reverse(w)
        pr = lex_parse(wr)
        assert tuple(t[:2] for t in phrase_triples(pr)) == expected_lex_shape_w_sigma_rev(sigma)
        assert len(pr) == 2 * sigma - 1
        assert pr.bounds != lz_parse(wr).bounds


def test_empty_rejected():
    with pytest.raises(ValueError):
        lex_parse(Text(()))
