import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revsense.text import Text, lyndon_starts, reverse
from revsense.families import FamilySpec, fibonacci_word, generate

from oracles import (
    brute_lyndon_starts,
    concat,
    is_lyndon,
    lyndon_factorize,
    occurrences,
    omega_compare,
    rle,
    shown_names_are_unique,
    suffix_minimum_starts,
)

texts = st.lists(st.integers(0, 4), min_size=0, max_size=60).map(lambda s: Text(tuple(s)))
nonempty_texts = st.lists(st.integers(0, 4), min_size=1, max_size=60).map(lambda s: Text(tuple(s)))


def T(s):
    return Text.from_str(s)


def S(s):
    return T(s).symbols


def test_reverse_examples():
    assert reverse(T("abracadabracabra")) == T("arbacarbadacarba")
    assert reverse(T("")) == T("")
    u1 = generate(FamilySpec("u_k", 1))
    assert reverse(u1).display() == "&_1 a #_1 a b"


@given(texts)
def test_reverse_involution(w):
    assert reverse(reverse(w)) == w


def test_rle_examples():
    enc = rle(T("abbaaaab"))
    assert [(chr(s), c) for s, c in enc.runs] == [
        ("a", 1), ("b", 2), ("a", 4), ("b", 1)]
    assert len(enc) == 4
    assert len(rle(T("aaaa"))) == 1
    assert rle(T("aaaa")).runs == ((ord("a"), 4),)
    assert len(rle(T("bbbaaaaa"))) == 2
    assert len(rle(T(""))) == 0


@given(texts)
def test_rle_round_trip(w):
    assert tuple(s for s, c in rle(w).runs for _ in range(c)) == w.symbols


@given(texts, st.integers(1, 9), st.integers(0, 9))
def test_rle_length_invariant_under_renaming(w, scale, shift):
    renamed = Text(tuple(scale * s + shift for s in w.symbols))
    assert len(rle(renamed)) == len(rle(w))


def test_omega_compare_examples():
    assert omega_compare(S("aab"), S("aba")) == -1
    assert omega_compare(S("baa"), S("b")) == -1
    assert omega_compare(S("ab"), S("abab")) == 0
    with pytest.raises(ValueError):
        omega_compare(S(""), S("a"))


@given(nonempty_texts)
def test_omega_self_power_equal(w):
    assert omega_compare(w.symbols, concat(w, w).symbols) == 0


@given(nonempty_texts, nonempty_texts)
def test_omega_matches_lex_on_equal_length(x, y):
    if len(x) == len(y):
        expected = 0 if x.symbols == y.symbols else (-1 if x.symbols < y.symbols else 1)
        assert omega_compare(x.symbols, y.symbols) == expected


@given(nonempty_texts, nonempty_texts, nonempty_texts)
def test_omega_transitive(x, y, z):
    x, y, z = x.symbols, y.symbols, z.symbols
    if omega_compare(x, y) <= 0 and omega_compare(y, z) <= 0:
        assert omega_compare(x, z) <= 0


def naive_is_lyndon(w):
    s = w.symbols
    return all(s < s[i:] for i in range(1, len(s)))


def test_is_lyndon_examples():
    assert is_lyndon(T("aab"))
    # a C_6 b with C_6 = abaaba
    assert is_lyndon(T("a" + "abaaba" + "b"))
    assert not is_lyndon(T("ba"))
    with pytest.raises(ValueError):
        is_lyndon(T(""))


@given(nonempty_texts)
def test_is_lyndon_matches_naive(w):
    assert is_lyndon(w) == naive_is_lyndon(w)


def test_lyndon_factorize_examples():
    assert [f.display() for f in lyndon_factorize(T("baabaaba"))] == ["b", "aab", "aab", "a"]
    assert [f.display() for f in lyndon_factorize(T("aaaa"))] == ["a", "a", "a", "a"]
    u3 = generate(FamilySpec("u_k", 3))
    factors = lyndon_factorize(u3)
    assert [f.display() for f in factors] == [
        "b", "a", "#_1 a &_1 b a #_2 a &_2 b a #_3 a &_3"]
    with pytest.raises(ValueError):
        lyndon_factorize(T(""))


@given(nonempty_texts)
def test_lyndon_factorization_sound_and_unique(w):
    factors = lyndon_factorize(w)
    assert concat(*factors) == w
    assert all(is_lyndon(f) for f in factors)
    assert all(factors[i].symbols >= factors[i + 1].symbols for i in range(len(factors) - 1))
    assert lyndon_factorize(concat(*factors)) == factors


def test_lyndon_starts_matches_oracle():
    rng = random.Random(47)
    cases = [(0,), (3,), (0, 0), (0, 1), (1, 0)]
    for i in range(2000):
        sigma = rng.randint(1, 4)
        if i % 3 == 0:
            # periodic: many equal factors, or one factor repeated with a tail
            block = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 8)))
            s = (block * 80)[:rng.randint(1, 80)]
        else:
            s = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 80)))
        cases.append(s)
    for s in cases:
        assert lyndon_starts(Text(s)) == brute_lyndon_starts(s) == suffix_minimum_starts(s), s
    with pytest.raises(ValueError):
        lyndon_starts(T(""))


def test_brute_lyndon_factorizations_agree():
    # the definition against the suffix minima, on every text over 3 symbols of length <= 8
    for n in range(9):
        for s in itertools.product(range(3), repeat=n):
            assert brute_lyndon_starts(s) == suffix_minimum_starts(s), s


def test_lyndon_starts_memory_is_linear():
    n = 10**5
    w = Text((0,) * n)
    tracemalloc.start()
    try:
        starts = lyndon_starts(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts == tuple(range(n))
    # n factors: the returned starts alone take about 4 MB, so no object
    # may be built per factor
    assert peak < 8 * 2**20, peak


@given(nonempty_texts, nonempty_texts)
def test_lyndon_concatenation_closure(u, v):
    if is_lyndon(u) and is_lyndon(v) and u.symbols < v.symbols:
        assert is_lyndon(concat(u, v))


def test_occurrences_examples():
    f6, f8 = fibonacci_word(6), fibonacci_word(8)
    assert occurrences(f6, f8) == [1, 9, 14]
    assert occurrences(T("b"), T("aaa")) == []
    assert occurrences(T("aba"), T("ababa")) == [1, 3]
    with pytest.raises(ValueError):
        occurrences(T(""), T("a"))


@given(nonempty_texts, texts)
def test_occurrences_match_slicing(pattern, text):
    got = occurrences(pattern, text)
    m = len(pattern)
    want = [i + 1 for i in range(len(text) - m + 1)
            if text.symbols[i:i + m] == pattern.symbols]
    assert got == want


def test_text_validation():
    with pytest.raises(ValueError):
        Text((-1, 0))
    with pytest.raises(ValueError):
        Text((0, 1), {0: "a", 1: "a"})
    # names do not affect equality
    assert Text((0, 1), {0: "x", 1: "y"}) == Text((0, 1))


@pytest.mark.parametrize("symbols", [("a", "b"), (1, "a"), ("a",), (None, 0)])
@pytest.mark.parametrize("names", [None, {}])
def test_symbols_that_do_not_compare_with_0_are_refused(symbols, names):
    # every refusal of a text is a ValueError, this one raised at construction
    with pytest.raises(ValueError, match="^symbols must be integers$"):
        Text(symbols, names)


@pytest.mark.parametrize("symbols, names", [((1.5, 1), None), ((1, 2.0), {})])
def test_non_integer_symbols_are_refused_at_construction(symbols, names):
    # they compare with 0, so only the alphabet, read when the text is built, refuses them
    with pytest.raises(ValueError, match="^symbols must be integers$"):
        Text(symbols, names)


@pytest.mark.parametrize("symbols, names", [
    ((0, 97), {0: "a"}),            # a table name repeats a present default name
    ((1, 200), {1: "<200>"}),
    ((5,), {0: "x", 1: "<5>"}),     # so does the name of a key that is absent
    ((-1,), {-1: "x"}),
])
def test_name_table_cannot_repeat_a_shown_name(symbols, names):
    with pytest.raises(ValueError):
        Text(symbols, names)


def test_name_table_check_agrees_with_its_definition():
    """Seeded tables over ranks around the printable range, with names drawn
    from table names, default names and their near misses: a text refuses
    exactly the tables that show some name twice."""
    rng = random.Random(9)
    pool = ["a", "b", "$", "<200>", "<7>", "<07>", "A", "<127>", "~", "<32>", " "]
    refused = 0
    for _ in range(4000):
        symbols = tuple(rng.choice((0, 7, 32, 33, 36, 65, 97, 98, 126, 127, 200))
                        for _ in range(rng.randint(1, 6)))
        keys = rng.sample((7, 32, 33, 36, 65, 97, 98, 126, 127, 200, 300), rng.randint(0, 4))
        names = {k: rng.choice(pool + [chr(rng.randrange(33, 127))]) for k in keys}
        if shown_names_are_unique(symbols, names):
            assert Text(symbols, names).names == names
        else:
            refused += 1
            with pytest.raises(ValueError, match="display names must be unique"):
                Text(symbols, names)
    assert 1000 < refused < 3000, refused


def test_name_table_beside_default_names():
    from revsense.bwt import bwt_sentinel
    w = Text((0, 98, 200), {0: "a", 1: "<201>"})
    assert w.display() == "a b <200>"
    assert bwt_sentinel(w).output.display() == "<200> $ a b"
    assert Text((97,), {97: "a"}).display() == "a"


@pytest.mark.parametrize("symbols", [(7,), (5, 3, 5, 0, 9), (2**64, 1, 2**64 + 1, 1, 2**63)])
def test_dense_ranks_keep_the_order_of_the_symbols(symbols):
    w = Text(symbols)
    ranks = w.dense_ranks
    assert ranks.dtype == np.int32 and not ranks.flags.writeable
    assert w.alphabet == tuple(sorted(set(symbols)))
    assert ranks.tolist() == [w.alphabet.index(x) for x in symbols]
    assert w.dense_ranks is ranks
    # the reversal reads w's ranks backwards once w has them, else derives its own
    for rev in (reverse(w), reverse(Text(symbols))):
        assert rev.alphabet == w.alphabet
        assert rev.dense_ranks.tolist() == ranks.tolist()[::-1]
