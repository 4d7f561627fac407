import random

import pytest
from hypothesis import given, strategies as st

from revsense.suffixes import (
    build_suffix_context,
    cyclic_rotation_order,
    naive_cyclic_rotation_order,
    naive_suffix_context,
)
from revsense.text import Text

from oracles import random_symbols

nonempty_texts = st.lists(st.integers(0, 4), min_size=1, max_size=64).map(lambda s: Text(tuple(s)))


def test_examples():
    ctx = build_suffix_context(Text.from_str("abc"))
    assert ctx.sa == (1, 2, 3)
    assert ctx.lcp == (0, 0, 0)
    ctx = build_suffix_context(Text.from_str("aaa"))
    assert ctx.sa == (3, 2, 1)
    assert ctx.lcp == (0, 1, 2)
    w = Text.from_str("abracadabracabra")
    assert build_suffix_context(w) == naive_suffix_context(w)


def test_empty_rejected():
    with pytest.raises(ValueError):
        build_suffix_context(Text(()))
    with pytest.raises(ValueError):
        cyclic_rotation_order(Text(()))


@pytest.mark.parametrize("starts", [(), (2,), (0, 3), (1, 3, 3), (1, 4, 2), (1, 7), (1, 3, 9)])
def test_rotation_order_rejects_bad_starts(starts):
    with pytest.raises(ValueError):
        cyclic_rotation_order(Text.from_str("abcabc"), starts)


@given(nonempty_texts)
def test_context_invariants(w):
    ctx = build_suffix_context(w)
    n = len(w)
    assert sorted(ctx.sa) == list(range(1, n + 1))
    assert all(ctx.isa[ctx.sa[i] - 1] == i + 1 for i in range(n))
    assert ctx.lcp[0] == 0
    for i in range(1, n):
        a = w.symbols[ctx.sa[i - 1] - 1:]
        b = w.symbols[ctx.sa[i] - 1:]
        assert a < b
        m = 0
        while m < len(a) and m < len(b) and a[m] == b[m]:
            m += 1
        assert ctx.lcp[i] == m


def test_differential_bulk():
    rng = random.Random(97)
    for _ in range(1500):
        w = Text(random_symbols(rng, 64))
        assert build_suffix_context(w) == naive_suffix_context(w)
        assert cyclic_rotation_order(w) == naive_cyclic_rotation_order(w)


def test_lcp_direct_recompute_longer_strings():
    rng = random.Random(98)
    for _ in range(40):
        w = Text(random_symbols(rng, 256, alphabets=(2, 3), min_n=64))
        ctx = build_suffix_context(w)
        s = w.symbols
        for i in range(1, len(w)):
            a, b = s[ctx.sa[i - 1] - 1:], s[ctx.sa[i] - 1:]
            m = 0
            while m < len(a) and m < len(b) and a[m] == b[m]:
                m += 1
            assert ctx.lcp[i] == m


def test_rotation_order_examples():
    assert cyclic_rotation_order(Text.from_str("aaaa")) == (1, 2, 3, 4)
    assert cyclic_rotation_order(Text.from_str("abab")) == (1, 3, 2, 4)
    order = cyclic_rotation_order(Text.from_str("baabaaba"))
    w = Text.from_str("baabaaba").symbols
    last = "".join(chr(w[p - 2]) for p in order)
    assert last == "bbbaaaaa"


def test_rotation_order_agrees_with_suffix_order_after_terminal():
    rng = random.Random(99)
    for _ in range(400):
        base = random_symbols(rng, 40)
        # append a strictly smaller unique terminal: shift ranks up, add 0
        w = Text(tuple(r + 1 for r in base) + (0,))
        assert cyclic_rotation_order(w) == build_suffix_context(w).sa
