import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revsense import suffixes
from revsense.bwt import bbwt, bwt_sentinel
from revsense.families import fibonacci_word
from revsense.lexparse import lex_parse
from revsense.lz import lz_end_greedy, lz_end_optimal, lz_no_overlap, lz_parse
from revsense.measures import right_extension_count, substring_complexity
from revsense.suffixes import _dense_ranks, _doubling_rounds, build_suffix_context, cyclic_rotation_order
from revsense.text import Text, lyndon_starts

from oracles import (
    brute_bbwt,
    kasai_lcp,
    naive_cyclic_rotation_order,
    naive_suffix_context,
    random_symbols,
)

nonempty_texts = st.lists(st.integers(0, 4), min_size=1, max_size=64).map(lambda s: Text(tuple(s)))


def test_examples():
    ctx = build_suffix_context(Text.from_str("abc"))
    assert ctx.sa.tolist() == [0, 1, 2]
    assert ctx.lcp.tolist() == [0, 0, 0]
    ctx = build_suffix_context(Text.from_str("aaa"))
    assert ctx.sa.tolist() == [2, 1, 0]
    assert ctx.lcp.tolist() == [0, 1, 2]
    w = Text.from_str("abracadabracabra")
    assert build_suffix_context(w) == naive_suffix_context(w)


def test_empty_rejected():
    with pytest.raises(ValueError):
        build_suffix_context(Text(()))
    with pytest.raises(ValueError):
        cyclic_rotation_order(Text(()))


@pytest.mark.parametrize("other", ["abracadabra" * 2, "abracadabr"])
@pytest.mark.parametrize("reader", [lz_parse, lz_no_overlap, lz_end_greedy, lz_end_optimal, lex_parse,
                                    substring_complexity, right_extension_count, bwt_sentinel],
                         ids=lambda f: f.__name__)
def test_context_of_another_length_is_refused(reader, other):
    # every public reader of a given context checks its length by one rule
    w = Text.from_str("abracadabra")
    with pytest.raises(ValueError, match=f"^a suffix context of {len(other)} suffixes for a text of length 11$"):
        reader(w, ctx=build_suffix_context(Text.from_str(other)))


@pytest.mark.parametrize("starts", [(), (1,), (-1, 2), (0, 2, 2), (0, 3, 1), (0, 6), (0, 2, 8)])
def test_rotation_order_rejects_bad_starts(starts):
    with pytest.raises(ValueError):
        cyclic_rotation_order(Text.from_str("abcabc"), starts)


@given(nonempty_texts)
def test_context_invariants(w):
    ctx = build_suffix_context(w)
    n = len(w)
    assert sorted(ctx.sa) == list(range(n))
    assert all(ctx.isa[ctx.sa[i]] == i for i in range(n))
    assert ctx.lcp[0] == 0
    for i in range(1, n):
        a = w.symbols[ctx.sa[i - 1]:]
        b = w.symbols[ctx.sa[i]:]
        assert a < b
        m = 0
        while m < len(a) and m < len(b) and a[m] == b[m]:
            m += 1
        assert ctx.lcp[i] == m


def _edge_texts(rng):
    """Texts at the doubling kernel's edges: n in {1, 2}; sigma in
    {1, 2, 4, 5} (so with and without the `$` of the suffix sort the
    symbol ranks end at or just past a power of two); lengths and periods
    around the packed key widths 31/32 and 62/63/64; sparse symbol values
    as large as 2^40."""
    yield from (Text(s) for s in ((0,), (7,), (0, 0), (0, 1), (1, 0), (2**40, 3)))
    for sigma in (1, 2, 4, 5):
        for n in (15, 16, 17, 31, 32, 33, 61, 62, 63, 64, 65, 127, 128, 129):
            yield Text(tuple(rng.randrange(sigma) for _ in range(n)))
            for period in (1, 2, 31, 32, 33, 63):
                block = tuple(rng.randrange(sigma) for _ in range(period))
                yield Text((block * (n // period + 1))[:n])
    values = (0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**31 - 1, 2**31, 2**40)
    for n in (1, 2, 31, 32, 63, 64):
        yield Text(tuple(rng.choice(values) for _ in range(n)))


def test_differential_bulk():
    rng = random.Random(97)
    texts = [Text(random_symbols(rng, 64)) for _ in range(1500)]
    for w in texts + list(_edge_texts(rng)):
        assert build_suffix_context(w) == naive_suffix_context(w), w
        assert tuple(cyclic_rotation_order(w)) == naive_cyclic_rotation_order(w), w


@pytest.mark.parametrize("bits", [16, 17, 31, 32, 40, 58, 62])
def test_kernel_with_wide_ranks(bits):
    """Ranks `bits` wide: two symbols still share one int64 key up to 31
    bits, and from 32 bits on nothing is packed.  From 58 bits on a key
    leaves no room for a position at n = 64, so the first sort is an
    argsort.  The order must equal the rotation oracle on the same
    symbols."""
    rng = random.Random(bits)
    top = (1 << bits) - 1
    for n in (1, 2, 3, 5, 17, 64):
        s = tuple(rng.choice((0, 1, top >> 1, top - 1, top)) for _ in range(n))
        succ = np.roll(np.arange(n), -1)
        *_, order = _doubling_rounds(np.asarray(s, dtype=np.int64), succ)
        assert tuple(order.tolist()) == naive_cyclic_rotation_order(Text(s)), s


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
def test_dense_ranks_by_value_sort_and_by_argsort(n):
    """Keys 1 to 62 bits wide with many ties: the ranks and the group count
    are numpy's unique inverse.  Where the largest key leaves room for a
    position, the order is the value sort's, equal keys by position;
    otherwise it is some order of the positions by key."""
    rng = np.random.default_rng(n)
    for bits in range(1, 63):
        pool = rng.integers(0, 1 << bits, size=max(1, n // 8), dtype=np.int64)
        pool[0] = (1 << bits) - 1
        key = rng.choice(pool, size=n)
        rank, groups, order = _dense_ranks(key)
        values, inverse = np.unique(key, return_inverse=True)
        assert rank.dtype == np.int32 and order.dtype == np.int64
        assert groups == len(values) and rank.tolist() == inverse.ravel().tolist()
        if int(key.max()).bit_length() + (n - 1).bit_length() <= 63:
            assert order.tolist() == np.lexsort((np.arange(n), key)).tolist()
        else:
            assert sorted(order.tolist()) == list(range(n))
            assert np.all(key[order][1:] >= key[order][:-1])


def test_one_cycle_is_read_by_shifting():
    """On one cycle the kernel reads the key 2^j positions on by shifting;
    it yields the same ids in every round, and the same order, as the
    explicit successor permutation of that cycle."""
    rng = random.Random(106)
    for _ in range(200):
        n = rng.randint(1, 300)
        sigma = rng.choice((1, 2, 3, 4, 50))
        period = rng.randint(1, n)
        block = [rng.randrange(sigma) for _ in range(period)]
        rank = np.asarray((block * (n // period + 1))[:n], dtype=np.int32)
        shifted = list(_doubling_rounds(rank, None))
        permuted = list(_doubling_rounds(rank, np.roll(np.arange(n), -1)))
        assert len(shifted) == len(permuted)
        for a, b in zip(shifted, permuted):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_alphabet_of_65537_symbols():
    """sigma = 2^16 + 1 distinct symbols: w = P P for a shuffled
    permutation P, whose suffix and rotation orders are known in closed
    form (the suffix in the second copy first, LCP m - i against its twin
    at i)."""
    m = 2**16 + 1
    p = list(range(m))
    random.Random(5).shuffle(p)
    w = Text(tuple(p) * 2)
    by_symbol = sorted(range(m), key=p.__getitem__)
    ctx = build_suffix_context(w)
    assert ctx.sa.tolist() == [x for i in by_symbol for x in (i + m, i)]
    assert ctx.lcp.tolist() == [x for i in by_symbol for x in (0, m - i)]
    assert tuple(cyclic_rotation_order(w)) == tuple(x for i in by_symbol for x in (i, i + m))


def _random_lyndon(rng, most, sigma):
    """The longest Lyndon factor of a random text of 1 to `most` symbols."""
    s = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, most)))
    bounds = lyndon_starts(Text(s)) + (len(s),)
    a, b = max(zip(bounds, bounds[1:]), key=lambda ab: ab[1] - ab[0])
    return s[a:b]


def test_rotation_order_of_many_cycles():
    """Every symbol its own cycle (starts 0..n-1); Lyndon factor cycles
    with one long factor; L^m M^j for Lyndon words L > M, whose equal
    factors tie forever, so the kernel stops when a sort splits no group;
    and one-cycle powers u^k.  The orders match the oracle and, read as a
    bijective BWT, the brute-force one."""
    rng = random.Random(101)
    for _ in range(200):
        sigma = rng.choice((1, 2, 3, 5))
        w = Text(tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 80))))
        starts = tuple(range(len(w)))
        assert tuple(cyclic_rotation_order(w, starts)) == naive_cyclic_rotation_order(w, starts)
    for n in (31, 32, 63, 64, 65, 300):
        # a unique smallest first symbol makes the factor Lyndon
        long_factor = (0,) + tuple(rng.randrange(1, 3) for _ in range(n - 1))
        s = (2, 1, 2) + long_factor + (0, 0)
        w = Text(s)
        starts = lyndon_starts(w)
        assert max(b - a for a, b in zip(starts, starts[1:] + (len(s),))) == n
        assert tuple(cyclic_rotation_order(w, starts)) == naive_cyclic_rotation_order(w, starts)
        assert bbwt(w).output.symbols == brute_bbwt(s)
    for _ in range(40):
        sigma = rng.choice((2, 3, 4))
        low, high = sorted((_random_lyndon(rng, 300, sigma), _random_lyndon(rng, 300, sigma)))
        if low == high:
            continue
        for m, j in ((1, 1), (2, 0), (2, 3), (4, 1)):
            s = high * m + low * j
            w = Text(s)
            starts = lyndon_starts(w)
            assert len(starts) == m + j
            assert tuple(cyclic_rotation_order(w, starts)) == naive_cyclic_rotation_order(w, starts)
            assert tuple(cyclic_rotation_order(w)) == naive_cyclic_rotation_order(w)
            assert bbwt(w).output.symbols == brute_bbwt(s)
    for _ in range(100):
        u = tuple(rng.randrange(rng.choice((1, 2, 4))) for _ in range(rng.randint(1, 40)))
        w = Text(u * rng.randint(1, 12))
        assert tuple(cyclic_rotation_order(w)) == naive_cyclic_rotation_order(w)


def test_lcp_direct_recompute_longer_strings():
    rng = random.Random(98)
    for _ in range(40):
        w = Text(random_symbols(rng, 256, alphabets=(2, 3), min_n=64))
        ctx = build_suffix_context(w)
        s = w.symbols
        for i in range(1, len(w)):
            a, b = s[ctx.sa[i - 1]:], s[ctx.sa[i]:]
            m = 0
            while m < len(a) and m < len(b) and a[m] == b[m]:
                m += 1
            assert ctx.lcp[i] == m


def _mutated_repeat(rng, n, block, rate):
    base = [rng.randrange(4) for _ in range(block)] * (n // block)
    return tuple((c + rng.randrange(1, 4)) % 4 if rng.random() < rate else c for c in base)


def _checked_lcp(w):
    """The context's LCP, after checking it against Kasai on the context's
    suffix array, and that array's order at each first mismatch."""
    s, n = w.symbols, len(w)
    ctx = build_suffix_context(w)
    assert tuple(ctx.lcp) == kasai_lcp(s, ctx.sa)
    for i in range(1, n):
        a, b, m = ctx.sa[i - 1], ctx.sa[i], ctx.lcp[i]
        assert a + m == n or (b + m < n and s[a + m] < s[b + m])
    return ctx.lcp


def test_lcp_against_kasai_on_long_texts():
    rng = random.Random(102)
    texts = [
        tuple(rng.randrange(4) for _ in range(10**5)),
        fibonacci_word(25).symbols,
        (0, 1) * 5000,
        _mutated_repeat(rng, 10**5, 1000, 0.001),
    ]
    for s in texts:
        _checked_lcp(Text(s))


def test_unary_lcp_is_a_staircase():
    # the suffixes of a^n sort shortest first, each a prefix of the next
    for n in range(1, 131):
        assert build_suffix_context(Text((0,) * n)).lcp.tolist() == list(range(n))


def test_lcp_at_powers_of_two():
    """A block of length L written twice, with different symbols after the
    copies, for L = 2^j - 1, 2^j, 2^j + 1: LCPs of L and around it sit on
    either side of a round's width, in the packed rounds (up to 32 symbols
    for sigma = 1) and in the sort rounds after them."""
    rng = random.Random(103)
    for sigma in (1, 2, 4, 5):
        for j in range(1, 8):
            for length in (2**j - 1, 2**j, 2**j + 1):
                block = tuple(rng.randrange(sigma) for _ in range(length))
                tail = tuple(rng.randrange(sigma + 2) for _ in range(rng.randrange(8)))
                lcp = _checked_lcp(Text(block + (sigma,) + block + (sigma + 1,) + tail))
                assert max(lcp) >= length


@pytest.mark.parametrize("text", ["unary", "random", "fibonacci"])
def test_suffix_context_memory_is_bounded(text):
    # the build keeps one int32 id array per doubling round: O(n log L) words;
    # the built context holds three int32 arrays, 2.4 MB here
    n = 2 * 10**5
    rng = random.Random(104)
    w = {
        "unary": lambda: Text((0,) * n),
        "random": lambda: Text(tuple(rng.randrange(4) for _ in range(n))),
        "fibonacci": lambda: fibonacci_word(27),    # n = 196,418; L = 121,391
    }[text]()
    tracemalloc.start()
    try:
        build_suffix_context(w)     # also derives w's cached dense ranks
        before, peak = tracemalloc.get_traced_memory()
        ctx = build_suffix_context(w)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < {"unary": 48, "random": 32, "fibonacci": 30}[text] * 2**20, peak
    assert held < 3 * 2**20, held
    assert len(ctx) == len(w)


@pytest.mark.parametrize("sigma", [2**7 - 1, 2**7, 2**7 + 1, 2**15 - 1, 2**15, 2**15 + 1])
def test_repack_at_width_boundaries(sigma):
    """sigma distinct symbols, all >= 2^32, so that the first dense ids
    (the symbol ranks) are 7, 8, 15 or 16 bits wide, both for the suffix
    sort, whose `$` makes sigma + 1 ids, and for the rotation orders: a
    phase then doubles three, two, two or one times, and its keys turn
    int64 at the last of these doublings.
    w = P P Q R: P is a shuffled permutation of the symbols that
    starts with the largest, Q is P with two symbols swapped, so reads stay
    equal for about sigma symbols and several phases run, and R puts the
    smallest symbols before the largest and the smallest.  The top id then
    follows the bottom id (`$` or the smallest symbol) and the bottom id
    follows the next one, which would collide in a width one bit too
    narrow.  w is primitive, so its rotation order is the order of the
    suffixes of w w that start in the first copy."""
    rng = random.Random(sigma)
    p = [2**32 + 3 * i for i in range(sigma)]
    rng.shuffle(p)
    top = p.index(max(p))
    p = p[top:] + p[:top]
    q = list(p)
    i, j = rng.sample(range(1, sigma), 2)
    q[i], q[j] = q[j], q[i]
    low, high = min(p), max(p)
    r = [x for y in sorted(p)[:8] for x in (y, high, y, low)]
    w = Text(tuple(p + p + q + r))
    s, n = w.symbols, len(w)
    assert len(set(s)) == sigma
    assert all(s != s[d:] + s[:d] for d in range(1, n) if n % d == 0)
    if sigma < 2**10:
        assert build_suffix_context(w) == naive_suffix_context(w)
        for starts in ((0,), lyndon_starts(w)):
            assert tuple(cyclic_rotation_order(w, starts)) == naive_cyclic_rotation_order(w, starts)
    else:
        _checked_lcp(w)
        doubled = Text(s * 2)
        _checked_lcp(doubled)
        expected = tuple(x for x in build_suffix_context(doubled).sa if x < n)
        assert tuple(cyclic_rotation_order(w)) == expected


def test_sort_count_on_repetitive_text(monkeypatch):
    """A sort re-packs the ids at their width, and shifts alone double
    while two keys fit in 62 bits: on F_20 (n = 6765) one sort per
    doubling took 10 sorts for the suffix order and 9 for the rotation
    order, on unary n = 10^4 10 and 12.  The kernel stops when a sort
    splits no group of its phase: the rotations of unary text all tie
    after one sort (3 while the reads ran to 2n symbols).  So do the equal
    rotations of a square or cube of a Lyndon word L of 5,001 symbols,
    whose reads split no more after about |L| symbols, in the rotation
    order and in the order of its Lyndon factors, all equal to L (7 and 6
    sorts while the reads ran to twice the longest cycle)."""
    sorts = []
    dense_ranks = suffixes._dense_ranks

    def counted(key):
        sorts.append(len(key))
        return dense_ranks(key)

    monkeypatch.setattr(suffixes, "_dense_ranks", counted)
    for w, most_suffix, most_rotation in ((fibonacci_word(20), 5, 5), (Text((0,) * 10**4), 5, 1)):
        sorts.clear()
        build_suffix_context(w)
        assert len(sorts) <= most_suffix, sorts
        sorts.clear()
        cyclic_rotation_order(w)
        assert len(sorts) <= most_rotation, sorts
    rng = random.Random(107)
    # a unique smallest first symbol makes the word Lyndon
    lyndon = (0,) + tuple(rng.randrange(1, 4) for _ in range(5000))
    for power in (2, 3):
        w = Text(lyndon * power)
        starts = lyndon_starts(w)
        assert starts == tuple(range(0, len(w), len(lyndon)))
        for cycles in ((0,), starts):
            sorts.clear()
            cyclic_rotation_order(w, cycles)
            assert len(sorts) <= 2, sorts


def test_rotation_order_examples():
    assert tuple(cyclic_rotation_order(Text.from_str("aaaa"))) == (0, 1, 2, 3)
    assert tuple(cyclic_rotation_order(Text.from_str("abab"))) == (0, 2, 1, 3)
    order = cyclic_rotation_order(Text.from_str("baabaaba"))
    w = Text.from_str("baabaaba").symbols
    last = "".join(chr(w[p - 1]) for p in order)
    assert last == "bbbaaaaa"


def test_rotation_order_is_an_int64_permutation_array():
    rng = random.Random(102)
    for w in (Text.from_str("a"), Text.from_str("baabaaba"), Text(random_symbols(rng, 300, min_n=200))):
        for starts in ((0,), lyndon_starts(w)):
            order = cyclic_rotation_order(w, starts)
            assert isinstance(order, np.ndarray) and order.dtype == np.int64
            assert sorted(order.tolist()) == list(range(len(w)))


def test_rotation_order_agrees_with_suffix_order_after_terminal():
    rng = random.Random(99)
    for _ in range(400):
        base = random_symbols(rng, 40)
        # append a strictly smaller unique terminal: shift ranks up, add 0
        w = Text(tuple(r + 1 for r in base) + (0,))
        assert cyclic_rotation_order(w).tolist() == build_suffix_context(w).sa.tolist()
