import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revsense.bwt import bbwt, bwt, bwt_sentinel
from revsense.families import FamilySpec, generate, predict_transform
from revsense.harness import evaluate
from revsense.suffixes import build_suffix_context, cyclic_rotation_order
from revsense.text import Text, lyndon_starts, reverse

from oracles import (
    brute_bbwt,
    is_lyndon,
    lyndon_factorize,
    naive_cyclic_rotation_order,
    random_symbols,
    rle,
)

nonempty_texts = st.lists(st.integers(0, 4), min_size=1, max_size=48).map(lambda s: Text(tuple(s)))


def test_worked_example():
    w = Text.from_str("baabaaba")
    res = bwt(w)
    assert res.output == Text.from_str("bbbaaaaa")
    assert res.run_count == 2
    assert res.source is w and res.positions.tolist() == [0, 3, 6, 1, 4, 7, 2, 5]
    res_b = bbwt(w)
    assert res_b.output == Text.from_str("abbaaaab")
    assert res_b.run_count == 4


def test_u3_transforms():
    u3 = generate(FamilySpec("u_k", 3))
    assert bwt(u3).output == predict_transform(FamilySpec("u_k", 3), "plain")
    assert bwt(u3).run_count == 10
    assert bbwt(u3).output == predict_transform(FamilySpec("u_k", 3), "bijective")
    assert bbwt(u3).run_count == 11
    u3r = generate(FamilySpec("u_k_rev", 3))
    assert bwt(u3r).run_count == 13
    assert bbwt(u3r).run_count == 13


def test_sentinel_single_symbol():
    res = bwt_sentinel(Text.from_str("a"))
    assert res.output.display() == "a$"
    assert res.run_count == 2
    assert res.source.display() == "a$" and res.positions.tolist() == [0, 1]


def test_sentinel_adds_one_run_on_block_family():
    for k in (1, 2, 5, 9):
        u = generate(FamilySpec("u_k", k))
        assert bwt_sentinel(u).run_count == bwt(u).run_count + 1
        ur = reverse(u)
        assert bwt_sentinel(ur).run_count == bwt(ur).run_count + 1


def test_sentinel_keeps_the_names_of_unnamed_ranks():
    # ranks 97 and 98 print as "a" and "b" by their character codes
    assert bwt_sentinel(Text((97, 98, 97))).output.display() == "ab$a"


def test_sentinel_takes_a_free_name():
    # a symbol of w that shows "$" leaves the sentinel the next free name
    for w, shown in ((Text((0,), {0: "$"}), "$ <$>"),
                     (Text((1, 0), {0: "$", 1: "<$>"}), "$ <$> <<$>>")):
        assert bwt_sentinel(w).output.display() == shown
        assert evaluate(w, ["r_dollar"]) == evaluate(Text(w.symbols), ["r_dollar"])


def test_r_dollar_answers_whatever_the_names_show():
    # names drawn from the sentinel's candidates, on ranks that include 36,
    # whose default name is "$"
    rng = random.Random(33)
    candidates = ("$", "<$>", "<<$>>", "<36>")
    checked = 0
    for _ in range(300):
        s = tuple(rng.choice((0, 1, 2, 36, 37)) for _ in range(rng.randint(1, 12)))
        ranks = rng.sample(sorted(set(s)), rng.randint(0, len(set(s))))
        try:
            w = Text(s, dict(zip(ranks, rng.sample(candidates, min(len(ranks), 4)))))
        except ValueError:          # a name repeats the default "$" of an unnamed 36
            continue
        assert evaluate(w, ["r_dollar"]) == evaluate(Text(s), ["r_dollar"])
        checked += 1
    assert checked >= 200


def test_r_dollar_answers_when_an_unnamed_rank_prints_as_the_sentinel():
    # rank 36 prints as "$" by its character code, but no name table shows it so
    rng = random.Random(36)
    for s in (tuple(range(40)), tuple(rng.randrange(1000) for _ in range(2000))):
        named = Text(s, {r: f"<{r}>" for r in set(s)})
        assert evaluate(Text(s), ["r_dollar"]) == evaluate(named, ["r_dollar"])
    assert bwt_sentinel(Text((36, 1))).output.display() == "<1> $ <$>"


def test_r_dollar_answers_when_another_symbol_shows_as_36():
    # rank 36 prints as "$", so the sentinel shows as "<$>"
    for w, shown in ((Text((36, 5), {5: "<36>"}), "<36> $ <$>"),
                     (Text((36, 5, 7), {5: "<36>", 7: "<<36>>"}), "<<36>> $ <36> <$>")):
        assert evaluate(w, ["r_dollar"]) == evaluate(Text(w.symbols), ["r_dollar"])
        assert bwt_sentinel(w).output.display() == shown
        assert bwt_sentinel(w).output.symbols == bwt_sentinel(Text(w.symbols)).output.symbols


@given(nonempty_texts)
def test_bwt_is_permutation(w):
    assert Counter(bwt(w).output.symbols) == Counter(w.symbols)
    assert Counter(bbwt(w).output.symbols) == Counter(w.symbols)
    shifted = Counter(r + 1 for r in w.symbols)
    shifted[0] += 1
    assert Counter(bwt_sentinel(w).output.symbols) == shifted


@given(nonempty_texts)
def test_run_count_is_the_rle_length(w):
    for transform in (bwt, bwt_sentinel, bbwt):
        res = transform(w)
        assert res.run_count == len(rle(res.output))


@given(nonempty_texts)
def test_bwt_matches_suffix_order_with_unique_terminal(w):
    ext = Text(tuple(r + 1 for r in w.symbols) + (0,))
    sa = build_suffix_context(ext).sa
    expected = tuple(ext.symbols[p - 1] for p in sa)
    assert bwt(ext).output.symbols == expected


def naive_sentinel_bwt(w):
    """BWT of w$ over the shifted alphabet, from the naive rotation order."""
    ext = Text(tuple(r + 1 for r in w.symbols) + (0,))
    return tuple(ext.symbols[p - 1] for p in naive_cyclic_rotation_order(ext))


def test_sentinel_reads_its_order_off_the_suffix_array():
    rng = random.Random(45)
    texts = []
    for i in range(3000):
        sigma = rng.choice((1, 2, 3, 5))
        texts.append(Text(tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 39)))))
        if i % 3 == 0:
            # periodic blocks: repeated suffixes and runs of equal rotations
            block = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 6)))
            texts.append(Text((block * 39)[:rng.randint(1, 39)]))
    texts += [Text.from_str(s) for s in ("baabaaba", "mississippi", "abracadabra")]
    texts += [generate(FamilySpec(f, p)) for f, p in
              (("u_k", 3), ("u_k_rev", 4), ("T_p", 3), ("w_sigma", 6), ("c_fib_rev", 9))]
    for w in texts:
        expected = naive_sentinel_bwt(w)
        names = {r + 1: w.name_of(r) for r in w.symbols} | {0: "$"}
        for res in (bwt_sentinel(w), bwt_sentinel(w, build_suffix_context(w))):
            assert res.output.symbols == expected, w
            assert res.output.display() == Text(expected, names).display()
            assert res.run_count == len(rle(res.output))


def test_bwt_takes_a_rotation_order():
    for w in (Text.from_str("baabaaba"), Text.from_str("aaaa"), generate(FamilySpec("u_k", 3)),
              generate(FamilySpec("fib", 10)), generate(FamilySpec("fib_plus", 10))):
        for transform, starts in ((bwt, (0,)), (bbwt, lyndon_starts(w))):
            order = cyclic_rotation_order(w, starts)
            as_tuple = tuple(order.tolist())
            expected = transform(w)
            for given in (order, as_tuple):
                res = transform(w, given)
                assert (res.output, res.run_count) == (expected.output, expected.run_count)
            for wrong in (order[:-1], as_tuple[:-1], np.append(order, 0), as_tuple + (0,)):
                with pytest.raises(ValueError):
                    transform(w, wrong)
    for other in ("aba", "ababa"):
        with pytest.raises(ValueError):
            bwt_sentinel(Text.from_str("abab"), build_suffix_context(Text.from_str(other)))


def test_bbwt_equals_bwt_on_lyndon_words():
    rng = random.Random(41)
    seen = 0
    while seen < 300:
        w = Text(random_symbols(rng, 24))
        factors = lyndon_factorize(w)
        lyndon = factors[0]  # first factor is always Lyndon
        assert is_lyndon(lyndon)
        assert bbwt(lyndon).output == bwt(lyndon).output
        seen += 1


def test_bbwt_matches_oracle():
    rng = random.Random(43)
    for i in range(2100):
        sigma = rng.choice((1, 2, 3, 4))
        if i % 3 == 0:
            # repeated blocks: duplicate factors, unary and non-primitive texts
            block = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 6)))
            s = block * rng.randint(1, 60 // len(block))
        else:
            s = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 60)))
        assert bbwt(Text(s)).output.symbols == brute_bbwt(s), s


def test_bbwt_scales_to_1e5():
    n = 10**5
    rng = random.Random(44)
    w = Text(tuple(rng.randrange(4) for _ in range(n)))
    t0 = time.time()
    tracemalloc.start()
    try:
        res = bbwt(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.time() - t0 < 60
    # linear scratch only: copying every rotation of a long factor is O(n^2)
    assert peak < 32 * 2**20, peak
    assert Counter(res.output.symbols) == Counter(w.symbols)


def test_bbwt_long_lyndon_factors():
    # F_20 (6765 symbols) has a 4181-symbol Lyndon factor, its reversal one of 2584
    assert bbwt(generate(FamilySpec("fib", 20))).run_count == 19
    assert bbwt(generate(FamilySpec("fib_rev", 20))).run_count == 33


def test_empty_rejected():
    for fn in (bwt, bbwt, bwt_sentinel):
        with pytest.raises(ValueError):
            fn(Text(()))
