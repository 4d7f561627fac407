import hashlib
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from revsense.bwt import bwt_sentinel
from revsense.families import FamilySpec, T55, generate
from revsense.lexparse import lex_parse
from revsense.lz import (
    Parsing,
    _SuffixMatcher,
    _earlier_matches,
    _match_lengths,
    lz_end_greedy,
    lz_end_optimal,
    lz_no_overlap,
    lz_parse,
)
from revsense.measures import right_extension_count, substring_complexity
from revsense.suffixes import build_suffix_context
from revsense.text import Text, reverse

from oracles import (
    brute_lz_end_greedy,
    brute_lz_no_overlap,
    brute_lz_shape,
    brute_match_lengths,
    decode_parsing,
    definition_lz_end_greedy,
    exhaustive_lz_end_size,
    left_source_optimal_size,
    phrase_texts,
    phrase_triples,
    random_symbols,
)

nonempty_texts = st.lists(st.integers(0, 3), min_size=1, max_size=40).map(lambda s: Text(tuple(s)))


def phrase_strings(parsing, w):
    return [t.display() for t in phrase_texts(parsing, w)]


def test_worked_example():
    w = Text.from_str("abracadabracabra")
    p = lz_parse(w)
    assert phrase_strings(p, w) == ["a", "b", "r", "a", "c", "a", "d", "abraca", "bra"]
    assert len(p) == 9
    assert lz_no_overlap(w).bounds == p.bounds


def test_t55_witness():
    w = generate(FamilySpec("t55"))
    assert len(w) == 55
    assert len(lz_parse(w)) == 14
    assert len(lz_parse(reverse(w))) == 6
    assert w.display() == T55


def test_unary_examples():
    a5 = Text.from_str("aaaaa")
    assert phrase_strings(lz_parse(a5), a5) == ["a", "aaaa"]
    assert phrase_strings(lz_no_overlap(a5), a5) == ["a", "a", "aa", "a"]
    assert phrase_strings(lz_end_greedy(a5), a5) == ["a", "a", "aa", "a"]
    opt, exact = lz_end_optimal(a5)
    # exhaustive enumeration over boundary subsets gives 4 (not 3: "aaa"
    # after a|a would need a source ending at boundary <= 2, i.e. start 0)
    assert exhaustive_lz_end_size(a5.symbols) == 4
    assert len(opt) == 4 and exact


def test_lz_end_examples():
    ab = Text.from_str("abab")
    pe = lz_end_greedy(ab)
    assert phrase_strings(pe, ab) == ["a", "b", "ab"]
    assert phrase_triples(pe) == ((1, 1, None), (2, 1, None), (3, 2, 1))
    abc = Text.from_str("abc")
    opt, exact = lz_end_optimal(abc)
    assert len(opt) == 3 and exact
    assert opt.sources == (None, None, None)


def test_block_family_counts():
    w6 = generate(FamilySpec("w_sigma", 6))
    p = lz_parse(w6)
    assert len(p) == 13
    assert lz_no_overlap(w6).bounds == p.bounds
    assert lz_end_greedy(w6).bounds == p.bounds
    opt, exact = lz_end_optimal(w6)
    assert exact and opt.bounds == p.bounds
    w6r = reverse(w6)
    assert len(lz_end_greedy(w6r)) == 11
    assert lz_end_greedy(w6r).bounds == lz_parse(w6r).bounds


def test_empty_and_budget_validation():
    with pytest.raises(ValueError):
        lz_parse(Text(()))
    with pytest.raises(ValueError):
        lz_end_optimal(Text(()))
    with pytest.raises(ValueError):
        lz_end_optimal(Text((0,)), node_budget=0)


def test_budget_exhaustion_flag():
    # a string with z < z_e forces the search; one node is never enough
    w = Text.from_str("aaaaa")
    parsing, exact = lz_end_optimal(w, node_budget=1)
    assert not exact
    assert len(parsing) == len(lz_end_greedy(w))  # best found so far = greedy


# one sha256 over the bounds, sources and exact flag of every search below:
# a change to the order in which the search enters nodes changes the
# budget-limited results, and so this digest
SEARCH_DIGEST = "77ae52755655d7bc881af349ecdad471a334e337332b37181e1a548dfdd20c30"


def test_budget_limited_search_is_pinned():
    rng = random.Random(27)
    texts = []
    while len(texts) < 50:
        sigma = rng.choice((2, 3))
        w = Text(tuple(rng.randrange(sigma) for _ in range(rng.randint(8, 40))))
        if len(lz_parse(w)) < len(lz_end_greedy(w)):      # the search runs
            texts.append(w)
    digest = hashlib.sha256()
    inexact = 0
    for w in texts:
        for budget in (1, 2, 3, 7, 50, 1000):
            p, exact = lz_end_optimal(w, budget)
            inexact += not exact
            digest.update(repr((p.bounds, p.sources, exact)).encode())
    assert 0 < inexact < 300
    assert digest.hexdigest() == SEARCH_DIGEST


def test_deep_search_needs_no_recursion_limit(monkeypatch):
    # 1001011010111 has z < z_e; each fresh symbol after it adds one phrase,
    # so the search's path is about n phrases long
    calls = []
    set_limit = sys.setrecursionlimit
    monkeypatch.setattr(sys, "setrecursionlimit", lambda k: (calls.append(k), set_limit(k)))
    w = Text((1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1) + tuple(range(2, 2 + 5 * 10**4)))
    t0 = time.perf_counter()
    p, exact = lz_end_optimal(w)
    elapsed = time.perf_counter() - t0
    assert exact and len(p) == len(lz_parse(w)) == len(lz_end_greedy(w)) - 1 == 50_008
    assert decode_parsing(p, w) == w.symbols and _source_constraints_ok(p, w)
    assert calls == []
    assert elapsed < 5


def test_match_lengths_vs_brute():
    rng = random.Random(19)
    texts = [tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 60)))
             for sigma in (1, 2, 4) for _ in range(40)]
    texts += [_thue_morse(n) for n in (1, 2, 5, 16, 33, 100)]
    for s in texts:
        ctx = build_suffix_context(Text(s))
        for i0 in range(len(s)):
            assert _match_lengths(ctx, i0) == brute_match_lengths(s, i0), (s, i0)


def test_end_optimal_search_memory_is_linear():
    # z = 2 and z_e = 12, so this searches; keeping one match array per
    # visited position took 1.3 MB above its inputs, the walk takes 0.1 MB
    w = Text((0,) * 2000)
    ctx = build_suffix_context(w)
    greedy, base = lz_end_greedy(w, ctx), lz_parse(w, ctx)
    assert len(base) < len(greedy)
    tracemalloc.start()
    try:
        lz_end_optimal(w, 3000, ctx, greedy, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak


@pytest.fixture
def matcher_builds(monkeypatch):
    """The arguments of each `_SuffixMatcher` build (link pass) from here on."""
    builds = []
    init = _SuffixMatcher.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(_SuffixMatcher, "__init__", counted)
    return builds


def test_one_matcher_per_text(matcher_builds):
    from revsense.harness import sensitivity_report
    builds = matcher_builds
    w = Text.from_str("101000100001100010000100")
    assert len(lz_parse(w)) != len(lz_end_greedy(w))     # z_end runs its search
    builds.clear()
    sensitivity_report(w, ["z", "z_no", "z_e", "z_end", "v"])
    assert len(builds) == 2                              # one per orientation
    builds.clear()
    assert lz_end_optimal(w)[1]
    assert builds == []                                  # its bound marks earlier ranks
    ctx, rev_ctx = build_suffix_context(w), build_suffix_context(reverse(w))
    for parse in (lz_parse, lz_no_overlap, lz_end_greedy, lz_end_optimal):
        assert parse(w, ctx=ctx) == parse(w)
    assert lz_end_greedy(w, ctx, rev_ctx) == lz_end_greedy(w)
    # a context is its three arrays, which are not hashable
    assert ctx == build_suffix_context(w)
    with pytest.raises(TypeError):
        hash(ctx)


def test_z_no_builds_a_link_pass_only_when_z_s_parse_overlaps(matcher_builds):
    from revsense.harness import sensitivity_report
    # no copy phrase of T_p_rev 6 overlaps its source, either way round
    w = generate(FamilySpec("T_p_rev", 6))
    reports = sensitivity_report(w, ["z", "z_no"])
    assert [(r.value_fwd, r.value_rev) for r in reports] == [(43, 63), (43, 63)]
    assert matcher_builds == []
    # beside z_e, which reads it too, the link pass is built up front
    sensitivity_report(w, ["z", "z_no", "z_e"])
    assert len(matcher_builds) == 2
    matcher_builds.clear()
    # a^8 is a, then a^7 copied from 0 over itself: z = 2, z_no = 4
    reports = sensitivity_report(Text.from_str("aaaaaaaa"), ["z", "z_no"])
    assert [(r.value_fwd, r.value_rev) for r in reports] == [(2, 2), (4, 4)]
    assert len(matcher_builds) == 2                      # one per orientation


def test_end_greedy_refuses_a_reverse_context_of_another_length():
    w = Text.from_str("abracadabra")
    assert lz_end_greedy(w, rev_ctx=build_suffix_context(reverse(w))) == lz_end_greedy(w)
    for other in ("abracadabr", "abracadabraa"):
        with pytest.raises(ValueError, match="reverse suffix context of"):
            lz_end_greedy(w, rev_ctx=build_suffix_context(Text.from_str(other)))


def test_z_end_reuses_the_greedy_parses(monkeypatch):
    from revsense import lz
    from revsense.harness import sensitivity_report
    parses = []
    greedy_parse = lz._greedy_parse

    def counted(w, ctx, longest_match, variant):
        parses.append(variant)
        return greedy_parse(w, ctx, longest_match, variant)

    monkeypatch.setattr(lz, "_greedy_parse", counted)
    w = Text.from_str("101000100001100010000100")
    reports = sensitivity_report(w, ["z", "z_e", "z_end"])
    # z and z_e parse each orientation once, and z_end's search starts from those parses
    assert sorted(parses) == ["lz", "lz", "lz_end_greedy", "lz_end_greedy"]
    assert [r.value_fwd for r in reports] == [len(lz_parse(w)), len(lz_end_greedy(w)),
                                              len(lz_end_optimal(w)[0])]
    greedy, base = lz_end_greedy(w), lz_parse(w)
    parses.clear()
    assert lz_end_optimal(w, greedy=greedy, base=base) == lz_end_optimal(w)
    assert parses == ["lz_end_greedy", "lz"]            # only from the call without them
    with pytest.raises(ValueError):
        lz_end_optimal(w, greedy=base)
    with pytest.raises(ValueError):
        lz_end_optimal(w, base=greedy)
    # parses of another text are refused too: for "abc" the shortcut would fire
    for other in (Text.from_str("abc"), w[1:], Text(w.symbols + w.symbols[:1])):
        for given in ({"greedy": lz_end_greedy(other)}, {"base": lz_parse(other)},
                      {"greedy": lz_end_greedy(other), "base": lz_parse(other)}):
            with pytest.raises(ValueError, match="parsings of w"):
                lz_end_optimal(w, **given)


def test_a_link_pass_stands_in_for_its_context():
    # every reader of a suffix context gives the same answer on the link
    # pass built over it, which keeps the context's arrays and length; on
    # the random text z < z_e, so z_end's search runs on the links
    rng = random.Random(28)
    readers = (lz_parse, lz_no_overlap, lz_end_greedy, lz_end_optimal, lex_parse,
               substring_complexity, right_extension_count, bwt_sentinel)
    for w in (generate(FamilySpec("t55")), generate(FamilySpec("fib", 12)),
              Text(tuple(rng.randrange(4) for _ in range(100)))):
        ctx = build_suffix_context(w)
        links = _SuffixMatcher(ctx)
        assert len(links) == len(ctx) == len(w)
        for read in readers:
            got, expected = read(w, ctx=links), read(w, ctx=ctx)
            if read is bwt_sentinel:      # transforms compare by output and run count
                got, expected = (got.output, got.run_count), (expected.output, expected.run_count)
            assert got == expected, (read.__name__, len(w))
        with pytest.raises(ValueError, match="suffix context of"):
            lz_parse(w[1:], links)


def _source_constraints_ok(parsing, w):
    ends = set()
    for start, length, source in phrase_triples(parsing):
        if source is not None:
            assert 1 <= source < start
            if parsing.variant == "lz_no":
                assert source + length - 1 < start
            if parsing.variant in ("lz_end_greedy", "lz_end"):
                assert source + length - 1 in ends
                assert source + length - 1 < start
        ends.add(start + length - 1)
    return True


@given(nonempty_texts)
@settings(max_examples=300)
def test_tiling_decoding_and_constraints(w):
    for parse in (lz_parse, lz_no_overlap, lz_end_greedy):
        p = parse(w)
        b = p.bounds
        assert b[0] == 0 and b[-1] == len(w) and len(b) == len(p) + 1
        assert all(i < j for i, j in zip(b, b[1:]))
        assert decode_parsing(p, w) == w.symbols
        assert _source_constraints_ok(p, w)


def test_differential_vs_brute():
    rng = random.Random(2)
    for _ in range(1500):
        s = random_symbols(rng, 48)
        w = Text(s)
        assert tuple(t[:2] for t in phrase_triples(lz_parse(w))) == brute_lz_shape(s)
        assert phrase_triples(lz_no_overlap(w)) == brute_lz_no_overlap(s)
        assert phrase_triples(lz_end_greedy(w)) == brute_lz_end_greedy(s)


def test_sources_match_oracle():
    # the rank walks must pick the leftmost source on ties, as the oracles do
    rng = random.Random(6)
    for k in range(2100):
        sigma = rng.randint(1, 4)
        n = rng.randint(1, 80)
        if k % 3 == 0:
            block = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 6)))
            s = (block * n)[:n]
        else:
            s = tuple(rng.randrange(sigma) for _ in range(n))
        w = Text(s)
        assert phrase_triples(lz_no_overlap(w)) == brute_lz_no_overlap(s), s
        assert phrase_triples(lz_end_greedy(w)) == brute_lz_end_greedy(s), s


def _thue_morse(n):
    return tuple(bin(i).count("1") & 1 for i in range(n))


def _end_greedy_stress_texts(rng):
    """Inputs where end-aligned sources are long, tied or far apart in the
    reverse suffix order."""
    texts = [_thue_morse(n) for n in range(1, 260, 3)]
    for _ in range(25):     # periodic, about 1 % of the symbols mutated
        block = tuple(rng.randrange(3) for _ in range(rng.randint(2, 9)))
        s = [block[i % len(block)] for i in range(rng.randint(40, 200))]
        texts.append(tuple((c + 1) % 3 if rng.random() < 0.01 else c for c in s))
    for _ in range(25):     # random runs
        s = []
        while len(s) < 90:
            s += [rng.randrange(3)] * rng.randint(1, 12)
        texts.append(tuple(s))
    for _ in range(25):     # squares XX
        x = random_symbols(rng, 45)
        texts.append(x + x)
    for big in (2**31, 2**32 + 7, 2**63, 10**30):   # symbols past int32, int64, uint64
        for _ in range(5):
            texts.append(tuple(big + c for c in random_symbols(rng, 60, alphabets=(2, 3))))
    return texts


def test_end_greedy_stress_vs_brute():
    for s in _end_greedy_stress_texts(random.Random(17)):
        assert phrase_triples(lz_end_greedy(Text(s))) == brute_lz_end_greedy(s), s


def _tie_run_texts(rng, n=3000):
    """Random texts over 4 and over n/30 symbols, whose one-symbol sources
    tie at about 30 phrase ends, and periodic blocks with 0.1 % of their
    symbols substituted."""
    texts = []
    for _ in range(2):
        texts.append(tuple(rng.randrange(4) for _ in range(n)))
        texts.append(tuple(rng.randrange(n // 30) for _ in range(n)))
        block = [rng.randrange(4) for _ in range(rng.randint(3, 12))]
        texts.append(tuple((c + rng.randrange(1, 4)) % 4 if rng.random() < 0.001 else c
                           for c in (block * n)[:n]))
    return texts


def test_end_greedy_long_tie_runs_vs_definition():
    # the walk over earlier-marked ends must stop at the leftmost source
    # in runs of tied ends far longer than the brute-oracle texts have
    for s in _tie_run_texts(random.Random(21)):
        w = Text(s)
        ctx, rev_ctx = build_suffix_context(w), build_suffix_context(reverse(w))
        for x, fwd, rev in ((w, ctx, rev_ctx), (reverse(w), rev_ctx, ctx)):
            assert (phrase_triples(lz_end_greedy(x, fwd, rev))
                    == definition_lz_end_greedy(x.symbols)), s


def _link_texts():
    """Short texts, random and periodic, over 1 to 4 symbols."""
    rng = random.Random(15)
    texts = [(0,), (0, 1), (1, 0), (0, 0)]
    for k in range(1500):
        sigma = rng.randint(1, 4)
        n = rng.randint(1, 80)
        if k % 3 == 0:
            block = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 6)))
            texts.append((block * n)[:n])
        else:
            texts.append(tuple(rng.randrange(sigma) for _ in range(n)))
    return texts


def test_matcher_links_match_definition():
    for s in _link_texts():
        n = len(s)
        m = _SuffixMatcher(build_suffix_context(Text(s)))
        sa = m.sa
        for r in range(n):
            before = [x for x in range(r) if sa[x] < sa[r]]
            after = [x for x in range(r + 1, n) if sa[x] < sa[r]]
            psv = before[-1] if before else -1
            nsv = after[0] if after else -1
            assert (m.psv[r], m.nsv[r]) == (psv, nsv), (s, r)
            for x, link in ((psv, m.plcp[r]), (nsv, m.nlcp[r])):
                ell = 0
                while x >= 0 and sa[r] + ell < n and s[sa[x] + ell] == s[sa[r] + ell]:
                    ell += 1
                assert link == ell, (s, r)


def test_marked_matches_equal_the_links():
    # asked at every position in increasing order, the marks of the earlier
    # ranks give the link pass's answer, length and source
    for s in _link_texts():
        ctx = build_suffix_context(Text(s))
        marked = _earlier_matches(Text(s), ctx)
        linked = _SuffixMatcher(ctx).longest_earlier_match
        for i0 in range(len(s)):
            assert marked(i0) == linked(i0), (s, i0)


def _texts_with_and_without_links():
    rng = random.Random(19)
    for w in (generate(FamilySpec("fib", 26)), generate(FamilySpec("T_p", 30)),
              generate(FamilySpec("T_p_rev", 30)), Text(_thue_morse(2**16)),
              Text(tuple(rng.randrange(1000) for _ in range(10**4)))):
        yield w
        yield reverse(w)


def test_parses_equal_with_and_without_links(matcher_builds):
    for w in _texts_with_and_without_links():
        ctx, rev_ctx = build_suffix_context(w), build_suffix_context(reverse(w))
        marked = lz_parse(w, ctx), lz_end_greedy(w, ctx, rev_ctx)
        assert matcher_builds == []
        links = _SuffixMatcher(ctx)
        matcher_builds.clear()
        linked = lz_parse(w, links), lz_end_greedy(w, links, rev_ctx)
        for p, q in zip(marked, linked):
            assert p.bounds == q.bounds and p.sources == q.sources, (len(w), p.variant)


def _far_marks(ctx, parsing):
    """Phrase starts of `parsing` whose nearest earlier-marked rank on some
    side lies more than 128 ranks away, where the marks lookup reads block
    minima."""
    marked, far = bytearray(len(ctx)), 0
    starts = parsing.bounds[:-1]
    for done, i0 in zip((0,) + starts, starts):
        for p in range(done, i0):
            marked[ctx.isa[p]] = 1
        r = ctx.isa[i0]
        a, b = marked.rfind(1, 0, r), marked.find(1, r)
        far += (a >= 0 and r - a > 128) or (b >= 0 and b - r > 128)
    return far


def test_marks_lookup_over_long_rank_gaps(matcher_builds):
    # the marks lookup marks a long phrase's positions by one numpy store and
    # takes the lcp over a long rank gap through 64-rank block minima; it
    # gives the link pass's bounds and sources
    rng = random.Random(37)
    block = [rng.randrange(4) for _ in range(1000)] * 30
    for i in rng.sample(range(len(block)), 30):
        block[i] = (block[i] + 1) % 4
    texts = {"random1000": Text(tuple(rng.randrange(1000) for _ in range(3 * 10**4))),
             "F_20": generate(FamilySpec("fib", 20)), "mutated": Text(tuple(block)),
             "unary": Text((0,) * 5000)}
    far = {}
    for name, w in texts.items():
        ctx = build_suffix_context(w)
        marked = lz_parse(w, ctx)
        assert matcher_builds == []
        linked = lz_parse(w, _SuffixMatcher(ctx))
        matcher_builds.clear()
        assert (marked.bounds, marked.sources) == (linked.bounds, linked.sources), name
        far[name] = _far_marks(ctx, marked)
        # asked every 1, 49 or 200 positions, as z_end's bound and long phrases ask
        links = _SuffixMatcher(ctx)
        for step in (1, 49, 200):
            ask = _earlier_matches(w, ctx)
            for i0 in range(0, len(w), step):
                assert ask(i0) == links.longest_earlier_match(i0), (name, step, i0)
        matcher_builds.clear()
    # 341, 8 and 108 phrases read block minima; unary's nearest mark is adjacent
    assert far["random1000"] > 100 and far["F_20"] > 0 and far["mutated"] > 50, far


def test_lz_parse_scales_without_links(matcher_builds):
    # T_p 40, n = 674,859: the link pass alone takes about 0.15 s; without
    # the first-symbol check the marked ranks' lcp scans cover about 62 n
    # ranks, and the parse 0.74 s
    w = generate(FamilySpec("T_p", 40))
    ctx = build_suffix_context(w)
    t0 = time.perf_counter()
    p = lz_parse(w, ctx)
    elapsed = time.perf_counter() - t0
    assert matcher_builds == []
    assert len(p) == 2460
    assert elapsed < 0.3, elapsed


def test_matcher_memory_is_linear():
    # the link pass keeps the context's arrays and adds four link lists,
    # about 10 MB here; a shifted list copy of either, [r + 1 for r in isa],
    # adds 7.6 MB of new ints
    rng = random.Random(16)
    ctx = build_suffix_context(Text(tuple(rng.randrange(4) for _ in range(2 * 10**5))))
    tracemalloc.start()
    try:
        _SuffixMatcher(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_end_greedy_memory_is_linear():
    # the parse holds the reversal's symbol bytes, one byte per rank for the
    # marks and two int32 links per rank: 3.8 MB before the links, 5.3 MB
    # with them
    rng = random.Random(16)
    w = Text(tuple(rng.randrange(4) for _ in range(2 * 10**5)))
    ctx, rev_ctx = build_suffix_context(w), build_suffix_context(reverse(w))
    links = _SuffixMatcher(ctx)
    tracemalloc.start()
    try:
        lz_end_greedy(w, links, rev_ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_parse_memory_is_compact():
    # about 25k phrases kept as two tuples of ints hold 1.2 MB; one object
    # per phrase held 4.0 MB
    rng = random.Random(16)
    w = Text(tuple(rng.randrange(4) for _ in range(2 * 10**5)))
    links = _SuffixMatcher(build_suffix_context(w))
    tracemalloc.start()
    try:
        p = lz_parse(w, links)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(p) > 20000
    assert held < 2 * 2**20, held


def test_parse_without_links_memory_is_compact(matcher_builds):
    # the marks take one byte per rank; the link pass adds four lists of
    # n ints, 11.7 MB peak with the parse here
    rng = random.Random(16)
    w = Text(tuple(rng.randrange(4) for _ in range(2 * 10**5)))
    ctx = build_suffix_context(w)
    tracemalloc.start()
    try:
        lz_parse(w, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matcher_builds == []
    assert peak < 3 * 2**20, peak


def _from_triples(triples, variant):
    """The parsing whose phrases are the given 1-based (start, length,
    source) triples."""
    starts = tuple(start - 1 for start, _, _ in triples)
    return Parsing(starts + (starts[-1] + triples[-1][1],),
                   tuple(None if src is None else src - 1 for _, _, src in triples), variant)


def _greedy_triples(n, longest_match):
    """The greedy loop written out over 1-based triples."""
    out, i0 = [], 0
    while i0 < n:
        ell, src0 = longest_match(i0)
        ell = max(ell, 1)
        out.append((i0 + 1, ell, None if src0 is None else src0 + 1))
        i0 += ell
    return tuple(out)


def test_compact_parsing_matches_explicit_phrases():
    rng = random.Random(17)
    searched = 0
    for _ in range(400):
        sigma = rng.choice((1, 2, 4))
        w = Text(tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 59))))
        s, n = w.symbols, len(w)
        ctx = build_suffix_context(w)
        sa, isa, lcp = ctx.sa, ctx.isa, ctx.lcp
        opt = lz_end_optimal(w, node_budget=5000)[0]
        searched += len(opt) < len(lz_end_greedy(w))
        # the search's parsing has no independent oracle: it is checked by
        # decoding and by the end-alignment constraints
        assert decode_parsing(opt, w) == s and _source_constraints_ok(opt, w)
        cases = [
            (lz_parse(w), _greedy_triples(n, _SuffixMatcher(ctx).longest_earlier_match)),
            (lz_no_overlap(w), brute_lz_no_overlap(s)),
            (lz_end_greedy(w), brute_lz_end_greedy(s)),
            (lex_parse(w), _greedy_triples(
                n, lambda i: (lcp[isa[i]], sa[isa[i] - 1] if lcp[isa[i]] else None))),
            (opt, phrase_triples(opt)),
        ]
        for p, ref in cases:
            q = _from_triples(ref, p.variant)
            assert p == q and hash(p) == hash(q)
            assert p != Parsing(p.bounds, p.sources, "other")
            assert len(p) == len(ref)
            assert phrase_texts(p, w) == [w[i - 1:i - 1 + length] for i, length, _ in ref]
            assert phrase_triples(p) == ref == phrase_triples(q)
    assert searched > 20


def _timed_parse(parse, w):
    t0 = time.perf_counter()
    p = parse(w)
    elapsed = time.perf_counter() - t0
    assert decode_parsing(p, w) == w.symbols
    assert _source_constraints_ok(p, w)
    return p, elapsed


def test_no_overlap_scales_to_1e5():
    rng = random.Random(13)
    w = Text(tuple(rng.randrange(4) for _ in range(10**5)))
    p, elapsed = _timed_parse(lz_no_overlap, w)
    assert len(lz_parse(w)) <= len(p)
    assert elapsed < 3


def test_end_greedy_scales_to_3e4():
    rng = random.Random(14)
    w = Text(tuple(rng.randrange(4) for _ in range(3 * 10**4)))
    p, elapsed = _timed_parse(lz_end_greedy, w)
    assert len(lz_parse(w)) <= len(p)
    assert elapsed < 3


@pytest.mark.parametrize("text", ["random", "thue_morse"])
def test_end_greedy_scales_to_1e5(text):
    rng = random.Random(18)
    if text == "random":
        w = Text(tuple(rng.randrange(4) for _ in range(10**5)))
    else:
        w = Text(_thue_morse(2**16))
    p, elapsed = _timed_parse(lz_end_greedy, w)
    assert len(lz_parse(w)) <= len(p)
    assert elapsed < 3


@pytest.mark.parametrize("parse", [lz_no_overlap, lz_end_greedy])
def test_unary_worst_case_1e5(parse):
    # z_no walks every earlier position of a unary text, rank by rank; z_e
    # passes its first check, a source ending at the last phrase end;
    # phrase lengths double: 1, 1, 2, 4, ...
    w = Text((0,) * 10**5)
    p, elapsed = _timed_parse(parse, w)
    assert len(p) == 18
    assert elapsed < 5


def test_optimal_lz_end_vs_exhaustive():
    rng = random.Random(3)
    for _ in range(250):
        s = random_symbols(rng, 12)
        w = Text(s)
        opt, exact = lz_end_optimal(w)
        assert exact
        assert len(opt) == exhaustive_lz_end_size(s), s
        assert decode_parsing(opt, w) == s
        assert _source_constraints_ok(opt, w)


def test_ordering_sandwich_sample():
    rng = random.Random(4)
    for _ in range(400):
        s = random_symbols(rng, 40)
        w = Text(s)
        z = len(lz_parse(w))
        z_no = len(lz_no_overlap(w))
        z_e = len(lz_end_greedy(w))
        z_end_p, exact = lz_end_optimal(w)
        assert exact
        assert z <= len(z_end_p) <= z_e
        assert z <= z_no


def test_greedy_is_optimal_among_left_source_parsings():
    rng = random.Random(5)
    for _ in range(400):
        s = random_symbols(rng, 16)
        assert len(lz_parse(Text(s))) == left_source_optimal_size(s)
