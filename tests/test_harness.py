import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from revsense.bwt import bbwt, bwt, bwt_sentinel
from revsense.families import FamilySpec, generate
from revsense.harness import (
    MEASURE_IDS,
    MEASURES,
    READS,
    _MeasureRunner,
    evaluate,
    rows_to_csv,
    sensitivity_report,
    sweep,
    verify,
)
from revsense.lz import _sources_end_at_bounds, lz_end_greedy, lz_end_optimal, lz_no_overlap, lz_parse
from revsense.suffixes import PARTS, build_suffix_context
from revsense.text import Text, reverse

from oracles import random_symbols, rows_from_csv


def test_report_block_family():
    u5 = generate(FamilySpec("u_k", 5))
    (rep,) = sensitivity_report(u5, ["r"])
    assert (rep.value_fwd, rep.value_rev, rep.additive) == (16, 21, 5)
    assert rep.additive == len(u5) // 5
    assert rep.multiplicative == Fraction(21, 16)
    assert rep.exact


def test_report_reversed_block_family():
    w6r = reverse(generate(FamilySpec("w_sigma", 6)))
    (rep,) = sensitivity_report(w6r, ["z"])
    n = len(w6r)
    assert (rep.value_fwd, rep.value_rev) == (11, 13)
    assert rep.additive == (n + 2) // 6 - 1


def test_report_delta_invariance():
    rng = random.Random(12)
    for _ in range(50):
        w = Text(random_symbols(rng, 40))
        (rep,) = sensitivity_report(w, ["delta"])
        assert rep.additive == 0
        assert rep.multiplicative == 1


def test_report_antisymmetry():
    rng = random.Random(13)
    for _ in range(60):
        w = Text(random_symbols(rng, 32))
        fwd = sensitivity_report(w, ["r", "z", "v"])
        bwd = sensitivity_report(reverse(w), ["r", "z", "v"])
        for f, b in zip(fwd, bwd):
            assert f.additive == -b.additive
            assert f.multiplicative == 1 / b.multiplicative


def test_report_validation():
    with pytest.raises(KeyError):
        sensitivity_report(Text((0,)), ["nope"])
    with pytest.raises(ValueError):
        sensitivity_report(Text(()), ["r"])
    with pytest.raises(KeyError):
        evaluate(Text((0,)), ["nope"])
    with pytest.raises(ValueError):
        evaluate(Text(()), ["r"])


def test_evaluate_checks_every_id_before_computing(monkeypatch):
    from revsense import harness
    builds = []
    build = harness.build_suffix_context
    monkeypatch.setattr(harness, "build_suffix_context",
                        lambda w: builds.append(w) or build(w))
    with pytest.raises(KeyError, match="nope"):
        evaluate(Text.from_str("abaab"), ["z", "nope"])
    assert builds == []


def test_evaluate_keeps_the_given_order():
    w = generate(FamilySpec("u_k", 4))
    ids = ["z", "v", "z", "r", "delta"]
    reports = {r.measure: r for r in sensitivity_report(w, ids)}
    assert evaluate(w, ids) == [(reports[m].value_fwd, True) for m in ids]
    assert evaluate(w, iter(ids)) == evaluate(w, ids)


def test_report_without_lz_builds_no_matcher(monkeypatch):
    from revsense import lz
    builds = []
    init = lz._SuffixMatcher.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(lz._SuffixMatcher, "__init__", counted)
    search = Text.from_str("101000100001100010000100")
    assert len(lz.lz_parse(search)) != len(lz.lz_end_greedy(search))   # z_end runs its search
    for w in (Text.from_str("abracadabracabra"), generate(FamilySpec("c_fib_rev", 11)), search):
        sensitivity_report(w, ["v", "delta", "e"])
        # z, z_e and z_end's bound mark earlier ranks when no z_no reads the links
        for ids in (["z"], ["z_e"], ["z", "z_e"], ["z_end"], ["z", "z_e", "z_end"]):
            sensitivity_report(w, ids)
    assert builds == []


def test_z_no_is_the_non_overlapping_parse_size_on_every_path():
    """z_no returns z when no copy phrase of z's parse overlaps its source,
    else it walks the link pass, built up front with z_e or z_end and on
    demand without.  Each id set's runner is given w's context, so only its
    LZ decisions run per text."""
    rng = random.Random(35)
    settled = 0
    for i in range(20000):
        sigma = (1, 2, 3, 4, 8)[i % 5]
        w = Text(tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 40))))
        ctx = build_suffix_context(w)
        expected = (len(lz_no_overlap(w, ctx)), True)
        for ids in (["z", "z_no"], ["z_no"], ["z", "z_no", "z_e"], ["z_no", "z_end"]):
            runner = _MeasureRunner(w, ids, node_budget=1)   # z_end's search is not read
            runner.ctx = ctx
            assert MEASURES["z_no"](runner) == expected, (w, ids)
            if ids == ["z_no"]:
                settled += "links" not in vars(runner)
    assert 5000 < settled < 15000, settled      # both paths run often


def test_z_settles_z_e_and_z_end_on_every_path():
    """z_end is z, and so is z_e when z's parse is read anyway, where every
    copy phrase's source ends at an earlier bound of that parse; then the
    greedy end-aligned parse takes z's phrases.  Else both run as before.
    Each id set's runner is given the contexts of w and its reversal.  A
    budget of 10 nodes keeps z_end's search short: where z's parse settles,
    z = z_e, so the z == z_e shortcut of lz_end_optimal answers exactly at
    any budget.  3,881 of the 20,000 texts settle."""
    rng = random.Random(36)
    settled = 0
    for i in range(20000):
        sigma, n = (1, 2, 3, 4, 8)[i % 5], rng.randint(1, 40)
        if i % 3:
            w = Text(tuple(rng.randrange(sigma) for _ in range(n)))
        else:       # periodic
            period = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 6)))
            w = Text((period * n)[:n])
        ctx, rev_ctx = build_suffix_context(w), build_suffix_context(reverse(w))
        greedy, z = lz_end_greedy(w, ctx, rev_ctx), lz_parse(w, ctx)
        optimal, exact = lz_end_optimal(w, 10, ctx, greedy, z)
        if _sources_end_at_bounds(z):
            settled += 1
            assert greedy.bounds == z.bounds, w
        for ids in (["z_e"], ["z", "z_e"], ["z_e", "z_end"], ["z", "z_no", "z_e", "z_end"]):
            runner = _MeasureRunner(w, ids, node_budget=10)
            runner.ctx, runner.rev_ctx = ctx, rev_ctx
            assert MEASURES["z_e"](runner) == (len(greedy), True), (w, ids)
            if "z_end" in ids:
                assert MEASURES["z_end"](runner) == (len(optimal), exact), (w, ids)
            # z_e alone parses no z, and a settled parse runs no greedy end-aligned one
            assert ("lz" in vars(runner)) == (ids != ["z_e"]), ids
            assert ("lz_end" in vars(runner)) == (ids == ["z_e"] or not runner.z_settles_end), ids
    assert 2000 < settled < 18000, settled      # both paths run often


def test_a_report_hands_the_reversal_w_s_context(monkeypatch):
    """A lone runner sorts reverse(w) for z_e with sa and isa only; a
    report sorts it with the report's arrays, as the reversal's ctx, and
    hands w's context over as the reversal's rev_ctx even when z's parse
    settled z_e on w and sorted no reversal there.  On aabaaa it does, and
    on its reversal aaabaa, where z = 4 < z_e = z_end = 5, it does not."""
    from revsense import suffixes
    runs = []
    rounds = suffixes._doubling_rounds
    monkeypatch.setattr(suffixes, "_doubling_rounds",
                        lambda rank, succ: runs.append(len(rank)) or rounds(rank, succ))
    w = Text.from_str("aabaaa")
    runner = _MeasureRunner(w, ["z_e"])
    assert MEASURES["z_e"](runner) == (5, True)
    assert runner.rev_ctx.lcp is None and runner.rev_ctx.sa == build_suffix_context(reverse(w)).sa
    assert [_sources_end_at_bounds(lz_parse(x)) for x in (w, reverse(w))] == [True, False]
    runs.clear()
    reports = sensitivity_report(w, ["z", "z_e", "z_end"])
    assert runs == [len(w) + 1] * 2, runs
    assert [(r.value_fwd, r.value_rev) for r in reports] == [(5, 4), (5, 5), (5, 5)]


def test_a_context_holds_the_arrays_its_measures_read():
    w = generate(FamilySpec("fib_plus", 12))
    runner = _MeasureRunner(w, ["r_dollar"])
    assert MEASURES["r_dollar"](runner) == (bwt_sentinel(w).run_count, True)
    assert (runner.ctx.isa, runner.ctx.lcp) == (None, None)
    assert runner.ctx.sa == build_suffix_context(w).sa
    runner = _MeasureRunner(w, ["r", "r_dollar", "delta"])
    assert runner.parts == {"sa", "lcp"}
    assert set(READS) == set(MEASURES)


def test_each_measure_reads_only_its_declared_arrays():
    """Run alone, a measure's context holds only the arrays READS names
    (and sa); its value equals the one read off full contexts."""
    rng = random.Random(36)
    texts = [generate(FamilySpec(f, p)) for f, p in (("t55", None), ("T_p_rev", 3), ("fib", 10),
                                                     ("u_k", 4), ("w_sigma", 8), ("c_fib_rev", 9))]
    texts += [Text(random_symbols(rng, 60)) for _ in range(40)]
    for w in texts:
        for m in MEASURE_IDS:
            lean = _MeasureRunner(w, [m])
            full = _MeasureRunner(w, [m])
            full.ctx, full.rev_ctx = build_suffix_context(w), build_suffix_context(reverse(w))
            assert MEASURES[m](lean) == MEASURES[m](full), (m, w)
            if "ctx" in vars(lean):
                kept = {p for p in PARTS if getattr(lean.ctx, p) is not None}
                assert kept == READS[m] | {"sa"}, m


def test_r_dollar_alone_keeps_no_lcp_lift():
    """r_dollar reads only sa, so its context keeps no doubling rounds and
    no isa or lcp: on F_26 the peak is about 6.1 MB, and 12.6 MB with all
    three arrays."""
    w = generate(FamilySpec("fib", 26))
    tracemalloc.start()
    try:
        evaluate(w, ["r_dollar"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("big", [2**63, 2**64 + 5, 10**30])
def test_symbols_past_int64(big):
    # numpy holds these as Python-int objects; only their order may matter
    w = Text((big, 1, big, 0, big, big, 1, 0, big))
    small = Text((2, 1, 2, 0, 2, 2, 1, 0, 2))
    assert sensitivity_report(w, MEASURE_IDS) == sensitivity_report(small, MEASURE_IDS)


def test_neighbouring_symbols_past_int64_stay_apart():
    # as float64, which numpy picks for 2^63 + 1 mixed with small ints,
    # 2^63 + 1 and 2^63 + 2 are one value
    big = 2**63
    ranks = (big + 1, big + 2, 0, big + 1, big + 2, 0, big + 2)
    w = Text(ranks)
    small = Text(tuple(3 if r == big + 2 else 2 if r else 1 for r in ranks))
    assert sensitivity_report(w, MEASURE_IDS) == sensitivity_report(small, MEASURE_IDS)
    assert bwt(w).output.symbols == tuple(big + r - 1 if r > 1 else 0 for r in bwt(small).output)


@pytest.mark.parametrize("measure", MEASURE_IDS)
def test_non_integer_symbols_are_refused(measure):
    # as int64, 1.5 and 1 would share a rank: r = 2 and r_b = 5 here
    # where the same pattern over integers has 3 and 3
    with pytest.raises(ValueError, match="symbols must be integers"):
        evaluate(Text((1.5, 1, 2, 1.5, 1, 2)), [measure])
    with pytest.raises(ValueError, match="symbols must be integers"):
        evaluate(Text((1, 2.0, 1)), [measure])
    # numpy integers are integers
    ints = (10, 11, 12, 10, 11, 12)
    assert evaluate(Text(tuple(map(np.int64, ints))), [measure]) == evaluate(Text(ints), [measure])


def test_node_budget_must_be_a_positive_integer():
    # a budget the node count never equals would search to the end: 0.9 s and
    # (24, True) for 1000.5, where budget 1000 stops at (26, False)
    rng = random.Random(1)
    w = Text(tuple(rng.randrange(2) for _ in range(90)))
    for budget in (1000.5, 1000.0, "1000", 0, -1):
        with pytest.raises(ValueError, match="node_budget must be a positive integer"):
            evaluate(w, ["z_end"], budget)
    assert evaluate(w, ["z_end"], np.int64(1000)) == evaluate(w, ["z_end"], 1000) == [(26, False)]


def test_r_dollar_reads_the_shared_suffix_sort(monkeypatch):
    """delta sorts the suffixes of w, which are the rotations of w$, and
    r sorts the rotations of w: two doubling runs, none for r_dollar."""
    from revsense import suffixes
    runs = []
    rounds = suffixes._doubling_rounds

    def counted(rank, succ):
        runs.append(len(rank))
        return rounds(rank, succ)

    monkeypatch.setattr(suffixes, "_doubling_rounds", counted)
    for w in (generate(FamilySpec("fib", 12)), Text.from_str("abracadabra")):
        runs.clear()
        r_dollar = evaluate(w, ["delta", "r", "r_dollar"])[2]
        assert runs == [len(w) + 1, len(w)], runs
        assert r_dollar == (bwt_sentinel(w).run_count, True)


def test_z_e_reads_the_reversal_s_suffix_sort(monkeypatch):
    """z_e reads the suffix order of reverse(w), which a report sorts for
    the other orientation anyway: two doubling runs per report, of w$ and
    of reverse(w)$, and two for z_e on one orientation.  Beside z, whose
    parse settles z_e on abracadabra but not on F_12, z_e sorts only w$
    there."""
    from revsense import suffixes
    runs = []
    rounds = suffixes._doubling_rounds

    def counted(rank, succ):
        runs.append(len(rank))
        return rounds(rank, succ)

    monkeypatch.setattr(suffixes, "_doubling_rounds", counted)
    for w, beside_z in ((generate(FamilySpec("fib", 12)), 2), (Text.from_str("abracadabra"), 1)):
        runs.clear()
        (rep,) = sensitivity_report(w, ["z_e"])
        assert runs == [len(w) + 1] * 2, runs
        runs.clear()
        assert evaluate(w, ["z_e"]) == [(rep.value_fwd, True)]
        assert runs == [len(w) + 1] * 2, runs
        assert evaluate(reverse(w), ["z_e"]) == [(rep.value_rev, True)]
        runs.clear()
        assert evaluate(w, ["z", "z_e"])[1] == (rep.value_fwd, True)
        assert runs == [len(w) + 1] * beside_z, runs


def test_report_hands_over_no_matcher():
    """A report with z_e keeps the forward suffix arrays for the reversal's
    z_e and hands over no link pass; z and z_e build none.  On F_27 the
    peak is about 51 MB.  It was about 61 MB when each orientation built
    its link pass, and 71 MB when the forward one was handed over too.
    The bound leaves 4 MB, about 8 %, above the measured peak."""
    w = generate(FamilySpec("fib", 27))
    tracemalloc.start()
    try:
        sensitivity_report(w, ["z", "z_e"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 55 * 2**20, peak


def test_phrase_counts_build_no_phrases():
    """A parse measure reads only the length of a parsing, which holds its
    bounds and sources as ints; z_end counts by the z == z_e shortcut on
    F_10 and by a search that beats the greedy z_e on 1001011010111."""
    assert evaluate(generate(FamilySpec("fib", 10)), ["z", "z_e", "z_end"]) == [(9, True)] * 3
    w = Text.from_str("1001011010111")
    assert evaluate(w, ["z", "z_e", "z_end"]) == [(8, True), (9, True), (8, True)]


def _count_text_builds(monkeypatch) -> list:
    from revsense import text
    built = []
    init = text.Text.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(text.Text, "__init__", counted)
    return built


def test_run_counts_build_no_output(monkeypatch):
    """r and r_b count runs on the gathered symbol ranks and build no Text;
    r_dollar builds one, the shifted text w$.  A transform's output is
    built when it is read, and equals the oracles' outputs."""
    from oracles import brute_bbwt, naive_cyclic_rotation_order
    rng = random.Random(19)
    texts = [Text(random_symbols(rng, 60)) for _ in range(300)]
    texts += [Text.from_str("baabaaba"), Text((2**64, 3, 2**64 + 1, 3, 2**63))]
    texts += [generate(FamilySpec(f, p)) for f, p in (("u_k", 3), ("fib_plus", 10), ("c_fib_rev", 9))]
    built = _count_text_builds(monkeypatch)
    for w in texts:
        built.clear()
        assert evaluate(w, ["r", "r_b"])[0][0] == bwt(w).run_count
        assert built == []
        plain, bijective = bwt(w), bbwt(w)
        assert built == [] and "output" not in vars(plain)
        evaluate(w, ["r_dollar"])
        assert len(built) == 1
        sentinel = bwt_sentinel(w)
        s = w.symbols
        assert plain.output.symbols == tuple(s[p - 1] for p in naive_cyclic_rotation_order(w)), w
        assert bijective.output.symbols == brute_bbwt(s), w
        ext = Text(tuple(x + 1 for x in s) + (0,))
        assert sentinel.output.symbols == tuple(ext.symbols[p - 1]
                                                for p in naive_cyclic_rotation_order(ext)), w
        assert plain.output.names is w.names


def test_a_report_derives_symbol_ranks_once(monkeypatch):
    """The suffix sorts and rotation orders of w, reverse(w) and the
    shifted w$ all read the ranks derived once from w's symbols."""
    from revsense import text
    derived = []
    derive = text._dense_symbol_ranks

    def counted(symbols, alphabet):
        derived.append(len(symbols))
        return derive(symbols, alphabet)

    monkeypatch.setattr(text, "_dense_symbol_ranks", counted)
    rng = random.Random(20)
    for s in (generate(FamilySpec("fib", 12)).symbols, random_symbols(rng, 500, min_n=400)):
        derived.clear()
        reports = sensitivity_report(Text(s), ["r", "r_b", "r_dollar", "z", "z_e"])
        assert derived == [len(s)]
        derived.clear()
        values = evaluate(Text(s), ["r", "r_b", "r_dollar", "z", "z_e"])
        assert derived == [len(s)]
        assert values == [(r.value_fwd, True) for r in reports]


def test_run_count_memory_is_bounded():
    """r, r_b and r_dollar at n = 2*10^5 peak at about 25 MB: 30.5 MB when
    each rotation order became a tuple and each output a Text."""
    rng = random.Random(7)
    w = Text(tuple(rng.randrange(4) for _ in range(2 * 10**5)))
    tracemalloc.start()
    try:
        evaluate(w, ["r", "r_b", "r_dollar"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20, peak


def test_measure_ids_complete():
    assert set(MEASURE_IDS) == {"delta", "e", "r", "r_b", "r_dollar", "v",
                                "z", "z_e", "z_end", "z_no"}
    assert MEASURE_IDS == tuple(sorted(MEASURES))


def test_sweep_structure_and_order():
    rows = sweep("u_k", range(1, 11), ["r", "r_b"])
    assert len(rows) == 40  # 10 params x 2 measures x 2 orientations
    base = rows[:20]
    derived = rows[20:]
    assert all(r.family == "u_k" for r in base)
    assert all(r.family == "u_k_rev" for r in derived)
    assert [(r.param, r.measure) for r in base] == [
        (p, m) for p in range(1, 11) for m in ("r", "r_b")]
    for b, d in zip(base, derived):
        assert (b.value_fwd, b.value_rev) == (d.value_rev, d.value_fwd)
        assert b.additive == -d.additive
    # closed-form additive gaps: r grows by k, r_b by k-1
    for r in base:
        if r.measure == "r":
            assert r.additive == r.param
        else:
            assert r.additive == r.param - 1


def test_sweep_takes_an_iterator_of_ids():
    rows = sweep("u_k", [1, 2, 3], iter(["r", "r_b"]))
    assert len(rows) == 12
    assert rows == sweep("u_k", [1, 2, 3], ["r", "r_b"])


def test_sweep_ratio_column():
    rows = [r for r in sweep("T_p_rev", range(2, 11), ["z"]) if r.family == "T_p_rev"]
    ratios = [r.multiplicative for r in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < 3 for r in ratios)


def test_sweep_constant_column():
    rows = [r for r in sweep("c_fib_rev", range(9, 18, 2), ["v"]) if r.family == "c_fib_rev"]
    assert all(r.value_fwd == 6 for r in rows)


def test_sweep_invalid_param_names_value():
    with pytest.raises(ValueError, match="even"):
        sweep("w_sigma", [2, 3], ["z"])


def test_csv_round_trip_and_determinism():
    rows = sweep("w_sigma", range(2, 13, 2), ["z", "v", "delta"])
    csv1 = rows_to_csv(rows)
    csv2 = rows_to_csv(sweep("w_sigma", range(2, 13, 2), ["z", "v", "delta"]))
    assert csv1 == csv2
    assert rows_from_csv(csv1) == rows
    header = csv1.splitlines()[0]
    assert header == ("family,param,n,measure,value_fwd,value_rev,additive,"
                      "multiplicative_num,multiplicative_den,exact")


def test_csv_rejects_garbage():
    with pytest.raises(ValueError):
        rows_from_csv("not,a,known,header\n")


def test_verify_families():
    rows = verify("u_k", range(1, 8))
    assert len(rows) == 7 * 5  # r, r_b, r_dollar + bwt + bbwt per parameter
    assert all(r.ok for r in rows)
    checks = {r.check for r in rows}
    assert checks == {"r", "r_b", "r_dollar", "bwt", "bbwt"}
    assert all(r.ok for r in verify("t55", [None]))
    assert all(r.ok for r in verify("w_sigma_rev", range(2, 11, 2)))


def test_verify_transforms_each_member_once(monkeypatch):
    """The r and r_b rows and the bwt and bbwt rows of a member share one
    transform each, and rebinding harness.bwt/bbwt (as a tracer does) is
    seen."""
    from revsense import harness
    calls = []
    for name in ("bwt", "bbwt"):
        fn = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda w, name=name, fn=fn: calls.append(name) or fn(w))
    for family in ("u_k", "u_k_rev"):
        calls.clear()
        rows = verify(family, range(1, 4))
        assert {r.check for r in rows} >= {"r", "r_b", "bwt", "bbwt"}
        assert all(r.ok for r in rows)
        assert sorted(calls) == ["bbwt"] * 3 + ["bwt"] * 3


def test_verify_reports_param_and_values():
    row = verify("unary_plus", [5])[0]
    assert (row.family, row.param, row.check) == ("unary_plus", 5, "e")
    assert row.expected == row.computed == 5
