import pytest

from revsense.families import (
    FAMILIES,
    VERIFY_GRIDS,
    _PREDICTORS,
    FamilySpec,
    T55,
    a_staircase,
    b_staircase,
    central_word,
    fibonacci_word,
    generate,
    predict_transform,
    predictions,
    transform_predictions,
)
from revsense.lz import lz_parse
from revsense.text import reverse

from oracles import concat, fib_property_check, occurrences, predict


def test_generate_examples():
    u1 = generate(FamilySpec("u_k", 1))
    assert u1.display() == "b a #_1 a &_1"
    assert len(u1) == 5
    w6 = generate(FamilySpec("w_sigma", 6))
    assert w6.display() == "a_1 a_2 a_2 a_3 a_3 a_4 a_4 a_5 a_5 a_6 a_1 a_2 a_3 a_4 a_5 a_6"
    assert len(w6) == 16
    t4 = generate(FamilySpec("T_p", 4))
    assert len(t4) == 129
    assert generate(FamilySpec("t55")).display() == T55


def test_staircases():
    assert a_staircase(4).display() == "a_4 a_3 a_2 a_1 a_3 a_2 a_1 a_2 a_1 a_1"
    assert b_staircase(4).display() == "b_1 b_2 b_1 b_3 b_2 b_1 b_4 b_3 b_2 b_1"
    for p in range(1, 51):
        for block in (a_staircase(p), b_staircase(p)):
            assert len(block) == p * (p + 1) // 2
            assert len(lz_parse(block)) == 2 * p - 1
            assert len(lz_parse(reverse(block))) == 2 * p - 1


def test_length_formulas():
    for k in range(1, 40):
        assert len(generate(FamilySpec("u_k", k))) == 5 * k
    for sigma in range(2, 60, 2):
        assert len(generate(FamilySpec("w_sigma", sigma))) == 3 * sigma - 2
    for p in range(1, 10):
        m = p * (p + 1) // 2
        assert len(generate(FamilySpec("T_p", p))) == m * m + 3 * m - 1
    for k in range(2, 20):
        assert len(generate(FamilySpec("fib_plus", k))) == len(fibonacci_word(k)) + 1


def test_unique_marker_pairs_in_staircase_blocks():
    # every pair b_i a_k that occurs in T_p occurs exactly once
    for p in (2, 3, 4, 5):
        w = generate(FamilySpec("T_p", p))
        s = w.symbols
        pairs = {}
        for u, v in zip(s, s[1:]):
            if 1 <= u - p <= p and 1 <= v <= p:  # b then a
                pairs[(u, v)] = pairs.get((u, v), 0) + 1
        assert pairs and all(c == 1 for c in pairs.values())


def test_reversed_ids_reverse_the_base():
    params = {"u_k": 4, "T_p": 3, "w_sigma": 8, "fib": 9, "central": 9,
              "fib_plus": 8, "c_fib": 9, "unary_plus": 7, "t55": None}
    for base, param in params.items():
        fwd = generate(FamilySpec(base, param))
        rev = generate(FamilySpec(base + "_rev", param))
        assert rev == reverse(fwd)


def test_parameter_validation():
    for family, param in [("u_k", 0), ("T_p", 0), ("w_sigma", 3), ("w_sigma", 0),
                          ("fib", 0), ("central", 2), ("fib_plus", 1),
                          ("c_fib", 2), ("unary_plus", 1)]:
        with pytest.raises(ValueError):
            generate(FamilySpec(family, param))
    with pytest.raises(ValueError):
        generate(FamilySpec("u_k"))
    with pytest.raises(ValueError):
        generate(FamilySpec("t55", 3))
    with pytest.raises(ValueError):
        FamilySpec("no_such_family", 1)
    with pytest.raises(ValueError):
        FamilySpec("w_sigma", 5)


_SMALLEST = {"u_k": 1, "T_p": 1, "w_sigma": 2, "fib": 1, "central": 4,
             "fib_plus": 2, "c_fib": 3, "unary_plus": 2, "t55": None}


@pytest.mark.parametrize("family", FAMILIES)
def test_spec_checks_its_parameter_when_built(family):
    smallest = _SMALLEST[family.removesuffix("_rev")]
    with pytest.raises(ValueError):
        FamilySpec(family, 1 if smallest is None else smallest - 1)
    assert len(generate(FamilySpec(family, smallest))) > 0


def test_sweep_rejects_an_unknown_family():
    from revsense.harness import sweep
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        sweep("nope", [1], ["z"])


def test_fibonacci_words():
    assert fibonacci_word(1).display() == "b"
    assert fibonacci_word(2).display() == "a"
    assert fibonacci_word(6).display() == "abaababa"
    assert central_word(6).display() == "abaaba"
    for k in range(3, 20):
        assert fibonacci_word(k) == concat(fibonacci_word(k - 1), fibonacci_word(k - 2))


def test_predict_examples():
    assert predict(FamilySpec("u_k", 5), "r").value == 16
    assert predict(FamilySpec("u_k_rev", 5), "r").value == 21
    assert predict(FamilySpec("T_p", 4), "z").value == 30
    # verified closed form for the reversed staircase family: (m_p-1)+(4p-1)
    assert predict(FamilySpec("T_p_rev", 4), "z").value == 24
    assert predict(FamilySpec("w_sigma", 6), "v").value == 13
    assert predict(FamilySpec("w_sigma_rev", 6), "v").value == 11
    assert predict(FamilySpec("t55"), "z").value == 14
    assert predict(FamilySpec("t55_rev"), "z").value == 6
    assert predict(FamilySpec("unary_plus", 9), "e").value == 9
    assert predict(FamilySpec("unary_plus_rev", 9), "e").value == 16
    assert predict(FamilySpec("c_fib_rev", 11), "v").value == 6


def test_predict_absent_cases():
    assert predict(FamilySpec("fib", 9), "r") is None
    assert predict(FamilySpec("u_k", 5), "z") is None
    assert predict(FamilySpec("c_fib_rev", 8), "v") is None      # even index unsupported
    assert predict(FamilySpec("c_fib_rev", 7), "v") is None      # below the covered range
    assert predict(FamilySpec("fib_plus", 9), "r") is None       # odd index unsupported
    assert predict(FamilySpec("T_p_rev", 1), "z") is None        # degenerate base case
    assert predictions(FamilySpec("central", 8)) == ()


def test_every_prediction_carries_a_formula():
    for family in FAMILIES:
        param = {"w_sigma": 6, "w_sigma_rev": 6, "c_fib": 9, "c_fib_rev": 9,
                 "fib_plus": 8, "fib_plus_rev": 8, "t55": None, "t55_rev": None}.get(family, 5)
        for pred in predictions(FamilySpec(family, param)):
            assert pred.formula
            assert pred.measure


def test_verify_grids_cover_the_predicted_families():
    assert set(VERIFY_GRIDS) == set(_PREDICTORS)
    for quick, full in VERIFY_GRIDS.values():
        assert set(quick) <= set(full)


def test_predict_transform_examples():
    p3 = predict_transform(FamilySpec("u_k", 3), "plain")
    assert p3.display() == "a a a a a a b #_1 b #_2 b #_3 &_3 &_1 &_2"
    b3 = predict_transform(FamilySpec("u_k", 3), "bijective")
    assert b3.display() == "&_3 a a a a a #_1 b #_2 b #_3 a &_1 &_2 b"
    r3 = predict_transform(FamilySpec("u_k_rev", 3), "plain")
    assert r3.display() == "a b a b a b &_1 &_2 &_3 #_2 #_3 #_1 a a a"
    rb3 = predict_transform(FamilySpec("u_k_rev", 3), "bijective")
    assert rb3.display() == "b a b a b a &_1 &_2 &_3 #_1 #_2 #_3 a a a"
    with pytest.raises(ValueError):
        predict_transform(FamilySpec("w_sigma", 4), "plain")
    with pytest.raises(ValueError):
        predict_transform(FamilySpec("u_k", 3), "sideways")
    assert transform_predictions(FamilySpec("fib", 8)) == ()
    assert len(transform_predictions(FamilySpec("u_k", 2))) == 2


def test_fib_plus_odd_index_run_snapshots():
    # no closed form is claimed for odd indices (F_k then ends in b);
    # frozen regression values, computed once and pinned
    from revsense.bwt import bwt
    snapshot = {9: 8, 11: 10, 13: 12, 15: 14, 17: 16, 19: 18, 21: 20, 23: 22}
    for k, runs in snapshot.items():
        assert bwt(generate(FamilySpec("fib_plus", k))).run_count == runs


def test_fib_property_check():
    for k in (6, 9, 15):
        report = fib_property_check(k)
        assert report.all_hold(), (k, report)
    with pytest.raises(ValueError):
        fib_property_check(5)
    # occurrence positions for k = 9 specifically: 1, f_7+1 = 14, f_8+1 = 22
    assert occurrences(fibonacci_word(7), fibonacci_word(9)) == [1, 14, 22]
