import pytest

from revsense.families import FamilySpec, generate
from revsense.text import Text
from revsense.textio import (
    SerializationError,
    dump,
    from_ascii,
    from_tokens,
    load,
    to_ascii,
    to_tokens,
)


def test_ascii_round_trip():
    w = from_ascii("baabaaba\n")
    assert to_ascii(w) == "baabaaba"


def test_ascii_round_trips_dollar():
    w = from_ascii("ab$ab\n")
    assert to_ascii(w) == "ab$ab"
    assert load(dump(w, "ascii")).symbols == w.symbols


def test_ascii_rejects_multichar_names():
    w = generate(FamilySpec("u_k", 2))
    with pytest.raises(SerializationError):
        to_ascii(w)


@pytest.mark.parametrize("data", ["baab\naaba", "ab ba", "ab\tba", "ab\r\n", "caf\u00e9"])
def test_ascii_rejects_what_it_cannot_write(data):
    with pytest.raises(SerializationError):
        from_ascii(data)
    with pytest.raises(SerializationError):
        to_ascii(Text.from_str(data.rstrip("\n")))


def test_tokens_round_trip():
    w = generate(FamilySpec("u_k", 2))
    data = to_tokens(w)
    back = from_tokens(data)
    assert [back.name_of(r) for r in back.symbols] == [w.name_of(r) for r in w.symbols]
    assert data.splitlines()[0] == "#alphabet #_1 &_1 #_2 &_2 a b"


def test_tokens_preserve_order_sensitive_measures():
    from revsense.bwt import bwt
    w = generate(FamilySpec("u_k", 3))
    back = from_tokens(to_tokens(w))
    assert bwt(back).run_count == bwt(w).run_count


def test_tokens_reject_unknown_token():
    with pytest.raises(SerializationError):
        from_tokens("#alphabet a b\na c\n")


@pytest.mark.parametrize("w", [Text((0, 1, 0), {0: "", 1: "b"}), Text((5,), {5: ""})])
def test_tokens_refuse_an_empty_name(w):
    with pytest.raises(SerializationError, match="empty"):
        to_tokens(w)


def test_tokens_reject_missing_header():
    with pytest.raises(SerializationError):
        from_tokens("a b a\n")


@pytest.mark.parametrize("data", ["#alphabetb a\na a\n", " #alphabet a\na\n", "#alphabet_ a\na\n"])
def test_tokens_header_field_must_be_exactly_alphabet(data):
    with pytest.raises(SerializationError, match="'#alphabet' line"):
        from_tokens(data)


@pytest.mark.parametrize("data", ["#alphabet a b\na b\nb b b", "#alphabet a b\na b\n\n"])
def test_tokens_reject_lines_after_the_body(data):
    with pytest.raises(SerializationError):
        from_tokens(data)


def test_load_autodetect():
    assert load("#alphabet a b\nb a b\n") == Text((1, 0, 1))
    assert load("aba\n") == Text.from_str("aba")


@pytest.mark.parametrize("data", ["#alphabetx", "#alphabet_", "#alphabeta#alphabet"])
def test_ascii_that_starts_with_the_header_word_round_trips(data):
    # only "#alphabet" followed by whitespace or the end is a tokens header
    w = Text.from_str(data)
    assert load(dump(w, "ascii")).symbols == w.symbols


def test_ascii_refuses_the_text_that_reads_back_as_a_header():
    with pytest.raises(SerializationError, match="tokens header"):
        to_ascii(Text.from_str("#alphabet"))
    assert load("#alphabet\n") == Text(())


def test_dump_formats():
    w = Text.from_str("ab")
    assert dump(w, "ascii") == "ab\n"
    assert dump(w, "tokens") == "#alphabet a b\na b\n"
