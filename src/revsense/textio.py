"""Text serializations shared by the CLI.

Two formats:

* ascii  -- one printable ASCII character ("!" to "~") per symbol on a
  single line; the byte order is the symbol order.
* tokens -- line 1 is ``#alphabet name1 name2 ...`` listing display
  names in strictly increasing symbol order, line 2 (the last line) the
  whitespace-separated token sequence.

Input that starts with the tokens header, ``#alphabet`` followed by
whitespace or the end, reads as tokens and anything else as ascii; so
the one text whose ascii form is that header, ``#alphabet``, is refused
in ascii.
"""

from __future__ import annotations

import re

from .text import Text

_TOKENS_HEADER = re.compile(r"#alphabet(\s|$)")


class SerializationError(ValueError):
    pass


def to_ascii(w: Text) -> str:
    names = {r: w.name_of(r) for r in w.alphabet}
    for name in names.values():
        if len(name) != 1 or not (32 < ord(name) < 127):
            raise SerializationError(
                f"symbol {name!r} has no single printable ASCII form; use the tokens format"
            )
    if list(names.values()) != sorted(names.values()):
        raise SerializationError(
            "ASCII character order disagrees with the symbol order; use the tokens format"
        )
    data = "".join(map(names.__getitem__, w.symbols))
    if _TOKENS_HEADER.match(data):
        raise SerializationError("the text '#alphabet' would read back as a tokens header; "
                                 "use the tokens format")
    return data


def from_ascii(data: str) -> Text:
    data = data.rstrip("\n")
    bad = re.search(r"[^!-~]", data)
    if bad:
        raise SerializationError(
            f"character {bad.group()!r} is not printable ASCII; use the tokens format"
        )
    return Text.from_str(data)


def to_tokens(w: Text) -> str:
    ranks = sorted(set(w.names).union(w.alphabet)) if w.names else w.alphabet
    names = [w.name_of(r) for r in ranks]
    for name in names:
        if not name:
            raise SerializationError("a token name is empty and would not read back")
        if any(c.isspace() for c in name):
            raise SerializationError(f"token name {name!r} contains whitespace")
    header = "#alphabet " + " ".join(names)
    body = " ".join(w.name_of(r) for r in w.symbols)
    return header + "\n" + body + "\n"


def from_tokens(data: str) -> Text:
    lines = data.splitlines()
    if not lines or not _TOKENS_HEADER.match(lines[0]):
        raise SerializationError("tokens input must start with a '#alphabet' line")
    if len(lines) > 2:
        raise SerializationError(
            f"tokens input has {len(lines)} lines; expected the '#alphabet' line "
            "and one line of tokens"
        )
    names = lines[0].split()[1:]
    if len(set(names)) != len(names):
        raise SerializationError("alphabet names must be unique")
    rank_of = {name: i for i, name in enumerate(names)}
    body = lines[1].split() if len(lines) > 1 else []
    symbols = []
    for tok in body:
        if tok not in rank_of:
            raise SerializationError(f"token {tok!r} is not in the declared alphabet")
        symbols.append(rank_of[tok])
    return Text(tuple(symbols), {i: n for i, n in enumerate(names)})


def load(data: str, fmt: str | None = None) -> Text:
    """Parse either serialization; autodetect from the header when fmt is None."""
    if fmt is None:
        fmt = "tokens" if _TOKENS_HEADER.match(data) else "ascii"
    if fmt == "tokens":
        return from_tokens(data)
    if fmt == "ascii":
        return from_ascii(data)
    raise SerializationError(f"unknown format {fmt!r}")


def dump(w: Text, fmt: str) -> str:
    if fmt == "tokens":
        return to_tokens(w)
    if fmt == "ascii":
        return to_ascii(w) + "\n"
    raise SerializationError(f"unknown format {fmt!r}")
