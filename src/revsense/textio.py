"""Text serializations shared by the CLI.

Two formats:

* ascii  -- one printable ASCII character ("!" to "~") per symbol on a
  single line; the byte order is the symbol order.  "$" is forbidden
  (reserved for the sentinel of the end-marked BWT).
* tokens -- line 1 is ``#alphabet name1 name2 ...`` listing display
  names in strictly increasing symbol order, line 2 (the last line) the
  whitespace-separated token sequence.
"""

from __future__ import annotations

import re

from .text import Text

SENTINEL_NAME = "$"


class SerializationError(ValueError):
    pass


def to_ascii(w: Text) -> str:
    names = {r: w.name_of(r) for r in sorted(set(w.symbols))}
    for name in names.values():
        if len(name) != 1 or not (32 < ord(name) < 127):
            raise SerializationError(
                f"symbol {name!r} has no single printable ASCII form; use the tokens format"
            )
        if name == SENTINEL_NAME:
            raise SerializationError('"$" is reserved and cannot be serialized')
    if list(names.values()) != sorted(names.values()):
        raise SerializationError(
            "ASCII character order disagrees with the symbol order; use the tokens format"
        )
    return "".join(map(names.__getitem__, w.symbols))


def from_ascii(data: str) -> Text:
    data = data.rstrip("\n")
    if SENTINEL_NAME in data:
        raise SerializationError('"$" is reserved for the sentinel and may not appear in input')
    bad = re.search(r"[^!-~]", data)
    if bad:
        raise SerializationError(
            f"character {bad.group()!r} is not printable ASCII; use the tokens format"
        )
    return Text.from_str(data)


def to_tokens(w: Text) -> str:
    if w.names:
        ranks = sorted(set(w.names) | set(w.symbols))
    else:
        ranks = sorted(set(w.symbols))
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
    if not lines or not re.match(r"#alphabet(\s|$)", lines[0]):
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
        fmt = "tokens" if data.startswith("#alphabet") else "ascii"
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
