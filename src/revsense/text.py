"""Texts over integer-ranked alphabets, plus basic word combinatorics.

Symbols are plain non-negative ints and the integer order *is* the
alphabet order.  A Text couples the symbol sequence with an optional
rank -> display-name table so that synthetic alphabets (a_1 < ... <
a_s, interleaved marker symbols, ...) print readably.  All operations
here are pure functions on immutable values.

Lyndon factor starts are 0-based, like indexing and slicing a Text.
A Text derives its alphabet when it is built, which checks every symbol,
and the int32 dense ranks of its symbols, which the numpy kernels read,
once, on first use; its reversal reads them backwards.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True, eq=False)
class Text:
    """Immutable symbol sequence with an optional display-name table."""

    symbols: tuple[int, ...]
    names: dict[int, str] | None = None

    def __post_init__(self) -> None:
        # every symbol is checked here, through the alphabet; a name table is
        # checked against every rank it may show: its names must differ, and
        # none may be the default name of a present rank it leaves unnamed
        # (distinct ranks have distinct default names)
        ranks = self.alphabet
        if ranks and ranks[0] < 0:
            raise ValueError("symbol ranks must be non-negative")
        if self.names is not None:
            names = set(self.names.values())
            if len(names) != len(self.names) or not names.isdisjoint(
                    map(_default_name, set(ranks).difference(self.names))):
                raise ValueError("display names must be unique")

    # Equality and hashing ignore the name table: the same rank sequence
    # is the same text no matter how it is printed.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Text):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    @functools.cached_property
    def alphabet(self) -> tuple[int, ...]:
        """The distinct symbols in increasing order, derived when the text is
        built.  A symbol that is not an integer is refused here, where each
        distinct one is read once."""
        try:
            return tuple(map(operator.index, sorted(set(self.symbols))))
        except TypeError:
            raise ValueError("symbols must be integers") from None

    @functools.cached_property
    def dense_ranks(self) -> np.ndarray:
        """int32 ranks 0, 1, ... of the symbols in the alphabet, a read-only
        array: equal symbols share a rank and the order is kept."""
        return _dense_symbol_ranks(self.symbols, self.alphabet)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Text(self.symbols[i], self.names)
        return self.symbols[i]

    def name_of(self, rank: int) -> str:
        if self.names and rank in self.names:
            return self.names[rank]
        return _default_name(rank)

    def display(self) -> str:
        """Human-readable form; single-character alphabets concatenate,
        everything else joins tokens with a space."""
        parts = [self.name_of(r) for r in self.symbols]
        sep = "" if all(len(p) == 1 for p in parts) else " "
        return sep.join(parts)

    def __repr__(self) -> str:
        return f"Text({self.display()!r})"

    @classmethod
    def from_str(cls, s: str) -> "Text":
        """Text whose ranks are character ordinals, named by the characters."""
        return cls(tuple(ord(c) for c in s), {ord(c): c for c in set(s)})


def _default_name(rank: int) -> str:
    return chr(rank) if 33 <= rank < 127 else f"<{rank}>"


def _dense_symbol_ranks(symbols: tuple[int, ...], alphabet: tuple[int, ...]) -> np.ndarray:
    if alphabet and alphabet[-1] >> 63:
        # past 2^63 the ranks stay exact Python ints: numpy alone would
        # take a mix of them and small ranks as float64 and merge neighbours
        ranks = np.searchsorted(np.array(alphabet, dtype=object), np.array(symbols, dtype=object))
    else:
        ranks = np.searchsorted(np.array(alphabet, dtype=np.int64),
                                np.fromiter(symbols, dtype=np.int64, count=len(symbols)))
    ranks = ranks.astype(np.int32)
    ranks.flags.writeable = False
    return ranks


def _derived(symbols: tuple[int, ...], names: dict[int, str] | None, **known) -> Text:
    """Text(symbols, names), given what is already known of its symbols:
    its `alphabet` and `dense_ranks` are kept, not derived again, so its
    checks read the known alphabet and no symbol."""
    t = Text.__new__(Text)
    vars(t).update(known)
    t.__init__(symbols, names)
    return t


def reverse(w: Text) -> Text:
    # what w has derived of its symbols holds for the reversal, read backwards
    known = {k: v[::-1] if k == "dense_ranks" else v
             for k, v in vars(w).items() if k in ("alphabet", "dense_ranks")}
    return _derived(w.symbols[::-1], w.names, **known)


def lyndon_starts(w: Text) -> tuple[int, ...]:
    """Start positions of the factors of the unique factorization
    of w into non-increasing Lyndon words (Duval, J. Algorithms 1983).

    One left-to-right pass in O(n) time; the only extra memory is the
    returned starts.
    """
    if len(w) == 0:
        raise ValueError("cannot factorize the empty text")
    s = w.symbols
    n = len(s)
    starts: list[int] = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        # s[i:j] is a power of the Lyndon word s[i:i+step] plus a proper prefix of it
        step = j - k
        starts.extend(range(i, k + 1, step))
        i += ((k - i) // step + 1) * step
    return tuple(starts)
