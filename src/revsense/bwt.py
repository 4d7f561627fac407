"""Burrows-Wheeler transform variants and their run-count measures.

* bwt          -- last column of the sorted rotation matrix; r = run count.
* bwt_sentinel -- BWT of w extended with a symbol smaller than all of
                  w's symbols; r_dollar = run count.  Its rotation order
                  is read off w's suffix array, not sorted again.
* bbwt         -- bijective variant: last characters of all rotations of
                  all Lyndon factors, in omega-order; r_b = run count.

Each variant gathers the text's cached dense symbol ranks in its rotation
order and counts the runs there, since equal ranks are equal symbols; the
output text is built only when it is read.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import count, repeat
from typing import Sequence

import numpy as np

from .suffixes import SuffixContext, context_for, cyclic_rotation_order
from .text import Text, _derived, lyndon_starts

SENTINEL_NAME = "$"


@dataclass(frozen=True, eq=False)
class TransformResult:
    """A transform of `source`: its output holds source's symbols at the
    0-based `positions`, and `run_count` counts that output's runs.  The
    output Text is built on first read, so a run count alone builds no
    tuple or Text.  Results compare by identity; two transforms agree iff
    their (output, run_count) pairs are equal."""

    source: Text
    positions: np.ndarray
    run_count: int

    @functools.cached_property
    def output(self) -> Text:
        s = self.source.symbols
        return Text(tuple(map(s.__getitem__, self.positions.tolist())), self.source.names)


def _cycle_transform(
    w: Text, starts: Sequence[int], order: Sequence[int] | None = None
) -> TransformResult:
    """Last symbols of the rotations of the cycles of w (the factors that
    begin at `starts`) in cyclic_rotation_order, and their run count.  A
    rotation's last symbol is the predecessor of its start within its
    cycle.  `order` is that rotation order, an array or a sequence, when
    the caller already has it; one of the wrong length is refused."""
    n = len(w)
    if order is None:
        order = cyclic_rotation_order(w, starts)
    elif len(order) != n:
        raise ValueError(f"a rotation order of {len(order)} starts for a text of length {n}")
    first = np.fromiter(starts, dtype=np.int64, count=len(starts))
    # predecessor within each cycle; a cycle's first position wraps to its last
    pred = np.arange(-1, n - 1, dtype=np.int32)
    pred[first] = np.append(first[1:], n) - 1
    positions = pred[np.asarray(order, dtype=np.int64)]
    out = w.dense_ranks[positions]
    runs = 1 + int(np.count_nonzero(out[1:] != out[:-1]))
    return TransformResult(w, positions, runs)


def bwt(w: Text, order: Sequence[int] | None = None) -> TransformResult:
    """Plain BWT over the rotations of w itself (no sentinel).

    `order` is the rotation order of w, as cyclic_rotation_order(w) gives
    it, when the caller already has one; without it the rotations are
    sorted.  An order of the wrong length is refused.
    """
    if len(w) == 0:
        raise ValueError("BWT requires a non-empty text")
    return _cycle_transform(w, (0,), order)


def bwt_sentinel(w: Text, ctx: SuffixContext | None = None) -> TransformResult:
    """BWT of w with an appended minimal sentinel.

    The output alphabet is shifted: every input rank r becomes r+1, still
    displayed as r was, and the sentinel is rank 0, displayed as the first
    of "$", "<$>", "<<$>>", ... that no symbol of w shows.

    The suffix sort puts a shorter suffix before a longer one it prefixes,
    so the rotation order of w$ is the `$` rotation, then w's suffix
    array.  `ctx` is w's suffix context when the caller already has it
    (one of another length is refused); otherwise it is built here.  The
    shifted text's alphabet and dense ranks are w's plus one, with the
    sentinel at 0, so they are not derived again.
    """
    if len(w) == 0:
        raise ValueError("BWT requires a non-empty text")
    names = {r + 1: w.name_of(r) for r in w.alphabet}
    names[0] = next(s for k in count()
                    if (s := f"{'<' * k}{SENTINEL_NAME}{'>' * k}") not in names.values())
    order = np.append(len(w), np.frombuffer(context_for(w, ctx).sa, np.int32))
    ranks = np.append(w.dense_ranks + 1, np.int32(0))
    ranks.flags.writeable = False
    shifted = _derived((*map(operator.add, w.symbols, repeat(1)), 0), names,
                       alphabet=(0, *map(operator.add, w.alphabet, repeat(1))), dense_ranks=ranks)
    return bwt(shifted, order)


def bbwt(w: Text, order: Sequence[int] | None = None) -> TransformResult:
    """Bijective BWT: rotations of the Lyndon factors in omega-order.

    Rotations are compared as infinite periodic strings and ordered by
    cyclic_rotation_order over the factor cycles; each output symbol is
    the cyclic predecessor of the rotation start within its factor.

    Ties (equal rotations across duplicated factors) keep factor order
    then rotation index; within a factor rotations are distinct because
    Lyndon words are primitive.

    `order` is that rotation order, as cyclic_rotation_order(w,
    lyndon_starts(w)) gives it, when the caller already has one; without
    it the rotations are sorted.  An order of the wrong length is refused.
    """
    if len(w) == 0:
        raise ValueError("BBWT requires a non-empty text")
    return _cycle_transform(w, lyndon_starts(w), order)
