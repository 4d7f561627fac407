"""Burrows-Wheeler transform variants and their run-count measures.

* bwt          -- last column of the sorted rotation matrix; r = run count.
* bwt_sentinel -- BWT of w extended with a symbol smaller than all of
                  w's symbols; r_dollar = run count.
* bbwt         -- bijective variant: last characters of all rotations of
                  all Lyndon factors, in omega-order; r_b = run count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .suffixes import cyclic_rotation_order
from .text import Text, lyndon_factorize
from .textio import SENTINEL_NAME


@dataclass(frozen=True)
class TransformResult:
    output: Text
    run_count: int
    variant: str


def _result(w: Text, pred: np.ndarray, variant: str) -> TransformResult:
    out = np.asarray(w.symbols)[pred]
    runs = 1 + int(np.count_nonzero(out[1:] != out[:-1]))
    return TransformResult(Text(tuple(out.tolist()), w.names), runs, variant)


def bwt(w: Text) -> TransformResult:
    """Plain BWT over the rotations of w itself (no sentinel)."""
    if len(w) == 0:
        raise ValueError("BWT requires a non-empty text")
    order = np.asarray(cyclic_rotation_order(w))
    return _result(w, order - 2, "plain")  # p-2 = cyclic predecessor, -1 for p=1


def bwt_sentinel(w: Text) -> TransformResult:
    """BWT of w with an appended minimal sentinel.

    The output alphabet is shifted: every input rank r becomes r+1 and
    the sentinel is rank 0, displayed as "$".
    """
    if len(w) == 0:
        raise ValueError("BWT requires a non-empty text")
    if w.names and SENTINEL_NAME in w.names.values():
        raise ValueError("input already contains the sentinel symbol")
    names = {r + 1: name for r, name in (w.names or {}).items()}
    names[0] = SENTINEL_NAME
    shifted = Text(tuple(r + 1 for r in w.symbols) + (0,), names)
    res = bwt(shifted)
    return TransformResult(res.output, res.run_count, "sentinel")


def bbwt(w: Text) -> TransformResult:
    """Bijective BWT: rotations of the Lyndon factors in omega-order.

    Rotations are compared as infinite periodic strings and ordered by
    cyclic_rotation_order over the factor cycles; each output symbol is
    the cyclic predecessor of the rotation start within its factor.

    Ties (equal rotations across duplicated factors) keep factor order
    then rotation index; within a factor rotations are distinct because
    Lyndon words are primitive.
    """
    if len(w) == 0:
        raise ValueError("BBWT requires a non-empty text")
    starts = lyndon_starts(w)
    first = np.asarray(starts) - 1
    # 0-based predecessor within each factor; a factor's first position wraps to its last
    pred = np.arange(-1, len(w) - 1)
    pred[first] = np.append(first[1:], len(w)) - 1
    order = np.asarray(cyclic_rotation_order(w, starts))
    return _result(w, pred[order - 1], "bijective")


def lyndon_starts(w: Text) -> tuple[int, ...]:
    """1-based start positions of the Lyndon factors of w."""
    return tuple(accumulate((len(f) for f in lyndon_factorize(w)[:-1]), initial=1))


def bwt_range(w: Text, prefix: Text) -> Text:
    """Slice of bwt(w) over the rotations that start with `prefix`.

    Empty when no rotation matches.  The matching rows are contiguous
    in rotation order by construction.
    """
    if len(w) == 0 or len(prefix) == 0:
        raise ValueError("bwt_range requires non-empty text and prefix")
    s = w.symbols
    n = len(s)
    p = prefix.symbols
    order = cyclic_rotation_order(w)
    out: list[int] = []
    in_block = False
    for start in order:
        matches = all(s[(start - 1 + t) % n] == p[t] for t in range(min(len(p), n)))
        matches = matches and len(p) <= n
        if matches:
            out.append(s[start - 2])
            in_block = True
        elif in_block:
            break
    return Text(tuple(out), w.names)
