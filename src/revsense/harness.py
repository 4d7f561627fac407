"""Sensitivity reports, parameter sweeps, closed-form verification, CSV.

A sensitivity report evaluates a measure on w and on reverse(w) and
records the additive (rev - fwd) and multiplicative (rev / fwd) change,
the latter as an exact Fraction so monotonicity claims can be checked
as strict inequality chains.

Sweeps evaluate whole parameter grids and emit rows for the swept
family and for its reversed partner (derived by swapping orientations,
never recomputed).  Output is deterministic: rows are ordered by
family block, then parameter, then measure id.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .bwt import TransformResult, bbwt, bwt, bwt_sentinel
from .families import (
    REV_PARTNER,
    FamilySpec,
    generate,
    predictions,
    transform_predictions,
)
from .lexparse import lex_parse
from .lz import (DEFAULT_NODE_BUDGET, Parsing, _no_copy_overlaps, _sources_end_at_bounds, _SuffixMatcher,
                 lz_end_greedy, lz_end_optimal, lz_no_overlap, lz_parse)
from .measures import right_extension_count, substring_complexity
from .suffixes import PARTS, SuffixContext, build_suffix_context
from .text import Text, reverse


class _MeasureRunner:
    """Evaluates the given measures on one text, sharing the suffix context
    with the arrays they read (`READS`); r_dollar reads its rotation order
    of w$ off it too.  z_e's greedy parse also reads `rev_ctx`, the suffix
    order of the reversal, built with the arrays of `rev_parts`: sa and isa,
    or a report's parts when it hands `rev_ctx` to the reversal as its `ctx`.

    z, z_e and z_end read `lz_ctx`: the LZ link pass over `ctx`
    (`lz._SuffixMatcher`) when z_no is among the measures with z_e or z_end;
    else `ctx`, and then they mark earlier ranks.  z_no is z where no copy
    phrase of z's parse overlaps its source, else walks the link pass.
    z_end is z, and so is z_e when z's parse is read anyway, where every
    copy phrase's source ends at an earlier bound of that parse; else they
    run the greedy end-aligned parse and, for z_end, the search."""

    rev_parts = frozenset({"sa", "isa"})

    def __init__(self, w: Text, measures: Iterable[str],
                 node_budget: int = DEFAULT_NODE_BUDGET):
        self.w = w
        self.node_budget = node_budget
        measures = set(measures)
        self.parts = frozenset().union(*(READS[m] for m in measures))
        self.links_first = "z_no" in measures and not measures.isdisjoint(("z_e", "z_end"))
        self.parses_z = not measures.isdisjoint(("z", "z_no", "z_end"))

    @functools.cached_property
    def ctx(self) -> SuffixContext:
        return build_suffix_context(self.w, self.parts)

    @functools.cached_property
    def rev_ctx(self) -> SuffixContext:
        return build_suffix_context(reverse(self.w), self.rev_parts)

    @functools.cached_property
    def links(self) -> _SuffixMatcher:
        return _SuffixMatcher(self.ctx)

    @functools.cached_property
    def lz_ctx(self) -> SuffixContext | _SuffixMatcher:
        return self.links if self.links_first else self.ctx

    # z and z_e keep their parses, which z_end's search starts from
    @functools.cached_property
    def lz(self) -> Parsing:
        return lz_parse(self.w, self.lz_ctx)

    @functools.cached_property
    def lz_end(self) -> Parsing:
        return lz_end_greedy(self.w, self.lz_ctx, self.rev_ctx)

    @functools.cached_property
    def z_settles_end(self) -> bool:
        return _sources_end_at_bounds(self.lz)

    # r and r_b keep their transforms, which verify checks against the closed
    # forms; named by transform_predictions' variants, looked up at call time
    @functools.cached_property
    def plain(self) -> TransformResult:
        return bwt(self.w)

    @functools.cached_property
    def bijective(self) -> TransformResult:
        return bbwt(self.w)


def _z_e(t: _MeasureRunner) -> tuple[int, bool]:
    return len(t.lz if t.parses_z and t.z_settles_end else t.lz_end), True


def _z_end(t: _MeasureRunner) -> tuple[int, bool]:
    if t.z_settles_end:
        return len(t.lz), True
    parsing, exact = lz_end_optimal(t.w, t.node_budget, t.lz_ctx, t.lz_end, t.lz)
    return len(parsing), exact


# measure id -> fn(runner) -> (value, exact), in sorted id order.  Entries look the
# measure functions up at call time, so rebinding them (as perfbench traces) works.
MEASURES: dict[str, Callable[[_MeasureRunner], tuple[object, bool]]] = {
    "delta": lambda t: (substring_complexity(t.w, t.ctx), True),
    "e": lambda t: (right_extension_count(t.w, t.ctx), True),
    "r": lambda t: (t.plain.run_count, True),
    "r_b": lambda t: (t.bijective.run_count, True),
    "r_dollar": lambda t: (bwt_sentinel(t.w, t.ctx).run_count, True),
    "v": lambda t: (len(lex_parse(t.w, t.ctx)), True),
    "z": lambda t: (len(t.lz), True),
    "z_e": _z_e,
    "z_end": _z_end,
    "z_no": lambda t: (len(t.lz if _no_copy_overlaps(t.lz) else lz_no_overlap(t.w, t.links)), True),
}
# measure id -> the context arrays it reads (z_e: of rev_ctx, only sa and isa)
READS: dict[str, frozenset[str]] = {
    "delta": frozenset({"lcp"}), "e": frozenset({"sa", "lcp"}), "r": frozenset(),
    "r_b": frozenset(), "r_dollar": frozenset({"sa"}), "v": frozenset({"sa", "isa"}),
    **dict.fromkeys(("z", "z_e", "z_end", "z_no"), PARTS),
}
MEASURE_IDS = tuple(MEASURES)


def _runner(w: Text, measures: list[str], node_budget: int) -> _MeasureRunner:
    """A runner for w, once every id is known and w is not empty."""
    if unknown := [m for m in measures if m not in MEASURES]:
        raise KeyError(f"unknown measure id {unknown[0]!r}")
    if len(w) == 0:
        raise ValueError("measures require a non-empty text")
    return _MeasureRunner(w, measures, node_budget)


def evaluate(
    w: Text, measures: Iterable[str], node_budget: int = DEFAULT_NODE_BUDGET
) -> list[tuple[object, bool]]:
    """(value, exact) of each measure on w, in the order given; exact is
    False only for budget-limited z_end.  Every id is checked before
    anything is computed, and all measures share one suffix context."""
    measures = list(measures)
    runner = _runner(w, measures, node_budget)
    return [MEASURES[m](runner) for m in measures]


@dataclass(frozen=True)
class SensitivityReport:
    measure: str
    value_fwd: object           # int | Fraction
    value_rev: object
    additive: object            # value_rev - value_fwd, exact
    multiplicative: Fraction | None  # value_rev / value_fwd when value_fwd > 0
    exact: bool

    def swapped(self) -> "SensitivityReport":
        return _report(self.measure, self.value_rev, self.value_fwd, self.exact)


def _report(measure: str, vf: object, vr: object, exact: bool) -> SensitivityReport:
    mult = Fraction(vr) / Fraction(vf) if vf and vf > 0 else None
    return SensitivityReport(measure, vf, vr, vr - vf, mult, exact)


def sensitivity_report(
    w: Text, measures: Iterable[str], node_budget: int = DEFAULT_NODE_BUDGET
) -> list[SensitivityReport]:
    """One report per measure id, ordered by measure id."""
    wanted = sorted(set(measures))
    runner = _runner(w, wanted, node_budget)
    # a rev_ctx that z_e sorts is handed over as the reversal's ctx, so it has its arrays
    runner.rev_parts = runner.parts
    fwd = [MEASURES[m](runner) for m in wanted]
    rev_runner = _MeasureRunner(reverse(w), wanted, node_budget)
    if "rev_ctx" in vars(runner):
        rev_runner.ctx = runner.rev_ctx
    if not {"z_e", "z_end"}.isdisjoint(wanted):
        # w's context is the reversal's rev_ctx, whether or not z's parse settled z_e on w
        rev_runner.rev_ctx = runner.ctx
    del runner
    rev = [MEASURES[m](rev_runner) for m in wanted]
    return [_report(m, vf, vr, ef and er) for m, (vf, ef), (vr, er) in zip(wanted, fwd, rev)]


@dataclass(frozen=True)
class SweepRow:
    family: str
    param: int | None
    n: int
    measure: str
    value_fwd: object
    value_rev: object
    additive: object
    multiplicative: Fraction | None
    exact: bool


def sweep(
    family: str,
    params: Sequence[int | None],
    measures: Iterable[str],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[SweepRow]:
    """Evaluate a parameter grid; emits the swept family's rows followed
    by the reversed partner's rows (derived, not recomputed)."""
    measures = list(measures)
    base_rows: list[SweepRow] = []
    partner_rows: list[SweepRow] = []
    for param in params:
        spec = FamilySpec(family, param)
        partner = REV_PARTNER[spec.family]
        w = generate(spec)
        for rep in sensitivity_report(w, measures, node_budget):
            base_rows.append(SweepRow(family, param, len(w), **vars(rep)))
            partner_rows.append(SweepRow(partner, param, len(w), **vars(rep.swapped())))
    return base_rows + partner_rows


CSV_HEADER = "family,param,n,measure,value_fwd,value_rev,additive,multiplicative_num,multiplicative_den,exact"


def _fmt_value(v: object) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        mnum = str(r.multiplicative.numerator) if r.multiplicative is not None else ""
        mden = str(r.multiplicative.denominator) if r.multiplicative is not None else ""
        lines.append(",".join([
            r.family,
            "" if r.param is None else str(r.param),
            str(r.n),
            r.measure,
            _fmt_value(r.value_fwd),
            _fmt_value(r.value_rev),
            _fmt_value(r.additive),
            mnum,
            mden,
            "true" if r.exact else "false",
        ]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerifyRow:
    family: str
    param: int | None
    check: str                 # measure id, or "bwt"/"bbwt" for transform strings
    expected: object
    computed: object
    ok: bool


def verify(
    family: str,
    params: Sequence[int | None],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[VerifyRow]:
    """Compare every available closed-form prediction (measure values and
    transform strings) against direct computation."""
    rows: list[VerifyRow] = []
    for param in params:
        spec = FamilySpec(family, param)
        w = generate(spec)
        preds = predictions(spec)
        runner = _MeasureRunner(w, [pred.measure for pred in preds], node_budget)
        for pred in preds:
            computed, exact = MEASURES[pred.measure](runner)
            ok = exact and computed == pred.value
            rows.append(VerifyRow(family, param, pred.measure, pred.value, computed, ok))
        for variant, expected in transform_predictions(spec):
            computed_t = getattr(runner, variant).output
            check = "bwt" if variant == "plain" else "bbwt"
            rows.append(VerifyRow(family, param, check, expected, computed_t,
                                  computed_t == expected))
    return rows
