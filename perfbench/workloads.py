"""The benchmark's workloads: inputs derived from a seed, the steps that
call the public revsense API on them, and the checks on every output.

A workload is a list of rounds and a round is a list of steps.  Each step
calls the library, times every report it makes, and checks each output
against the measure invariants (any seed) and against the pinned
references in ``refs.json`` (the default seed, or any seed for the
seed-independent family tables).

An operation is one (text, orientation, measure) computation or one
verify row.  A step counts the operations it attempted and the ones that
failed: an exception, a mismatch against a pinned output, or a broken
invariant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from dataclasses import dataclass, field
from time import perf_counter

DEFAULT_SEED = 1
REFS_PATH = pathlib.Path(__file__).resolve().parent / "refs.json"

# The six standard sweep tables of scripts/run_sweeps.py (SWEEPS), copied
# so the benchmark keeps its inputs when the library's tables move.
SWEEPS = (
    ("u_k", tuple(range(1, 101)), ("r", "r_dollar", "r_b")),
    ("T_p_rev", tuple(range(2, 21)), ("z", "z_no")),
    ("w_sigma", tuple(range(2, 201, 2)), ("z", "z_no", "z_e", "z_end", "v")),
    ("c_fib_rev", tuple(range(9, 26, 2)), ("v",)),
    ("fib_plus", tuple(range(8, 25, 2)), ("r", "r_dollar")),
    ("unary_plus", tuple(range(2, 501)), ("e",)),
)

# The members that `revsense verify --family all --quick` checks
# (cli.QUICK_GRIDS); used only to count the symbols that command handles.
QUICK_GRIDS = (
    ("u_k", tuple(range(1, 13))),
    ("u_k_rev", tuple(range(1, 13))),
    ("T_p", tuple(range(1, 7))),
    ("T_p_rev", tuple(range(2, 7))),
    ("w_sigma", tuple(range(2, 21, 2))),
    ("w_sigma_rev", tuple(range(2, 21, 2))),
    ("c_fib_rev", tuple(range(9, 16, 2))),
    ("fib_plus", tuple(range(8, 15, 2))),
    ("unary_plus", tuple(range(2, 51))),
    ("unary_plus_rev", tuple(range(2, 51))),
    ("t55", (None,)),
    ("t55_rev", (None,)),
)
VERIFY_ARGV = ("verify", "--family", "all", "--quick")

# Near-linear measures run on the large members, the superlinear ones on
# members of about 10^4 symbols.  `z` rides along with the small tier as
# the lower side of the z <= z_no, z <= z_e invariants.
NEAR_LINEAR = ("delta", "r", "r_dollar", "v", "z")
SMALL_TIER = ("r_b", "z", "z_e", "z_no")

MAX_REASONS = 20


@dataclass
class StepResult:
    ops: int
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    symbols: int = 0          # symbols handed to the library, each orientation counted
    report_s: list[float] = field(default_factory=list)
    zend_exact: int = 0
    zend_total: int = 0
    pins: dict = field(default_factory=dict)   # what refs.json pins for this step

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    def fail_all(self, bad: dict) -> None:
        """Fail one operation per key of `bad` (key -> reason)."""
        for key in sorted(bad, key=repr):
            self.fail(1, bad[key])


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def invariant_failures(values: dict[str, tuple], exact: dict[str, bool]) -> dict[tuple[str, int], str]:
    """Operations (measure, orientation 0=fwd/1=rev) that break an invariant.

    Checked wherever both sides were computed on the same text:
    delta(w) == delta(reverse(w)); z <= z_no; z <= z_e;
    z <= z_end <= z_e when z_end is exact; delta <= z.
    """
    bad: dict[tuple[str, int], str] = {}
    if "delta" in values and values["delta"][0] != values["delta"][1]:
        reason = f"delta(w)={values['delta'][0]} != delta(rev)={values['delta'][1]}"
        bad[("delta", 0)] = bad[("delta", 1)] = reason
    for o in (0, 1):
        v = {m: pair[o] for m, pair in values.items()}
        side = "fwd" if o == 0 else "rev"
        if "z" in v:
            for upper in ("z_no", "z_e"):
                if upper in v and not v["z"] <= v[upper]:
                    bad[(upper, o)] = f"{side}: z={v['z']} > {upper}={v[upper]}"
            if "z_end" in v and exact.get("z_end") and not (
                v["z"] <= v["z_end"] and ("z_e" not in v or v["z_end"] <= v["z_e"])
            ):
                bad[("z_end", o)] = f"{side}: z_end={v['z_end']} outside [z, z_e]"
            if "delta" in v and not v["delta"] <= v["z"]:
                bad[("delta", o)] = f"{side}: delta={v['delta']} > z={v['z']}"
    return bad


def _check_values(res: StepResult, label: str, values: dict[str, tuple],
                  exact: dict[str, bool], pinned: dict | None) -> None:
    """Count failed operations of one report and record its pins."""
    bad = invariant_failures(values, exact)
    # values pin as str(): ints as digits, Fractions as num/den
    res.pins[label] = {m: [str(f), str(r), exact[m]] for m, (f, r) in values.items()}
    if pinned is not None:
        for m, (f, r) in values.items():
            want = pinned.get(m)
            for o, got in ((0, f), (1, r)):
                if want is None or want[o] != str(got) or want[2] != exact[m]:
                    bad.setdefault((m, o), f"{m}[{'fwd' if o == 0 else 'rev'}]={got} "
                                           f"exact={exact[m]}, pinned {want}")
    res.fail_all({op: f"{label}: {reason}" for op, reason in bad.items()})


class ReportStep:
    """One sensitivity report: a text, both orientations, a measure set."""

    def __init__(self, label: str, text, measures: tuple[str, ...]):
        self.label, self.text, self.measures = label, text, measures
        self.ops = 2 * len(measures)

    def run(self, api, refs: dict | None) -> StepResult:
        n = len(self.text)
        res = StepResult(self.ops, symbols=2 * n)
        t0 = perf_counter()
        reports = api.harness.sensitivity_report(self.text, self.measures)
        res.report_s.append(perf_counter() - t0)
        values = {r.measure: (r.value_fwd, r.value_rev) for r in reports}
        exact = {r.measure: r.exact for r in reports}
        missing = set(self.measures) - set(values)
        if missing:
            res.fail(2 * len(missing), f"{self.label}: no report for {sorted(missing)}")
        _check_values(res, self.label, values, exact,
                      None if refs is None else refs.get(self.label))
        return res


class SweepTableStep:
    """One standard sweep table through harness.sweep, one report per
    parameter, rendered with rows_to_csv and checked byte for byte."""

    def __init__(self, family: str, params: tuple, measures: tuple[str, ...], sizes: list[int]):
        self.family, self.params, self.measures, self.sizes = family, params, measures, sizes
        self.ops = 2 * len(measures) * len(params)

    def run(self, api, refs: dict | None) -> StepResult:
        k = len(self.measures)
        res = StepResult(self.ops, symbols=2 * sum(self.sizes))
        bad: dict[tuple, str] = {}
        base, partner = [], []
        for param in self.params:
            t0 = perf_counter()
            rows = api.harness.sweep(self.family, [param], self.measures)
            res.report_s.append(perf_counter() - t0)
            base += rows[:k]
            partner += rows[k:]
            values = {r.measure: (r.value_fwd, r.value_rev) for r in rows[:k]}
            exact = {r.measure: r.exact for r in rows[:k]}
            for (m, o), reason in invariant_failures(values, exact).items():
                bad[(param, m, o)] = f"{self.family}/{param}: {reason}"
        csv = api.harness.rows_to_csv(base + partner)
        lines = csv.splitlines()[1:]
        n_params = len(self.params)
        table_key = f"table:{self.family}"
        res.pins[table_key] = _sha(csv)
        rows_differ = False
        for i, param in enumerate(self.params):
            key = f"{self.family}/{param}"
            own = lines[i * k:(i + 1) * k] + lines[(n_params + i) * k:(n_params + i + 1) * k]
            res.pins[key] = _sha("\n".join(own))[:16]
            if refs is not None and refs.get(key) not in (None, res.pins[key]):
                rows_differ = True
                for m in self.measures:
                    for o in (0, 1):
                        bad.setdefault((param, m, o), f"{key}: rows differ from the pinned digest")
        if refs is not None and refs.get(table_key) not in (None, res.pins[table_key]) \
                and not rows_differ:
            # every row agrees but the table bytes do not: the table fails as a whole
            for param in self.params:
                for m in self.measures:
                    for o in (0, 1):
                        bad.setdefault((param, m, o), f"{self.family}: CSV digest differs")
        res.fail_all(bad)
        return res


class VerifyStep:
    """`revsense verify ... --quick` through cli.main; one op per row."""

    def __init__(self, argv: tuple[str, ...], symbols: int, expected_rows: int):
        self.argv, self.symbols = argv, symbols
        self.ops = max(1, expected_rows)

    def run(self, api, refs: dict | None) -> StepResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = api.cli.main(list(self.argv))
        out = buf.getvalue()
        rows = [ln for ln in out.splitlines() if ln.startswith(("pass", "FAIL"))]
        res = StepResult(max(len(rows), self.ops), symbols=self.symbols)
        res.pins["verify"] = [_sha(out), len(rows)]
        for ln in rows:
            if ln.startswith("FAIL"):
                res.fail(1, f"verify: {ln}")
        pinned = None if refs is None else refs.get("verify")
        if code != 0 or (pinned is not None and pinned != res.pins["verify"]):
            res.failed = 0
            res.fail(res.ops, f"verify: exit code {code}, output digest "
                              f"{'matches' if pinned == res.pins['verify'] else 'differs'}")
        return res


class ZendStep:
    """One exact-search z_end computation through lz.lz_end_optimal.

    z and z_e for the sandwich check come with the input (computed at
    set-up), so the step calls nothing but the measured function.
    """

    ops = 1

    def __init__(self, label: str, text, z: int, z_e: int):
        self.label, self.text, self.z, self.z_e = label, text, z, z_e

    def run(self, api, refs: dict | None) -> StepResult:
        w = self.text
        res = StepResult(1, symbols=len(w), zend_total=1)
        parsing, exact = api.lz.lz_end_optimal(w)
        res.zend_exact = int(exact)
        z, z_e, z_end = self.z, self.z_e, len(parsing)
        res.pins[self.label] = [z_end, exact]
        pinned = None if refs is None else refs.get(self.label)
        if exact and not z <= z_end <= z_e:
            res.fail(1, f"{self.label}: z_end={z_end} outside [z={z}, z_e={z_e}]")
        elif pinned is not None and pinned != [z_end, exact]:
            res.fail(1, f"{self.label}: z_end={z_end} exact={exact}, pinned {pinned}")
        return res


@dataclass
class Workload:
    name: str
    rounds: list[list]
    inputs: str           # the input sizes, for the report
    seeded: bool          # False when the inputs do not depend on the seed
    pin_rounds: int       # rounds whose outputs refs.json pins


def _random_text(Text, rng, n: int, sigma: int):
    return Text(tuple(rng.integers(0, sigma, n).tolist()))


def _mutated_repeat(Text, rng, n: int, block: int, rate: float):
    """A random block repeated to length n with a share `rate` of
    positions substituted by another symbol."""
    import numpy as np

    s = np.tile(rng.integers(0, 4, block), n // block)
    hit = rng.random(len(s)) < rate
    s[hit] = (s[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
    return Text(tuple(s.tolist()))


def _family_sweeps(seed: int, tiny: bool) -> Workload:
    from revsense.families import FamilySpec, generate, predictions, transform_predictions

    steps: list = []
    reports = symbols = max_n = 0
    for family, params, measures in SWEEPS:
        params = params[:3] if tiny else params
        sizes = [len(generate(FamilySpec(family, p))) for p in params]
        steps.append(SweepTableStep(family, params, measures, sizes))
        reports += len(params)
        symbols += 2 * sum(sizes)
        max_n = max(max_n, *sizes)
    grids = (("t55", (None,)),) if tiny else QUICK_GRIDS
    argv = ("verify", "--family", "t55") if tiny else VERIFY_ARGV
    specs = [FamilySpec(f, p) for f, params in grids for p in params]
    verify_sizes = [len(generate(spec)) for spec in specs]
    verify_rows = sum(len(predictions(s)) + len(transform_predictions(s)) for s in specs)
    steps.append(VerifyStep(argv, sum(verify_sizes), verify_rows))
    inputs = (f"six sweep tables: {reports} reports, {symbols} symbols over both "
              f"orientations, n <= {max_n}; `{' '.join(argv)}`: "
              f"{len(verify_sizes)} members, {sum(verify_sizes)} symbols")
    # The tables do not depend on the seed; later rounds repeat the pass.
    return Workload("family-sweeps", [steps] * 3, inputs, seeded=False, pin_rounds=1)


def _random_ladder(seed: int, tiny: bool) -> Workload:
    import numpy as np
    from revsense.text import Text

    big_n, small_n, n_rounds = (1000, 100, 2) if tiny else (10**5, 10**4, 8)
    rounds = []
    for r in range(n_rounds):
        rng = np.random.default_rng([seed, r])
        rounds.append([
            ReportStep(f"r{r}.n{big_n}", _random_text(Text, rng, big_n, 4), NEAR_LINEAR),
            ReportStep(f"r{r}.n{small_n}", _random_text(Text, rng, small_n, 4), SMALL_TIER),
        ])
    inputs = (f"per round: uniform random sigma=4 texts, n={big_n} with "
              f"{','.join(NEAR_LINEAR)} and n={small_n} with {','.join(SMALL_TIER)}; "
              f"both orientations")
    return Workload("random-ladder", rounds, inputs, seeded=True, pin_rounds=n_rounds)


def _repetitive_large(seed: int, tiny: bool) -> Workload:
    import numpy as np
    from revsense.families import FamilySpec, generate
    from revsense.text import Text

    fib_big, fib_small = (14, 10) if tiny else (26, 20)
    mut_big, mut_small, block = (2000, 200, 20) if tiny else (10**5, 10**4, 1000)
    n_rounds = 2 if tiny else 6
    big = generate(FamilySpec("fib", fib_big))
    small = generate(FamilySpec("fib", fib_small))
    # r_b runs on F_20 only.  On a mutated repeat its cost follows where the
    # substitutions fall (4-15 s per text at n=10^4 across seeds), which
    # alone spread this workload's throughput past any allowed bound.
    mut_small_tier = tuple(m for m in SMALL_TIER if m != "r_b")
    rounds = []
    for r in range(n_rounds):
        rng = np.random.default_rng([seed, r])
        rounds.append([
            ReportStep(f"fib{fib_big}", big, NEAR_LINEAR),
            ReportStep(f"r{r}.mut{mut_big}", _mutated_repeat(Text, rng, mut_big, block, 0.001),
                       NEAR_LINEAR),
            ReportStep(f"fib{fib_small}", small, SMALL_TIER),
            ReportStep(f"r{r}.mut{mut_small}",
                       _mutated_repeat(Text, rng, mut_small, block, 0.001), mut_small_tier),
        ])
    inputs = (f"per round: F_{fib_big} (n={len(big)}) and a mutated repeat (n={mut_big}, "
              f"{block}-symbol block, 0.1% substitutions) with {','.join(NEAR_LINEAR)}; "
              f"F_{fib_small} (n={len(small)}) with {','.join(SMALL_TIER)}; a mutated repeat "
              f"(n={mut_small}) with {','.join(mut_small_tier)}; both orientations")
    return Workload("repetitive-large", rounds, inputs, seeded=True, pin_rounds=n_rounds)


def _zend_search(seed: int, tiny: bool) -> Workload:
    import numpy as np
    from revsense.lz import lz_end_greedy, lz_parse
    from revsense.text import Text

    lo, hi, n_rounds = (16, 32, 3) if tiny else (64, 128, 16)
    rounds = []
    for r in range(n_rounds):
        rng = np.random.default_rng([seed, r])
        n = int(rng.integers(lo, hi + 1))
        w = _random_text(Text, rng, n, 2)
        rounds.append([ZendStep(f"r{r}.n{n}", w, len(lz_parse(w)), len(lz_end_greedy(w)))])
    inputs = (f"per round: one uniform random binary text, {lo} <= n <= {hi}, "
              f"z_end at the default node budget; one orientation")
    return Workload("zend-search", rounds, inputs, seeded=True, pin_rounds=3 if tiny else 12)


FACTORIES = {
    "family-sweeps": _family_sweeps,
    "random-ladder": _random_ladder,
    "repetitive-large": _repetitive_large,
    "zend-search": _zend_search,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Derive a workload's inputs from the seed (revsense must be importable)."""
    return FACTORIES[name](seed, tiny)


def load_refs(workload: Workload, seed: int, tiny: bool) -> dict | None:
    """The pinned outputs that apply to this run, or None."""
    if tiny or (workload.seeded and seed != DEFAULT_SEED):
        return None
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload.name)
