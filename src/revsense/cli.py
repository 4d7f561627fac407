"""Command-line front door.

Subcommands:

* gen      -- emit a family string (optionally reversed) in either
              serialization.
* measure  -- print measure=value lines for a family string or a file.
* sweep    -- run a parameter sweep and write the CSV table.
* verify   -- check closed-form predictions against direct computation.
* show     -- render the sorted rotation matrix or a parse listing.

Exit codes: 0 success, 2 usage/parameter error, 3 unknown measure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from bisect import bisect_right

from . import textio
from .bwt import bbwt, bwt
from .families import FAMILIES, VERIFY_GRIDS, FamilySpec, generate
from .harness import MEASURE_IDS, evaluate, rows_to_csv, sweep, verify
from .lexparse import lex_parse
from .lz import DEFAULT_NODE_BUDGET, lz_end_greedy, lz_no_overlap, lz_parse
from .suffixes import cyclic_rotation_order
from .text import Text, lyndon_starts, reverse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNKNOWN_MEASURE = 3
EXIT_VERIFY_FAILED = 4

SHOW_CAP = 200

# show --view id -> parse; looked up at call time, like harness.MEASURES
PARSE_VIEWS = {
    "lz": lambda w: lz_parse(w),
    "lz_no": lambda w: lz_no_overlap(w),
    "lz_end": lambda w: lz_end_greedy(w),
    "lex": lambda w: lex_parse(w),
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_range(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
        raise CliError(f"bad range {spec!r}; expected A:B or A:B:STEP")
    a, b = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or b < a:
        raise CliError(f"bad range {spec!r}; need A <= B and STEP >= 1")
    return list(range(a, b + 1, step))


def _positive_int(value: str) -> int:
    if not re.fullmatch(r"[0-9]+", value) or int(value) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return int(value)


def _parse_measures(spec: str) -> list[str]:
    measures = [m.strip() for m in spec.split(",") if m.strip()]
    if not measures:
        raise CliError("no measures given")
    for m in measures:
        if m not in MEASURE_IDS:
            raise CliError(f"unknown measure {m!r}; known: {', '.join(MEASURE_IDS)}",
                           EXIT_UNKNOWN_MEASURE)
    return measures


def _load_text(args: argparse.Namespace) -> Text:
    if (args.family is None) == (args.input is None):
        raise CliError("exactly one of --family and --input is required")
    if args.input is not None and args.param is not None:
        raise CliError("--param applies to --family only, not to --input")
    if args.family is not None:
        w = generate(FamilySpec(args.family, args.param))
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                w = textio.load(fh.read(), args.format)
        except UnicodeDecodeError as exc:
            raise CliError(f"{args.input}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                           ) from exc
        except OSError as exc:
            raise CliError(str(exc)) from exc
    if args.reverse:
        w = reverse(w)
    if len(w) == 0:
        raise CliError("input text is empty")
    return w


def _emit(payload: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise CliError(f"{output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload)


def cmd_gen(args: argparse.Namespace) -> int:
    w = _load_text(args)
    _emit(textio.dump(w, args.format or "tokens"), args.output)
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    measures = _parse_measures(args.measures)
    w = _load_text(args)
    results = evaluate(w, measures, args.node_budget)
    lines = [f"{m}={value}" + ("" if exact else " exact=false")
             for m, (value, exact) in zip(measures, results)]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    measures = _parse_measures(args.measures)
    params = _parse_range(args.range) if args.range else [None]
    rows = sweep(args.family, params, measures, args.node_budget)
    _emit(rows_to_csv(rows), args.csv)
    return EXIT_OK


def _verify_units(args: argparse.Namespace) -> list[tuple[str, list[int | None]]]:
    """(family, params) to verify: the quick grid with --quick, else the
    --range if given, else the full grid."""
    if args.family == "all":
        if args.range:
            raise CliError("--range cannot be combined with --family all")
        families = sorted(VERIFY_GRIDS)
    elif args.family not in FAMILIES:
        raise CliError(f"unknown family {args.family!r}")
    elif args.range:
        if args.quick:
            raise CliError("--quick cannot be combined with --range")
        return [(args.family, _parse_range(args.range))]
    elif args.family not in VERIFY_GRIDS:
        raise CliError(f"family {args.family!r} carries no predictions to verify")
    else:
        families = [args.family]
    grid = 0 if args.quick else 1
    return [(fam, list(VERIFY_GRIDS[fam][grid])) for fam in families]


def cmd_verify(args: argparse.Namespace) -> int:
    units = _verify_units(args)
    lines = []
    failed = 0
    total = 0
    for fam, params in units:
        for r in verify(fam, params, args.node_budget):
            total += 1
            status = "pass" if r.ok else "FAIL"
            failed += 0 if r.ok else 1
            expected = r.expected.display() if isinstance(r.expected, Text) else r.expected
            computed = r.computed.display() if isinstance(r.computed, Text) else r.computed
            param = "-" if r.param is None else r.param
            lines.append(f"{status}  {r.family:<16} param={param:<5} {r.check:<9} "
                         f"expected={expected} computed={computed}")
    if total == 0:
        raise CliError(f"no checks to run: family {args.family!r} carries no predictions "
                       "for the given parameters")
    lines.append(f"{total - failed}/{total} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_show(args: argparse.Namespace) -> int:
    w = _load_text(args)
    if len(w) > SHOW_CAP:
        raise CliError(
            f"text of length {len(w)} exceeds the show cap of {SHOW_CAP} rows; "
            "use the measure subcommand instead"
        )
    lines = []
    if args.view in ("bwt", "bbwt"):
        s = w.symbols
        starts = (0,) if args.view == "bwt" else lyndon_starts(w)
        bounds = starts + (len(s),)
        order = cyclic_rotation_order(w, starts)
        for row, p in enumerate(order.tolist(), start=1):
            i = bisect_right(starts, p)
            rot = s[p:bounds[i]] + s[bounds[i - 1]:p]
            body = " ".join(w.name_of(r) for r in rot[:-1])
            lines.append(f"{row:>4}  {body} | {w.name_of(rot[-1])}")
        result = (bwt if args.view == "bwt" else bbwt)(w, order)
        lines.append(f"{args.view}: {result.output.display()}   runs={result.run_count}")
    else:
        parsing = PARSE_VIEWS[args.view](w)
        b = parsing.bounds
        # the listing is 1-based, as the paper counts positions
        for i, (start, end, src) in enumerate(zip(b, b[1:], parsing.sources), start=1):
            note = "literal" if src is None else f"source={src + 1}"
            lines.append(f"{i:>4}  [{start + 1},{end}]  {w[start:end].display()}  ({note})")
        lines.append(f"{args.view}: {len(parsing)} phrases")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _add_text_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help=f"one of: {', '.join(sorted(FAMILIES))}")
    p.add_argument("--param", type=int, help="family parameter")
    p.add_argument("--input", help="path to a serialized text")
    p.add_argument("--format", choices=("ascii", "tokens"),
                   help="serialization (default: tokens for gen, autodetect for files)")
    p.add_argument("--reverse", action="store_true", help="operate on the reversal")
    p.add_argument("--output", help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revsense", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family string")
    _add_text_source(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("measure", help="compute measures for a text")
    _add_text_source(p)
    p.add_argument("--measures", required=True, help="comma separated measure ids")
    p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--range", help="inclusive parameter range A:B or A:B:STEP")
    p.add_argument("--measures", required=True)
    p.add_argument("--csv", help="output CSV path (default: stdout)")
    p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="closed-form predictions vs computation")
    p.add_argument("--family", required=True, help="family id or 'all'")
    p.add_argument("--range", help="inclusive parameter range A:B or A:B:STEP")
    p.add_argument("--quick", action="store_true", help="use the reduced grid, not the full one")
    p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("show", help="annotated rotation matrix or parse listing")
    _add_text_source(p)
    p.add_argument("--view", required=True, choices=("bwt", "bbwt", *PARSE_VIEWS))
    p.set_defaults(func=cmd_show)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        # a ValueError is a library refusal, textio.SerializationError included
        print(f"revsense: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
