#!/usr/bin/env python3
"""Run the standard reversal-sensitivity sweeps and write one CSV per
family into an output directory (default: ./sweeps).

Covers the families with extremal behaviour: BWT-run growth (u_k),
the LZ ratio approaching 3 (T_p), the linear additive LZ/lex gap
(w_sigma), the constant-size lex parse of reversed Fibonacci-plus-c
words, Fibonacci-plus BWT runs, and the right-extension doubling family.
The wall time of each table goes to stderr; stdout lists the files.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from revsense.harness import rows_to_csv, sweep  # noqa: E402

SWEEPS = [
    ("u_k", range(1, 101), ("r", "r_dollar", "r_b")),
    ("T_p_rev", range(2, 21), ("z", "z_no")),
    ("w_sigma", range(2, 201, 2), ("z", "z_no", "z_e", "z_end", "v")),
    ("c_fib_rev", range(9, 26, 2), ("v",)),
    ("fib_plus", range(8, 25, 2), ("r", "r_dollar")),
    ("unary_plus", range(2, 501), ("e",)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sweeps", help="output directory")
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for family, params, measures in SWEEPS:
        t0 = time.perf_counter()
        rows = sweep(family, list(params), measures)
        path = out / f"{family}.csv"
        path.write_text(rows_to_csv(rows), encoding="utf-8")
        print(f"wrote {path} ({len(rows)} rows)")
        print(f"{family}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
