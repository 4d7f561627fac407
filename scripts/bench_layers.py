#!/usr/bin/env python3
"""Time the LZ layers and the other readers of a suffix context in
revsense on a fixed ladder of texts and write BENCH_<tag>.json.

The cases are seeded random texts over 4 symbols at n = 10^3, 10^4, 10^5
and 10^6 and over 1,000 symbols at n = 10^5, the unary text of 10^5
symbols, the periodic text (ab)^(5*10^4), the Fibonacci words F_26 and
F_30, the staircase word T_p 40 and the Thue-Morse prefix of 2^16
symbols.  Per case it records the best of --repeat wall times, in
seconds, of:

    suffix_context   build_suffix_context(w)
    sa_context       build_suffix_context(w, {"sa"}), the context r_dollar
                     alone reads: no inverse and no LCP lift
    rotation_order   cyclic_rotation_order(w), the order r reads
    lyndon_order     cyclic_rotation_order(w, lyndon_starts(w)), the order
                     of the Lyndon factors' rotations that r_b reads
    r                bwt(w), its rotation order and run count
    r_b              bbwt(w), its Lyndon factors, their order and run count
    link_pass        links = lz._SuffixMatcher(ctx), the links z_no reads
    z                lz_parse(w, ctx) on the plain context, as a report
                     without z_no runs it
    z_given_links    lz_parse(w, links), as a report with z_no runs it
    z_no             lz_no_overlap(w, links)
    z_e              lz_end_greedy(w, ctx, rev_ctx) on the plain context,
                     reverse(w)'s context given
    v                lex_parse(w, ctx)
    v_without_lcp    lex_parse(w, sa_isa), on a context of sa and isa only,
                     as a v-only report builds it: each phrase's LCP is
                     measured on the text
    e                right_extension_count(w, ctx)
    delta            substring_complexity(w, ctx)
    r_dollar         bwt_sentinel(w, ctx)

the values z, z_no, z_e, v, e, r_dollar, r and r_b; z_settles_z_no,
whether no copy phrase of z's parse overlaps its source, so that a report
reads z_no off that parse and builds no link pass; z_settles_z_e, whether
every copy phrase's source ends at an earlier bound of z's parse, so that
a report that parses z reads z_e and z_end off it and sorts no reversal
for them; and context_mb, the MB
that one built context holds (tracemalloc, w's dense ranks already
derived).  Its sorts block counts the doubling kernel's sorts (calls of
suffixes._dense_ranks) in one suffix_context, rotation_order and
lyndon_order call.

The zend block times z_end's exact search, lz_end_optimal(w, ctx=ctx,
greedy=..., base=...) with the context and both greedy parses given, as
a report runs it, at the default node budget.  Its texts are the gadget
1001011010111 followed by 5*10^4 fresh symbols, where the search goes
one node deep per symbol, and five random binary texts of perfbench's
zend-search workload (n <= 128), one of them inexact.  Per text it records
n, z, z_e, z_end, exact and the best of --repeat wall times.

The JSON also records the commit, the core count, the Python and numpy
versions and the peak RSS.

    python3 scripts/bench_layers.py --tag T [--repeat K] [--out DIR] [--tiny]

--tiny runs the same kinds of text at n <= 10^3, and the gadget followed
by 10^3 fresh symbols, to check the script.
"""

import argparse
import json
import os
import pathlib
import platform
import random
import resource
import subprocess
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from revsense import lz, suffixes  # noqa: E402
from revsense.bwt import bbwt, bwt, bwt_sentinel  # noqa: E402
from revsense.families import FamilySpec, generate  # noqa: E402
from revsense.lexparse import lex_parse  # noqa: E402
from revsense.measures import right_extension_count, substring_complexity  # noqa: E402
from revsense.suffixes import build_suffix_context, cyclic_rotation_order  # noqa: E402
from revsense.text import Text, lyndon_starts, reverse  # noqa: E402

GADGET = (1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1)    # 1001011010111


def _random(sigma, n):
    rng = random.Random(n * 1009 + sigma)
    return Text(tuple(rng.randrange(sigma) for _ in range(n)))


def _thue_morse(n):
    return Text(tuple(bin(i).count("1") & 1 for i in range(n)))


def cases(tiny):
    """(name, text) pairs of the ladder, or of its n <= 10^3 version."""
    if tiny:
        return [*((f"random4_{n}", _random(4, n)) for n in (10**2, 10**3)),
                ("random1000_1000", _random(1000, 10**3)), ("unary_1000", Text((0,) * 10**3)),
                ("ab_500", Text((0, 1) * 500)),
                ("F_14", generate(FamilySpec("fib", 14))), ("T_p_4", generate(FamilySpec("T_p", 4))),
                ("thue_morse_512", _thue_morse(2**9))]
    return [*((f"random4_{n}", _random(4, n)) for n in (10**3, 10**4, 10**5, 10**6)),
            ("random1000_100000", _random(1000, 10**5)), ("unary_100000", Text((0,) * 10**5)),
            ("ab_50000", Text((0, 1) * (5 * 10**4))),
            ("F_26", generate(FamilySpec("fib", 26))), ("F_30", generate(FamilySpec("fib", 30))),
            ("T_p_40", generate(FamilySpec("T_p", 40))),
            ("thue_morse_65536", _thue_morse(2**16))]


def zend_cases(tiny):
    """(name, text) pairs of the z_end rows.  The gadget 1001011010111, on
    which z < z_e, followed by fresh symbols makes the search one node deep
    per symbol.  The zend_search_r<r> texts are the uniform random binary
    texts that perfbench's zend-search workload draws at seed 1, round r;
    r3 stays inexact at the default node budget."""
    fresh = 10**3 if tiny else 5 * 10**4
    out = [(f"gadget_{fresh}", Text(GADGET + tuple(range(2, 2 + fresh))))]
    for r in () if tiny else (0, 3, 7, 8, 15):
        rng = np.random.default_rng([1, r])
        n = int(rng.integers(64, 129))
        out.append((f"zend_search_r{r}", Text(tuple(rng.integers(0, 2, n).tolist()))))
    return out


def _best(repeat, fn):
    """Best wall time of `repeat` calls of fn() and the last result."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _sorts(fn):
    """The doubling kernel's sorts, calls of suffixes._dense_ranks, in one fn() call."""
    calls = 0
    dense_ranks = suffixes._dense_ranks

    def counted(key):
        nonlocal calls
        calls += 1
        return dense_ranks(key)

    suffixes._dense_ranks = counted
    try:
        fn()
    finally:
        suffixes._dense_ranks = dense_ranks
    return calls


def measure(w, repeat):
    ctx = build_suffix_context(w)
    rev_ctx = build_suffix_context(reverse(w))
    seconds, counts = {}, {}
    starts = lyndon_starts(w)
    layers = {"suffix_context": lambda: build_suffix_context(w),
              "sa_context": lambda: build_suffix_context(w, frozenset({"sa"})),
              "rotation_order": lambda: cyclic_rotation_order(w),
              "lyndon_order": lambda: cyclic_rotation_order(w, starts)}
    sorts = {name: _sorts(fn) for name, fn in layers.items()}
    for name, fn in layers.items():
        seconds[name], _ = _best(repeat, fn)
    seconds["r"], t = _best(repeat, lambda: bwt(w))
    counts["r"] = t.run_count
    seconds["r_b"], t = _best(repeat, lambda: bbwt(w))
    counts["r_b"] = t.run_count
    seconds["link_pass"], links = _best(repeat, lambda: lz._SuffixMatcher(ctx))
    seconds["z"], p = _best(repeat, lambda: lz.lz_parse(w, ctx))
    counts["z"], settles, settles_end = len(p), lz._no_copy_overlaps(p), lz._sources_end_at_bounds(p)
    seconds["z_given_links"], _ = _best(repeat, lambda: lz.lz_parse(w, links))
    seconds["z_no"], p = _best(repeat, lambda: lz.lz_no_overlap(w, links))
    counts["z_no"] = len(p)
    seconds["z_e"], p = _best(repeat, lambda: lz.lz_end_greedy(w, ctx, rev_ctx))
    counts["z_e"] = len(p)
    seconds["v"], p = _best(repeat, lambda: lex_parse(w, ctx))
    counts["v"] = len(p)
    sa_isa = build_suffix_context(w, frozenset({"sa", "isa"}))
    seconds["v_without_lcp"], _ = _best(repeat, lambda: lex_parse(w, sa_isa))
    seconds["e"], counts["e"] = _best(repeat, lambda: right_extension_count(w, ctx))
    seconds["delta"], _ = _best(repeat, lambda: substring_complexity(w, ctx))
    seconds["r_dollar"], t = _best(repeat, lambda: bwt_sentinel(w, ctx))
    counts["r_dollar"] = t.run_count
    return {"n": len(w), "counts": counts, "seconds": seconds, "sorts": sorts,
            "z_settles_z_no": settles, "z_settles_z_e": settles_end, "context_mb": _context_mb(w)}


def measure_zend(w, repeat):
    ctx = build_suffix_context(w)
    greedy, base = lz.lz_end_greedy(w, ctx), lz.lz_parse(w, ctx)
    seconds, (p, exact) = _best(
        repeat, lambda: lz.lz_end_optimal(w, ctx=ctx, greedy=greedy, base=base))
    return {"n": len(w), "z": len(base), "z_e": len(greedy), "z_end": len(p), "exact": exact,
            "seconds": seconds}


def _context_mb(w):
    """MB that one built suffix context of w holds once the build returns."""
    tracemalloc.start()
    try:
        ctx = build_suffix_context(w)     # alive while its memory is read
        return tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()


def _commit():
    """The checkout's short commit id, marked +dirty when src/ differs from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    ap.add_argument("--repeat", type=int, default=3, help="timed calls per layer; the best counts")
    ap.add_argument("--out", default=str(ROOT), help="output directory (default: the repo root)")
    ap.add_argument("--tiny", action="store_true", help="texts of at most 10^3 symbols")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be positive")
    result = {"commit": _commit(), "cores": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "repeat": args.repeat, "cases": {}, "zend": {}}
    for name, w in cases(args.tiny):
        result["cases"][name] = row = measure(w, args.repeat)
        print(name, row["n"], " ".join(f"{k}={v:.4f}" for k, v in row["seconds"].items()),
              file=sys.stderr)
    for name, w in zend_cases(args.tiny):
        result["zend"][name] = row = measure_zend(w, args.repeat)
        print(name, row["n"], f"z_end={row['z_end']} exact={row['exact']} "
              f"seconds={row['seconds']:.4f}", file=sys.stderr)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    path = pathlib.Path(args.out) / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
