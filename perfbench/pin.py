#!/usr/bin/env python3
"""Regenerate refs.json, the pinned outputs the benchmark checks against.

    python3 perfbench/pin.py [--workload NAME ...]

Runs the pinned rounds of each workload at the default seed in this
process and records what the steps computed: the byte digests of the six
sweep CSVs and of `revsense verify --family all --quick`, a digest per
sweep parameter, and the measure values of every seeded report.  Pin only
from a commit whose outputs are known to be right; every later run is
checked against these values.
"""

from __future__ import annotations

import argparse
import json
import sys

from worker import import_revsense
import workloads


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.FACTORIES),
                    help="re-pin only these workloads (default: all)")
    args = ap.parse_args(argv)
    api = import_revsense()
    refs = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    if workloads.REFS_PATH.exists():
        refs = json.loads(workloads.REFS_PATH.read_text(encoding="utf-8"))
    for name in args.workload or sorted(workloads.FACTORIES):
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        pins: dict = {}
        for steps in workload.rounds[:workload.pin_rounds]:
            for step in steps:
                res = step.run(api, None)
                if res.failed:
                    print(f"{name}: refusing to pin, {res.reasons}", file=sys.stderr)
                    return 1
                pins.update(res.pins)
        refs["workloads"][name] = pins
        print(f"{name}: pinned {len(pins)} entries", flush=True)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
