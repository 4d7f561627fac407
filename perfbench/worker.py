"""Child process of the benchmark: set up one workload and run it.

Usage (started by run.py, one child at a time):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --records PATH [--setup-only] [--tiny]

It imports revsense from the checkout's src/, derives the inputs from the
seed, loads the pinned references, and appends one JSON record per line
to PATH, flushed as it goes, so that the parent still knows what ran
when this process is killed.  Records:

    setup  {setup_s, import_s, inputs}
    start  {phase, step, ops}                   before each step
    step   {phase, step, wall_s, ops, failed, reasons, symbols,
            report_s, zend_exact, zend_total}   after each step
    trace  {metrics, spans_path}                traced runs only
    done   {}

Rounds run until --seconds have passed: another round starts only while
the elapsed time plus one mean round stays within the window, so a run
always holds whole rounds, at least one.  A traced run runs the rounds
under the tracer, then runs the same rounds again untraced as the base of
trace.overhead_ratio.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import traceback
from time import perf_counter

import workloads
from tracing import Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


class Records:
    def __init__(self, path: pathlib.Path):
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, kind: str, **fields) -> None:
        self._fh.write(json.dumps({"kind": kind, **fields}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def import_revsense():
    """Import the library from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import revsense
    import revsense.cli

    if not pathlib.Path(revsense.__file__).resolve().is_relative_to(src):
        raise ImportError(f"revsense was imported from {revsense.__file__}, not {src}")
    return revsense


def run_rounds(rounds, api, refs, records: Records, phase: str,
               seconds: float | None, tracer=None) -> tuple[int, float]:
    """Run whole rounds; returns (rounds run, summed step seconds)."""
    done, busy = 0, 0.0
    t_start = perf_counter()
    for r, steps in enumerate(rounds):
        elapsed = perf_counter() - t_start
        if seconds is not None and done and elapsed + elapsed / done > seconds:
            break
        for i, step in enumerate(steps):
            key = f"{r}.{i}"
            records.write("start", phase=phase, step=key, ops=step.ops)
            if tracer is not None:
                tracer.request = key
            t0 = perf_counter()
            try:
                res = step.run(api, refs)
            except Exception as exc:   # the run goes on; the step's ops fail
                traceback.print_exc()
                res = _failed_step(step, f"{key}: {type(exc).__name__}: {exc}")
            wall = perf_counter() - t0
            busy += wall
            records.write(
                "step", phase=phase, step=key, wall_s=wall, ops=res.ops,
                failed=min(res.failed, res.ops), reasons=res.reasons,
                symbols=res.symbols, report_s=res.report_s,
                zend_exact=res.zend_exact, zend_total=res.zend_total,
            )
        done += 1
    return done, busy


def _failed_step(step, reason: str):
    res = workloads.StepResult(step.ops)
    res.fail(step.ops, reason)
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--records", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    records = Records(pathlib.Path(args.records))
    try:
        t0 = perf_counter()
        revsense = import_revsense()
        import_s = perf_counter() - t0
        t1 = perf_counter()
        workload = workloads.build(args.workload, args.seed, args.tiny)
        refs = workloads.load_refs(workload, args.seed, args.tiny)
        setup_s = import_s + perf_counter() - t1
        records.write("setup", setup_s=setup_s, import_s=import_s, inputs=workload.inputs)
        if args.setup_only:
            return 0

        api = revsense     # steps call revsense.harness.sweep etc. at call time
        if not args.trace:
            run_rounds(workload.rounds, api, refs, records, "untraced", args.seconds)
        else:
            # Traced first, so that ru_maxrss grows inside the traced calls.
            tracer = Tracer()
            tracer.install()
            try:
                done, traced_s = run_rounds(workload.rounds, api, refs, records,
                                                   "traced", args.seconds, tracer)
            finally:
                tracer.uninstall()
            _, untraced_s = run_rounds(workload.rounds[:done], api, refs, records,
                                          "untraced", None)
            spans_path = pathlib.Path(args.records).with_suffix(".spans.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "request"],
                           "spans": tracer.spans}, fh)
            records.write("trace", metrics=tracer.layer_metrics(traced_s, untraced_s),
                          traced_s=traced_s, untraced_s=untraced_s,
                          spans_path=str(spans_path))
        records.write("done")
        return 0
    finally:
        records.close()


if __name__ == "__main__":
    sys.exit(main())
