#!/usr/bin/env python3
"""The revsense benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the root of a checkout.  The work runs in child processes started
one at a time (perfbench/worker.py), each under an address-space cap and a
timeout: first SETUP_PROBES children that only set up, then one that runs
the workload.  A child that is killed or times out turns the operations it
had in flight into failed operations with the reason; the run still
reports.

With --trace 0 the run reports the end-to-end metrics, measured with
tracing off.  With --trace 1 it reports the per-layer metrics of a traced
pass over the same rounds.  Every metric is printed as a line with its
unit; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 whenever that line is printed, and 1 when no result can
be produced (for instance when src/revsense is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads
from tracing import PER_LAYER

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = tuple(workloads.FACTORIES)
SETUP_PROBES = 4
ADDRESS_SPACE_CAP = 3 << 30          # bytes per child
RUN_DEADLINE_S = 170.0               # whole run, all children
PROBE_TIMEOUT_S = 30.0

END_TO_END = (                       # (name, unit) as BENCHMARK.json gates them
    ("throughput_sym_per_s", "sym/s"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """No result can be produced."""


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(args: list[str], records: pathlib.Path, timeout: float) -> dict:
    """Run one worker to completion or until `timeout`; returns its
    records, how it ended, and its peak RSS from rusage."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--records", str(records)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        preexec_fn=_limit_child,
    )
    deadline = time.monotonic() + timeout
    reason = None
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            reason = f"timeout after {timeout:.0f} s"
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if reason is None and proc.returncode < 0:
        reason = f"killed by {signal.Signals(-proc.returncode).name}"
    elif reason is None and proc.returncode != 0:
        reason = f"exit code {proc.returncode}"
    lines = records.read_text(encoding="utf-8").splitlines() if records.exists() else []
    return {
        "records": [json.loads(ln) for ln in lines if ln.endswith("}")],
        "reason": reason,
        "maxrss_mb": usage.ru_maxrss / 1024,
    }


def summarize(records: list[dict], reason: str | None) -> dict:
    """Fold a worker's records into counts, timings and failures.

    A step that started but never reported was cut off by the child's end:
    its operations count as attempted and failed, with `reason`.
    """
    s = {"attempted": 0, "failed": 0, "reasons": [], "symbols": 0,
         "busy_s": 0.0, "report_s": [], "zend_exact": 0, "zend_total": 0,
         "steps": 0, "trace": None, "setup": None, "done": False}
    open_steps: dict[tuple, int] = {}
    for rec in records:
        kind = rec["kind"]
        if kind == "setup":
            s["setup"] = rec
        elif kind == "start":
            open_steps[(rec["phase"], rec["step"])] = rec["ops"]
        elif kind == "step":
            open_steps.pop((rec["phase"], rec["step"]), None)
            s["attempted"] += rec["ops"]
            s["failed"] += rec["failed"]
            s["reasons"] += rec["reasons"]
            if rec["phase"] == "untraced":
                s["steps"] += 1
                s["symbols"] += rec["symbols"]
                s["busy_s"] += rec["wall_s"]
                s["report_s"] += rec["report_s"]
                s["zend_exact"] += rec["zend_exact"]
                s["zend_total"] += rec["zend_total"]
        elif kind == "trace":
            s["trace"] = rec
        elif kind == "done":
            s["done"] = True
    for (phase, step), ops in open_steps.items():
        s["attempted"] += ops
        s["failed"] += ops
        s["reasons"].append(f"{phase} step {step}: {reason or 'did not finish'}")
    if reason and not open_steps and not s["done"]:
        s["reasons"].append(f"worker: {reason}")
    return s


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(s: dict, setups: list[float], maxrss_mb: float) -> tuple[dict, list[str]]:
    """The gated metrics, and the printed lines that include the ungated ones."""
    throughput = s["symbols"] / s["busy_s"] if s["busy_s"] > 0 else 0.0
    metrics = {
        "throughput_sym_per_s": throughput,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "throughput_sym_per_s": f"{s['symbols']} symbols in {s['busy_s']:.2f} s",
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{x:.3f}" for x in setups),
    }
    lines = [f"  {name:<26}{metrics[name]:>16.4f} {unit:<7} {notes[name]}"
             for name, unit in END_TO_END]
    # Not gated: at this commit the BBWT's memory follows the Lyndon
    # factors of each seed's texts, so the peak spreads past any bound.
    lines.append(f"  {'peak_rss_mb':<26}{maxrss_mb:>16.4f} {'MB':<7} "
                 f"ru_maxrss of the worker (not gated)")
    n_reports = len(s["report_s"])
    if n_reports >= 100:        # a p90 needs ten samples beyond it
        for name, q in (("report_ms_p50", 0.5), ("report_ms_p90", 0.9)):
            value = 1000 * _percentile(s["report_s"], q)
            lines.append(f"  {name:<26}{value:>16.4f} {'ms':<7} {n_reports} reports (not gated)")
    ratio = s["failed"] / s["attempted"] if s["attempted"] else 0.0
    lines.append(f"  {'fail_ratio':<26}{ratio:>16.4f} {'ratio':<7} "
                 f"{s['failed']}/{s['attempted']} operations (gated as `correct`)")
    if s["zend_total"]:
        lines.append(f"  {'zend_exact_ratio':<26}{s['zend_exact'] / s['zend_total']:>16.4f} "
                     f"{'ratio':<7} {s['zend_exact']}/{s['zend_total']} z_end computations "
                     f"(not gated)")
    return metrics, lines


def per_layer(s: dict) -> tuple[dict, list[str]]:
    values = s["trace"]["metrics"]
    metrics = {name: values[name] for name, _, _ in PER_LAYER}
    lines = [f"  {name:<46}{metrics[name]:>14.4f} {unit}" for name, unit, _ in PER_LAYER]
    lines.append(f"  traced pass {s['trace']['traced_s']:.2f} s, untraced pass "
                 f"{s['trace']['untraced_s']:.2f} s, spans in {s['trace']['spans_path']}")
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object and the printed lines."""
    if not (ROOT / "src" / "revsense" / "__init__.py").is_file():
        raise BenchError(f"no revsense sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    base = OUT_DIR / f"{workload}-{seed}-{trace}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)] + (["--tiny"] if tiny else [])
    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = run_child(common + ["--setup-only"], base.with_suffix(f".probe{i}.jsonl"),
                              PROBE_TIMEOUT_S)
            setup = summarize(probe["records"], probe["reason"])["setup"]
            if setup is None or probe["reason"]:
                raise BenchError(f"set-up failed: {probe['reason']}")
            setups.append(setup["setup_s"])
    child = run_child(common, base.with_suffix(".jsonl"),
                      RUN_DEADLINE_S - (time.monotonic() - start))
    s = summarize(child["records"], child["reason"])
    if s["setup"] is None or s["attempted"] == 0:
        raise BenchError(f"the workload did not start: {child['reason']}")
    header = [f"perfbench {workload} seed={seed} trace={trace}"
              f"{' tiny' if tiny else ''}: {s['steps']} steps",
              f"  inputs: {s['setup']['inputs']}"]
    if trace:
        if s["trace"] is None:
            raise BenchError(f"the traced pass did not finish: {child['reason']}")
        metrics, lines = per_layer(s)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, lines = end_to_end(s, setups + [s["setup"]["setup_s"]], child["maxrss_mb"])
        units = dict(END_TO_END)
    lines += [f"  failure: {r}" for r in s["reasons"][:20]]
    result = {
        "correct": s["failed"] == 0 and child["reason"] is None,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return {"result": result, "lines": header + lines}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring window; whole rounds run until it is used up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; outputs are checked by the invariants only")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
