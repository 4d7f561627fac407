"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracing import PER_LAYER, Tracer
from worker import Records, import_revsense, run_rounds

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def api():
    return import_revsense()


def test_benchmark_json_names_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _, _ in PER_LAYER]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_pass(name):
    out = run.run(name, seed=3, seconds=1, trace=0, tiny=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_pass_reports_every_layer_metric():
    out = run.run("family-sweeps", seed=1, seconds=1, trace=1, tiny=True)
    assert out["result"]["correct"]
    assert list(out["result"]["metrics"]) == [n for n, _, _ in PER_LAYER]


@pytest.mark.parametrize("name", ["family-sweeps", "random-ladder", "zend-search"])
def test_self_times_and_unattributed_add_up_to_the_traced_wall(api, name, tmp_path):
    wl = workloads.build(name, seed=2, tiny=True)
    records = Records(tmp_path / "records.jsonl")
    done, untraced_s = run_rounds(wl.rounds, api, None, records, "untraced", 1.0)
    original = api.harness.sweep
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_s = run_rounds(wl.rounds[:done], api, None, records, "traced",
                                        None, tracer)
    finally:
        tracer.uninstall()
        records.close()
    assert api.harness.sweep is original
    metrics = tracer.layer_metrics(traced_s, untraced_s)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum + metrics["trace.unattributed_s"] == pytest.approx(traced_s, rel=1e-9)
    assert 0 <= metrics["trace.unattributed_s"] < traced_s
    assert metrics["trace.overhead_ratio"] > 0
    names = [s[0] for s in tracer.spans]
    parents = {(names[s[3]] if s[3] >= 0 else None, s[0]) for s in tracer.spans}
    if name == "zend-search":      # nested calls inside lz_end_optimal are child spans
        assert ("lz.lz_end_optimal", "lz.lz_parse") in parents
        assert metrics["lz.match_lengths.calls"] > 0
    else:
        assert ("bwt.bwt_sentinel", "bwt.bwt") in parents
        assert ("bwt.bwt", "suffixes.cyclic_rotation_order") in parents


def _pins(api, wl):
    pins = {}
    for steps in wl.rounds:
        for step in steps:
            pins.update(step.run(api, None).pins)
    return pins


def _summary(api, wl, refs, tmp_path):
    path = tmp_path / "records.jsonl"
    records = Records(path)
    try:
        run_rounds(wl.rounds[:1], api, refs, records, "untraced", None)
    finally:
        records.close()
    recs = [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines()]
    return run.summarize(recs, None)


def test_a_wrong_pinned_value_shows_in_fail_ratio(api, tmp_path):
    wl = workloads.build("random-ladder", seed=5, tiny=True)
    refs = _pins(api, wl)
    assert _summary(api, wl, refs, tmp_path)["failed"] == 0
    label = wl.rounds[0][0].label
    refs[label]["z"][1] = str(int(refs[label]["z"][1]) + 1)     # z of the reversal
    s = _summary(api, wl, refs, tmp_path)
    assert s["failed"] == 1 and s["attempted"] == 2 * (len(workloads.NEAR_LINEAR)
                                                       + len(workloads.SMALL_TIER))
    assert "z[rev]" in s["reasons"][0]


def test_wrong_sweep_and_verify_digests_fail_their_operations(api, tmp_path):
    wl = workloads.build("family-sweeps", seed=1, tiny=True)
    refs = _pins(api, wl)
    u_k = wl.rounds[0][0]
    refs[f"u_k/{u_k.params[0]}"] = "0" * 16        # one parameter's rows
    refs["table:u_k"] = "0" * 64
    refs["verify"] = ["0" * 64, refs["verify"][1]]
    s = _summary(api, wl, refs, tmp_path)
    assert s["failed"] == 2 * len(u_k.measures) + refs["verify"][1]


def test_invariants_catch_a_broken_measure():
    values = {"z": (5, 6), "z_no": (4, 6), "delta": (3, 4)}
    bad = workloads.invariant_failures(values, {"z": True, "z_no": True, "delta": True})
    assert set(bad) == {("z_no", 0), ("delta", 0), ("delta", 1)}


def test_a_cut_off_step_counts_as_failed_with_the_reason():
    recs = [{"kind": "setup", "setup_s": 0.1, "import_s": 0.1, "inputs": ""},
            {"kind": "start", "phase": "untraced", "step": "0.0", "ops": 8}]
    s = run.summarize(recs, "killed by SIGKILL")
    assert (s["attempted"], s["failed"]) == (8, 8)
    assert "SIGKILL" in s["reasons"][0]


def test_a_timed_out_child_is_killed_and_reported(tmp_path):
    child = run.run_child(["--workload", "random-ladder", "--seed", "1", "--seconds", "30"],
                          tmp_path / "records.jsonl", timeout=2.0)
    assert child["reason"].startswith("timeout")
    s = run.summarize(child["records"], child["reason"])
    assert s["setup"] is None or s["failed"] >= 1


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "family-sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
