"""scripts/bench_layers.py on its tiny ladder: it runs and writes every key."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


def test_tiny_ladder_writes_every_key(tmp_path):
    subprocess.run([sys.executable, str(SCRIPT), "--tag", "tiny", "--tiny", "--repeat", "1",
                    "--out", str(tmp_path)], check=True, capture_output=True)
    out = json.loads((tmp_path / "BENCH_tiny.json").read_text(encoding="utf-8"))
    assert set(out) == {"commit", "cores", "python", "numpy", "repeat", "cases", "zend",
                        "peak_rss_mb"}
    assert out["repeat"] == 1 and out["cores"] >= 1
    assert set(out["cases"]) == {"random4_100", "random4_1000", "random1000_1000", "unary_1000",
                                 "ab_500", "F_14", "T_p_4", "thue_morse_512"}
    for row in out["cases"].values():
        assert 0 < row["n"] <= 10**3
        assert set(row["seconds"]) == {"suffix_context", "sa_context", "rotation_order",
                                       "lyndon_order", "r", "r_b", "link_pass", "z",
                                       "z_given_links", "z_no", "z_e", "v", "v_without_lcp", "e",
                                       "delta", "r_dollar"}
        assert all(s >= 0 for s in row["seconds"].values())
        # every doubling run ends on a sort
        assert set(row["sorts"]) == {"suffix_context", "sa_context", "rotation_order",
                                     "lyndon_order"}
        assert all(s >= 1 for s in row["sorts"].values())
        counts = row["counts"]
        assert set(counts) == {"z", "z_no", "z_e", "v", "e", "r_dollar", "r", "r_b"}
        assert 1 <= counts["z"] <= min(counts["z_no"], counts["z_e"])
        # a parse that settles z_no has z_no = z
        assert row["z_settles_z_no"] in (True, False)
        assert counts["z_no"] == counts["z"] or not row["z_settles_z_no"]
        # a parse that settles z_e settles z_no, and has z_e = z
        assert row["z_settles_z_e"] in (True, False)
        assert row["z_settles_z_no"] or not row["z_settles_z_e"]
        assert counts["z_e"] == counts["z"] or not row["z_settles_z_e"]
        assert 1 <= counts["v"] and row["n"] <= counts["e"]
        assert all(counts[m] >= 1 for m in ("r_dollar", "r", "r_b"))
        # three int32 arrays of n entries, with their 1/16 over-allocation and headers
        assert 12 * row["n"] <= row["context_mb"] * 2**20 <= 13 * row["n"] + 2**12
    # the gadget 1001011010111 has z < z_e, so z_end's search runs one node deep per fresh symbol
    # z's parse settles z_no on the Fibonacci word, and not on unary text (z = 2 < z_no)
    assert out["cases"]["F_14"]["z_settles_z_no"] and not out["cases"]["unary_1000"]["z_settles_z_no"]
    # and z_e only on the 10^3 symbols over 1,000, all of whose z phrases are literals
    assert [name for name, row in out["cases"].items() if row["z_settles_z_e"]] == ["random1000_1000"]
    assert set(out["zend"]) == {"gadget_1000"}
    row = dict(out["zend"]["gadget_1000"])
    assert row.pop("seconds") >= 0
    assert row == {"n": 1013, "z": 1008, "z_e": 1009, "z_end": 1008, "exact": True}
