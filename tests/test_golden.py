"""Golden outputs: the six CSVs of scripts/run_sweeps.py and the stdout of
`revsense verify --family all`, on the quick and on the full grid, pinned
by sha256, so that a change to any layer under them that alters a byte
fails here."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

import revsense.cli as cli

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_sweeps.py"

SWEEP_DIGESTS = {
    "T_p_rev": "6e5f444d07589109ef3661a2409ec8057fb26666fa9c55f70b775851db3626b9",
    "c_fib_rev": "b18f11fb0bd399c8f5194af092df31f43b0c8cd3d687d42f9ec66e78e0de7315",
    "fib_plus": "ee233714a12a316bd3fd124367d1366b867ca6e9847c76b3ad1d705051033c38",
    "u_k": "7865437512aa71451411dd136d35874f1d20135dd17baa2243daf204672ad548",
    "unary_plus": "590bea81e745f8358d718100bc1adefb6170ca30d87a2bd9f0b1041aff55bbaf",
    "w_sigma": "d4386441eb129a5f7d7dc18b0a345a7c89387aeae916cc7579fd2ef6e4804481",
}

VERIFY_DIGESTS = {
    "quick": "3dadee36d89799d686f4265f9371012562030cd9414ac928daa28eb16e9df580",
    "full": "338b248be305fcd04bda07f31afca622db56cedcc3ce3d53224a47e9e4fba1c8",
}


def test_sweep_csvs_are_byte_identical(tmp_path):
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(tmp_path)],
                   check=True, capture_output=True)
    got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert got == SWEEP_DIGESTS


@pytest.mark.parametrize("grid", ["quick", "full"])
def test_verify_output_is_byte_identical(grid, capsys):
    flags = ["--quick"] if grid == "quick" else []
    assert cli.main(["verify", "--family", "all", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[grid]
