import errno
import hashlib
import os
import subprocess
import sys

import pytest

import revsense.cli as cli
from revsense.harness import VerifyRow


def run_cli(*argv):
    return cli.main(list(argv))


def test_gen_tokens(capsys):
    assert run_cli("gen", "--family", "u_k", "--param", "1", "--format", "tokens") == 0
    out = capsys.readouterr().out
    assert out == "#alphabet #_1 &_1 a b\nb a #_1 a &_1\n"


def test_gen_ascii_witness(capsys):
    assert run_cli("gen", "--family", "t55", "--format", "ascii") == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 55 and set(out) <= {"a", "b"}


def test_gen_reverse_flag(capsys):
    run_cli("gen", "--family", "u_k", "--param", "1", "--format", "tokens")
    fwd = capsys.readouterr().out
    run_cli("gen", "--family", "u_k_rev", "--param", "1", "--format", "tokens")
    via_family = capsys.readouterr().out
    run_cli("gen", "--family", "u_k", "--param", "1", "--format", "tokens", "--reverse")
    via_flag = capsys.readouterr().out
    assert via_family == via_flag != fwd


def test_gen_param_error(capsys):
    assert run_cli("gen", "--family", "w_sigma", "--param", "3") == 2
    assert "must be even" in capsys.readouterr().err


def test_measure_witness(capsys):
    assert run_cli("measure", "--family", "t55", "--measures", "z") == 0
    assert capsys.readouterr().out == "z=14\n"
    assert run_cli("measure", "--family", "t55", "--measures", "z", "--reverse") == 0
    assert capsys.readouterr().out == "z=6\n"


def test_measure_file_input(tmp_path, capsys):
    path = tmp_path / "ex.txt"
    path.write_text("baabaaba\n")
    assert run_cli("measure", "--input", str(path), "--measures", "r,r_b") == 0
    assert capsys.readouterr().out == "r=2\nr_b=4\n"


def test_measure_e_large_file_input(tmp_path, capsys):
    import random
    from revsense.measures import right_extension_count
    from revsense.textio import from_ascii
    rng = random.Random(13)
    data = "".join(rng.choice("acgt") for _ in range(10**4))
    path = tmp_path / "big.txt"
    path.write_text(data + "\n")
    assert run_cli("measure", "--input", str(path), "--measures", "e") == 0
    out = capsys.readouterr().out
    assert out == f"e={right_extension_count(from_ascii(data))}\n"


def test_measure_block_family(capsys):
    assert run_cli("measure", "--family", "w_sigma", "--param", "2",
                   "--measures", "z,v") == 0
    assert capsys.readouterr().out == "z=3\nv=3\n"


def test_measure_matches_library(capsys):
    from revsense.families import FamilySpec, generate
    from revsense.harness import sensitivity_report
    w = generate(FamilySpec("u_k", 4))
    reports = {r.measure: r for r in sensitivity_report(w, ["r", "z", "v", "delta"])}
    assert run_cli("measure", "--family", "u_k", "--param", "4",
                   "--measures", "r,z,v,delta") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"r={reports['r'].value_fwd}", f"z={reports['z'].value_fwd}",
                     f"v={reports['v'].value_fwd}", f"delta={reports['delta'].value_fwd}"]


def test_measure_lines_follow_the_given_order(capsys):
    from revsense.families import FamilySpec, generate
    from revsense.harness import evaluate
    ids = ["z", "z", "v"]
    values = evaluate(generate(FamilySpec("c_fib", 9)), ids)
    assert all(exact for _, exact in values) and values[0] != values[2]
    assert run_cli("measure", "--family", "c_fib", "--param", "9", "--measures", "z,z,v") == 0
    assert capsys.readouterr().out == "".join(
        f"{m}={value}\n" for m, (value, _) in zip(ids, values))


def test_measure_inexact_suffix(capsys):
    # z < z_e on the witness forces the search; budget 1 exhausts immediately
    assert run_cli("measure", "--family", "t55", "--measures", "z_end",
                   "--node-budget", "1") == 0
    out = capsys.readouterr().out
    assert out.startswith("z_end=") and out.rstrip().endswith("exact=false")


def test_measure_unknown_measure(capsys):
    assert run_cli("measure", "--family", "t55", "--measures", "zz") == 3
    assert "unknown measure" in capsys.readouterr().err


def test_measure_requires_one_source(capsys):
    assert run_cli("measure", "--measures", "z") == 2
    capsys.readouterr()
    assert run_cli("measure", "--family", "t55", "--input", "x", "--measures", "z") == 2


def test_param_with_input_exits_2(tmp_path, capsys):
    path = tmp_path / "ex.txt"
    path.write_text("baabaaba\n")
    for command in (["measure", "--measures", "z"], ["gen"], ["show", "--view", "lz"]):
        assert run_cli(*command, "--input", str(path), "--param", "7") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "revsense: --param applies to --family only, not to --input\n"


def test_sweep_csv(tmp_path):
    path = tmp_path / "out.csv"
    assert run_cli("sweep", "--family", "u_k", "--range", "1:10",
                   "--measures", "r,r_dollar,r_b", "--csv", str(path)) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 10 * 3 * 2
    assert lines[0].startswith("family,param,n,measure")
    from oracles import rows_from_csv
    rows = rows_from_csv(path.read_text())
    assert {r.family for r in rows} == {"u_k", "u_k_rev"}


def test_sweep_determinism(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        assert run_cli("sweep", "--family", "c_fib_rev", "--range", "9:15:2",
                       "--measures", "v", "--csv", str(p)) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_pass(capsys):
    assert run_cli("verify", "--family", "u_k", "--range", "1:12") == 0
    out = capsys.readouterr().out
    assert "60/60 checks passed" in out


def test_verify_defaults_to_the_full_grid(capsys):
    assert run_cli("verify", "--family", "u_k") == 0
    assert capsys.readouterr().out.endswith("\n500/500 checks passed\n")


def test_verify_rejects_quick_with_range(capsys):
    assert run_cli("verify", "--family", "u_k", "--range", "1:100", "--quick") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--quick cannot be combined with --range" in captured.err


@pytest.mark.parametrize("family, span", [("fib", "1:5"), ("c_fib_rev", "3:8")])
def test_verify_rejects_a_run_that_checks_nothing(family, span, capsys):
    # fib carries no predictions; c_fib_rev predicts v for odd k >= 9 only
    assert run_cli("verify", "--family", family, "--range", span) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no checks to run" in captured.err


def test_verify_quick_all(capsys):
    assert run_cli("verify", "--family", "all", "--quick") == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out


def test_verify_param_error(capsys):
    assert run_cli("verify", "--family", "w_sigma", "--range", "3:3") == 2
    assert "must be even" in capsys.readouterr().err


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify", lambda *a, **k: [
        VerifyRow("u_k", 1, "r", 4, 5, False)])
    assert run_cli("verify", "--family", "u_k", "--range", "1:1") == 4
    assert "FAIL" in capsys.readouterr().out


def test_show_bwt(capsys):
    assert run_cli("show", "--family", "u_k", "--param", "3", "--view", "bwt") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 16  # 15 rotations + summary
    assert out[-1].endswith("runs=10")


def test_show_bbwt(tmp_path, capsys):
    path = tmp_path / "ex.txt"
    path.write_text("baabaaba")
    assert run_cli("show", "--input", str(path), "--format", "ascii", "--view", "bbwt") == 0
    assert capsys.readouterr().out == (
        "   1   | a\n"
        "   2  a a | b\n"
        "   3  a a | b\n"
        "   4  a b | a\n"
        "   5  a b | a\n"
        "   6  b a | a\n"
        "   7  b a | a\n"
        "   8   | b\n"
        "bbwt: abbaaaab   runs=4\n"
    )


@pytest.mark.parametrize("family, param, digest", [
    ("u_k", 3, "3cc37b631360224fa7e8ed70e348a7befa1dd016cb0b78ad556dfae54b23e370"),
    ("fib_plus", 10, "9fe05c1db433692232cdf166f2ee588032d75eaec989c7bc1b1a6294ec8828b1"),
])
def test_show_bbwt_sorts_the_rotations_once(family, param, digest, monkeypatch, capsys):
    bwt_module = sys.modules["revsense.bwt"]   # the package's `bwt` is the function
    sorts = []
    order = cli.cyclic_rotation_order

    def counted(*args):
        sorts.append(args)
        return order(*args)

    monkeypatch.setattr(cli, "cyclic_rotation_order", counted)
    monkeypatch.setattr(bwt_module, "cyclic_rotation_order", counted)
    assert run_cli("show", "--family", family, "--param", str(param), "--view", "bbwt") == 0
    assert len(sorts) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_show_parse_views(tmp_path, capsys):
    path = tmp_path / "ex.txt"
    path.write_text("abracadabracabra")
    assert run_cli("show", "--input", str(path), "--view", "lex") == 0
    out = capsys.readouterr().out
    assert "lex: 8 phrases" in out
    assert run_cli("show", "--family", "w_sigma", "--param", "6", "--view", "lz") == 0
    assert "lz: 13 phrases" in capsys.readouterr().out


SHOW_MEMBERS = [("t55", None), ("t55_rev", None), ("w_sigma", 6), ("w_sigma_rev", 8),
                ("T_p", 3), ("T_p_rev", 4), ("fib", 10), ("c_fib_rev", 9), ("u_k", 3),
                ("unary_plus", 12)]


@pytest.mark.parametrize("view, digest", [
    ("lz", "e0b8c1a1545a745935e2fd8108c07493a89fd2f53cc892896e393406a60574b6"),
    ("lz_no", "6d68672180c2c970ba1db8cf8f4c5c73ee84ff9addfbb80b2e68648292f4f60d"),
    ("lz_end", "8d982629709d4f495f6fd91926014eca1df6af4df98cabe74b5fa7cae3866e46"),
    ("lex", "09c30df3d5a243debe142cc3b9edcb728f0da313b280773c61c388547111ea24"),
    ("bwt", "fd75db8ff21bfeb9f558a5e3f61c5d6bb4e94091b46ea2efb0a5df5a375d861f"),
    ("bbwt", "4360e5a9cd1d073cbfdb795b16bf77a79fa8f211e2433fc9266d8286378689cc"),
])
def test_show_views_are_pinned(view, digest, capsys):
    """Every `show` view prints the same bytes on ten family members: the
    sha256 of their outputs, concatenated in SHOW_MEMBERS order."""
    h = hashlib.sha256()
    for family, param in SHOW_MEMBERS:
        argv = ["show", "--family", family, "--view", view]
        assert run_cli(*argv, *(() if param is None else ("--param", str(param)))) == 0
        h.update(capsys.readouterr().out.encode("utf-8"))
    assert h.hexdigest() == digest


def test_show_every_view_dispatches(capsys):
    for view in ("bwt", "bbwt", *cli.PARSE_VIEWS):
        assert run_cli("show", "--family", "w_sigma", "--param", "4", "--view", view) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"{view}: ")


def test_show_cap(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("ab" * 150)
    assert run_cli("show", "--input", str(path), "--view", "bwt") == 2
    assert "measure" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "revsense", "measure", "--family", "w_sigma",
         "--param", "6", "--measures", "z,z_no,z_e,z_end,v"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "z=13\nz_no=13\nz_e=13\nz_end=13\nv=13\n"


def test_missing_file(capsys):
    assert run_cli("measure", "--input", "/nonexistent/file", "--measures", "z") == 2


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"ab\xffba\n")
    assert run_cli("measure", "--input", str(path), "--measures", "z") == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("span", ["1:--3", "1:3-", "1:3:-+1", "1:²"])
def test_malformed_range_exits_2(span, capsys):
    assert run_cli("verify", "--family", "u_k", "--range", span) == 2
    assert "bad range" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["measure", "--family", "t55", "--measures", "z_end"],
    ["sweep", "--family", "t55", "--measures", "z_end"],
    ["verify", "--family", "u_k", "--range", "1:2"],
])
@pytest.mark.parametrize("budget", ["0", "-5", "x"])
def test_node_budget_must_be_positive(command, budget, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--node-budget", budget)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("data", ["#alphabet a b\na b\nb b b", "baab\naaba"])
def test_file_the_writer_cannot_produce_exits_2(data, tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(data)
    for command in (["measure", "--measures", "z"], ["gen"]):
        assert run_cli(*command, "--input", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("revsense: ")


def test_measure_value_error_exits_2(capsys):
    assert run_cli("measure", "--family", "w_sigma", "--param", "3", "--measures", "z") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "revsense: w_sigma parameter sigma must be even, got 3\n"


def test_measure_answers_on_a_symbol_named_dollar(tmp_path, capsys):
    # the sentinel of w$ takes a name that no symbol shows; the values are
    # those of the same symbols without names
    path = tmp_path / "dollar.tok"
    path.write_text("#alphabet $ a\n$ a $ a a\n")
    assert run_cli("measure", "--input", str(path), "--measures", "r,r_dollar,r_b") == 0
    assert capsys.readouterr().out == "r=2\nr_dollar=4\nr_b=2\n"


@pytest.mark.parametrize("command", [
    ["gen", "--family", "fib", "--param", "5", "--output"],
    ["measure", "--family", "fib", "--param", "5", "--measures", "z", "--output"],
    ["sweep", "--family", "fib", "--range", "3:4", "--measures", "z", "--csv"],
    ["verify", "--family", "u_k", "--range", "1:2", "--output"],
    ["show", "--family", "fib", "--param", "5", "--view", "bwt", "--output"],
])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_output_exits_2(command, target, tmp_path, capsys):
    if target == "missing_dir":
        path, code = tmp_path / "missing" / "out.txt", errno.ENOENT
    else:
        path, code = tmp_path, errno.EISDIR
    assert run_cli(*command, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"revsense: {path}: {os.strerror(code)}\n"


@pytest.mark.parametrize("command, raiser", [
    (["gen", "--family", "w_sigma", "--param", "3"], "FamilySpec"),
    (["measure", "--family", "w_sigma", "--param", "3", "--measures", "z"], "FamilySpec"),
    (["sweep", "--family", "w_sigma", "--range", "3:3", "--measures", "z"], "sweep"),
    (["verify", "--family", "w_sigma", "--range", "3:3"], "verify"),
])
def test_library_refusal_exits_2(command, raiser, monkeypatch, capsys):
    from revsense.families import FamilySpec
    with pytest.raises(ValueError) as refusal:
        FamilySpec("w_sigma", 3)
    assert run_cli(*command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"revsense: {refusal.value}\n"

    # only a ValueError is a refusal; any other error still propagates
    def broken(*args, **kwargs):
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(cli, raiser, broken)
    with pytest.raises(RuntimeError, match="not a refusal"):
        run_cli(*command)
