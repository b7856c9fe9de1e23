import json
import subprocess
import sys
from pathlib import Path

from zetterberg import cli
from zetterberg.caps import ENV_CONFIG

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "zetterberg", *args],
                          capture_output=True, text=True)


def test_field_reports_h_order():
    r = run_cli("field", "--p", "2", "--m", "2", "--s", "2")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["subgroup_orders"]["H"] == 17


def test_field_dump_has_modulus():
    r = run_cli("field", "--p", "3", "--m", "1", "--s", "2", "--dump")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["modulus"]) == 5 and data["modulus"][-1] == 1


def test_field_dump_matches_golden():
    # one stdout line per (p, m, s), in the order below
    expected = (GOLDEN / "field_dump.txt").read_text().splitlines(keepends=True)
    for (p, m, s), line in zip([(3, 1, 2), (2, 2, 3), (5, 1, 2)], expected, strict=True):
        r = run_cli("field", "--p", str(p), "--m", str(m), "--s", str(s), "--dump")
        assert r.returncode == 0
        assert r.stdout == line


def test_field_rejects_composite_p():
    r = run_cli("field", "--p", "4", "--m", "1", "--s", "1")
    assert r.returncode == 2


def test_radius_verify():
    r = run_cli("radius", "--q0", "3", "--s", "2", "--method", "verify",
                "--no-timing")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["rho"] == 3 and len(data["cross_checks"]) >= 2
    assert all(c["rho"] == 3 for c in data["cross_checks"])


def test_radius_criterion_with_witness():
    r = run_cli("radius", "--q0", "13", "--s", "3", "--no-timing")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["rho"] == 3 and data["witness"] is not None


def test_radius_undecidable_exit_code():
    r = run_cli("radius", "--q0", "16", "--s", "9")
    assert r.returncode == 4


def test_radius_rejects_non_prime_power():
    r = run_cli("radius", "--q0", "12", "--s", "2")
    assert r.returncode == 2


def test_mindist_exhaustive_verified():
    r = run_cli("mindist", "--q0", "4", "--s", "2", "--variant", "full",
                "--exhaustive")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["formula"] == 4 and data["exhaustive"] == 4 and data["verified"]


def test_mindist_exhaustive_below_d_is_unverified():
    # d = 5: a search up to weight 4 that finds nothing agrees with the formula
    r = run_cli("mindist", "--q0", "2", "--s", "2", "--variant", "full",
                "--exhaustive", "--max-weight", "4")
    assert r.returncode == 0 and r.stderr == ""
    data = json.loads(r.stdout)
    assert data["exhaustive"] is None and data["verified"] is None
    # d = 2 is within reach of a weight-2 search, which finds it
    r = run_cli("mindist", "--q0", "3", "--s", "2", "--variant", "full",
                "--exhaustive", "--max-weight", "2")
    assert r.returncode == 0 and json.loads(r.stdout)["verified"] is True


def test_mindist_half_q0_3():
    r = run_cli("mindist", "--q0", "3", "--s", "2", "--variant", "half",
                "--exhaustive")
    assert json.loads(r.stdout)["formula"] == 5 and r.returncode == 0


def test_mindist_half_s1():
    r = run_cli("mindist", "--q0", "5", "--s", "1", "--variant", "half")
    assert json.loads(r.stdout)["formula"] == 3


def test_thresholds_csv_matches_golden():
    r = run_cli("thresholds", "--parity", "odd", "--q0-max", "59")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "thresholds_odd.csv").read_text()
    r = run_cli("thresholds", "--parity", "even", "--q0-max", "128")
    assert r.stdout == (GOLDEN / "thresholds_even.csv").read_text()


def test_thresholds_small_range():
    r = run_cli("thresholds", "--parity", "odd", "--q0-max", "5")
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 3 and lines[1].startswith("3,") and lines[2].startswith("5,")


def test_classify_markdown_rows():
    r = run_cli("classify", "--q0", "7", "--s-max", "2", "--variant", "half")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "| 7 | 2 | half | [25,21] | 4 | 3 |" in lines[3]


def test_classify_json_format():
    r = run_cli("classify", "--q0", "2", "--s-max", "6", "--variant", "full",
                "--format", "json")
    rows = json.loads(r.stdout)
    by_s = {row["s"]: row for row in rows}
    assert by_s[2]["perfect"] and by_s[4]["quasi_perfect"]


def test_cli_outputs_match_golden(capsys):
    # stdout and exit code per command, recorded at commit 550f131
    for case in json.loads((GOLDEN / "cli_outputs.json").read_text()):
        assert cli.main(case["args"]) == case["returncode"], case["args"]
        assert capsys.readouterr().out == case["stdout"], case["args"]


def test_even_q0_half_sweep_is_usage_error(capsys):
    # s = 1, 2, 3 give no code of nonnegative dimension, yet are rejected too
    for s_max in ("1", "2", "3"):
        for fmt in ("markdown", "json"):
            args = ["classify", "--q0", "2", "--s-max", s_max, "--variant", "half",
                    "--format", fmt]
            assert cli.main(args) == 2
            assert capsys.readouterr() == ("", "error: half code requires odd q0\n")


def test_mindist_cap_exceeded_exit_code():
    # d = 4 needs the weight-4 pass, which would try 7,344,000 words
    r = run_cli("mindist", "--q0", "16", "--s", "2", "--variant", "full",
                "--exhaustive")
    assert r.returncode == 3


def test_huge_s_refused_from_exponent(tmp_path, monkeypatch, capsys):
    # each power has over 4,300 digits, past Python's int-to-str limit: the
    # cap checks compare exponents and print the power as q0^e
    for args, message in (
            (["radius", "--q0", "3", "--s", "4509", "--method", "oracle"],
             "q^2 = 3^9018 exceeds oracle cap 1048576"),
            (["radius", "--q0", "3", "--s", "9017", "--method", "criterion"],
             "q = 3^9017 exceeds criterion cap 33554432"),
            (["field", "--p", "2", "--m", "1", "--s", "7200"],
             "ambient order p^(2sm) = 2^14400 exceeds cap 4294967296"),
            (["mindist", "--q0", "2", "--s", "7200", "--variant", "full", "--exhaustive"],
             "ambient order p^(2sm) = 2^14400 exceeds cap 4294967296")):
        assert cli.main(args) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # verify declines the over-cap routes and keeps the shortcut's verdict
    assert cli.main(["radius", "--q0", "13", "--s", "2001", "--method", "verify",
                     "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "shortcut:s>=s_*"
    # past a lifted criterion cap, the digit-kernel limit prints q0^e too
    cfg = tmp_path / "caps.conf"
    cfg.write_text("criterion_order_cap=0x1" + "0" * 4000 + "\n")
    monkeypatch.setenv(ENV_CONFIG, str(cfg))
    assert cli.main(["radius", "--q0", "3", "--s", "9017", "--method", "criterion"]) == 3
    assert capsys.readouterr().err == \
        "error: q = 3^9017 is too large for exact float digit kernels\n"


def test_mindist_weight5_past_length_64():
    r = run_cli("mindist", "--q0", "2", "--s", "6", "--variant", "full",
                "--exhaustive")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["exhaustive"] == 5 and data["verified"] is True


def test_cli_deterministic():
    args = ("radius", "--q0", "5", "--s", "2", "--method", "verify", "--no-timing")
    assert run_cli(*args).stdout == run_cli(*args).stdout
    args = ("thresholds", "--parity", "even", "--q0-max", "64")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_field_rejects_zero_m():
    r = run_cli("field", "--p", "2", "--m", "0", "--s", "1")
    assert r.returncode == 2 and r.stdout == ""


def test_radius_rejects_zero_s():
    r = run_cli("radius", "--q0", "3", "--s", "0")
    assert r.returncode == 2 and r.stdout == ""


def test_classify_rejects_nonpositive_s_max():
    for args in (("--s-max", "0", "--variant", "full"),
                 ("--s-max", "-2", "--variant", "full", "--format", "json")):
        r = run_cli("classify", "--q0", "3", *args)
        assert r.returncode == 2 and r.stdout == ""


def test_bad_config_is_usage_error(tmp_path, monkeypatch):
    # scan_cap and exhaustive_len_cap name no cap: criterion_order_cap bounds
    # every criterion scan, enum_codewords_cap every codeword search pass
    for text in ("oracle_cap=0\n", "no_such_cap=1\n", "scan_cap=1\n",
                 "exhaustive_len_cap=64\n", "oracle_cap=many\n"):
        cfg = tmp_path / "caps.conf"
        cfg.write_text(text)
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        assert cli.main(["thresholds", "--parity", "odd", "--q0-max", "5"]) == 2
    monkeypatch.setenv(ENV_CONFIG, str(tmp_path / "missing.conf"))
    r = run_cli("thresholds", "--parity", "odd", "--q0-max", "5")
    assert r.returncode == 2 and r.stderr.startswith("error: config:")


def test_digit_kernel_limit_exits_as_cap(tmp_path, monkeypatch, capsys):
    # a lifted criterion_order_cap or oracle_cap reaches the digit kernels'
    # size limit, which is a cap (exit 3), not an internal error
    cfg = tmp_path / "caps.conf"
    cfg.write_text(f"criterion_order_cap={2**60}\n")
    monkeypatch.setenv(ENV_CONFIG, str(cfg))
    args = ["radius", "--q0", "200003", "--s", "2", "--method", "criterion"]
    assert cli.main(args) == 3
    assert "exact float digit kernels" in capsys.readouterr().err
    # likewise the oracle's ambient field, with its caps lifted
    cfg.write_text(f"oracle_cap={2**40}\nmax_ambient_order={2**40}\n")
    args = ["radius", "--q0", "200003", "--s", "1", "--method", "oracle"]
    assert cli.main(args) == 3
    assert "exact float digit kernels" in capsys.readouterr().err


def test_internal_value_error_exits_one(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("kernel fault")
    monkeypatch.setattr(cli, "covering_radius", broken)
    assert cli.main(["radius", "--q0", "3", "--s", "2"]) == 1
    assert capsys.readouterr().err == "error: internal: kernel fault\n"


def test_mindist_contradiction_exits_one(monkeypatch, capsys):
    # (2, 2, full) has formula d = 5; either search result below contradicts it
    args = ["mindist", "--q0", "2", "--s", "2", "--variant", "full", "--exhaustive"]
    for found, max_weight in ((3, "4"), (None, "5")):
        monkeypatch.setattr(cli, "min_distance_exhaustive", lambda *a, **k: found)
        assert cli.main(args + ["--max-weight", max_weight]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["verified"] is False
        assert err == f"error: exhaustive search found d={found}, formula says 5\n"
