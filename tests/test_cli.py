import dataclasses
import fractions
import hashlib
import json
import os
import subprocess
import sys

import pytest

import thetaq
from thetaq import identities
from thetaq._rational import rat
from thetaq.cli import main
from thetaq.series import InsufficientOrderError


def run_cli(*argv, capsys=None):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_expand_theta(capsys):
    rc, out, _ = run_cli("expand", "theta", "--j", "0", "--m", "1",
                         "--order", "5", capsys=capsys)
    assert rc == 0
    assert out.strip() == ("1 + q^(1) * z^(-1) + q^(1) * z^(1) "
                           "+ q^(4) * z^(-2) + q^(4) * z^(2)")


def test_expand_eta_pentagonal(capsys):
    rc, out, _ = run_cli("expand", "eta", "--scale", "1", "--power", "1",
                         "--order", "13", capsys=capsys)
    assert rc == 0
    assert out.startswith("q^(1/24) - q^(25/24) - q^(49/24)")


def test_expand_character_json(capsys):
    rc, out, _ = run_cli("expand", "character", "--m", "2", "--m2", "1",
                         "--order", "3", "--format", "json", capsys=capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["terms"][0][:2] == ["7/48", "-1/2"]
    assert obj["terms"][0][2] == ["0", "0", "1", "0"]


def test_expand_ubasis(capsys):
    rc, out, _ = run_cli("expand", "ubasis", "--m", "3", "--sector", "integer",
                         "--order", "2", capsys=capsys)
    assert rc == 0
    assert out.count("[") >= 2


def test_expand_ubasis_rejects_level_zero(capsys):
    rc, out, err = run_cli("expand", "ubasis", "--m", "0", "--sector", "half",
                           "--order", "3", capsys=capsys)
    assert rc == 2
    assert out == ""
    assert "level m must be a positive integer" in err


def test_expand_numerator(capsys):
    rc, out, _ = run_cli("expand", "numerator", "--m", "1", "--s", "1/2",
                         "--order", "1", capsys=capsys)
    assert rc == 0
    assert "q^(3/16)" in out


def test_verify_single_and_exit_codes(capsys):
    rc, out, _ = run_cli("verify", "--id", "S2.mumford.item2", capsys=capsys)
    assert rc == 0
    assert "PASS" in out
    rc, _, err = run_cli("verify", "--id", "nonsense", capsys=capsys)
    assert rc == 2
    assert "unknown identity id" in err


def test_verify_requires_target(capsys):
    rc, _, err = run_cli("verify", capsys=capsys)
    assert rc == 2


def test_branch_text_and_json(capsys):
    rc, out, _ = run_cli("branch", "--left", "1:0", "--right", "1:1",
                         "--order", "4", capsys=capsys)
    assert rc == 0
    assert "status: exact" in out
    rc, out, _ = run_cli("branch", "--left", "1:0", "--right", "1:1",
                         "--order", "4", "--format", "json", capsys=capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["basis"] == ["2:1"]
    dec = obj["decomposition"]
    assert dec["status"] == "exact"
    assert dec["coefficients"][0]["terms"][0][0] == "1/48"


def test_branch_unavailable_basis(capsys):
    rc, _, err = run_cli("branch", "--left", "2:0", "--right", "2:2",
                         "--order", "3", capsys=capsys)
    assert rc == 2
    assert "basis not available" in err


def test_branch_bad_label(capsys):
    rc, _, err = run_cli("branch", "--left", "9:0", "--right", "1:0",
                         capsys=capsys)
    assert rc == 2


def test_list_output(capsys):
    rc, out, _ = run_cli("list", capsys=capsys)
    assert rc == 0
    assert "S2.mumford.item2" in out
    assert "identities" in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"default_order": "3", "output_format": "json"}))
    rc, out, _ = run_cli("--config", str(cfg), "expand", "eta",
                         "--scale", "1", "--power", "1", capsys=capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["cutoff"] == "3"
    bad = tmp_path / "bad.json"
    bad.write_text("{\"default_order\": 3, \"mystery\": 1}")
    rc, _, err = run_cli("--config", str(bad), "list", capsys=capsys)
    assert rc == 2
    assert "unknown config keys" in err


def test_branch_exits_2_when_certification_is_exhausted(capsys, monkeypatch):
    def always_short(target, basis, order):
        raise InsufficientOrderError("short", max_order=order - rat(1, 8))

    monkeypatch.setattr(identities, "decompose", always_short)
    rc, out, err = run_cli("branch", "--left", "1:0", "--right", "1:1",
                           "--order", "2", capsys=capsys)
    assert rc == 2
    assert out == ""
    assert "could not certify" in err


@pytest.mark.parametrize("value", [None, [2], 1.5, True, "two", "2.0", 0, "-1"])
def test_config_parallelism_must_be_a_positive_integer(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"parallelism": value}))
    rc, out, err = run_cli("--config", str(cfg), "list", capsys=capsys)
    assert rc == 2
    assert out == ""
    assert "parallelism must be a positive integer" in err


@pytest.mark.parametrize("value", [2, "2"])
def test_config_parallelism_takes_ints_and_integer_strings(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"parallelism": value}))
    rc, _, _ = run_cli("--config", str(cfg), "verify", "--id",
                       "S2.squares.item3", capsys=capsys)
    assert rc == 0


@pytest.mark.parametrize("value", [{}, 0, None, "", ["json"]])
def test_config_output_format_must_be_a_known_name(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_format": value}))
    rc, out, err = run_cli("--config", str(cfg), "list", capsys=capsys)
    assert rc == 2
    assert out == ""
    assert "unknown format" in err


def test_list_json_is_pinned(capsys):
    # sha256 of `thetaq list --format json` before the registry was rewritten
    # as law tables: ids, kinds, orders and anchors are the output contract
    rc, out, _ = run_cli("list", "--format", "json", capsys=capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3c7d910659ed59eacff6e38178fe58a98490d01669fdf1769aa52af1d8abeebf"
    )


def _json_keys(*keys):
    def check(out):
        obj = json.loads(out)
        rows = obj if isinstance(obj, list) else [obj]
        assert rows and all(set(row) == set(keys) for row in rows)

    return check


def _has(text):
    def check(out):
        assert text in out

    return check


def _failing(order):
    return False, (rat(1, 2), rat(-1))


def _raising(order):
    raise ValueError("boom")


@pytest.mark.parametrize("argv, run, rc, check", [
    (["expand", "eta", "--order", "2", "--format", "markdown"], None, 0,
     _has("| qexp | zexp | coefficient |\n| --- | --- | --- |\n| 1/24 | 0 | 1 |")),
    (["verify", "--id", "S2.squares.item3", "--format", "markdown"], None, 0,
     _has("| id | kind | status | certified_order | first_mismatch |\n"
          "| --- | --- | --- | --- | --- |\n"
          "| S2.squares.item3 | equality | pass | 6 |  |")),
    (["list", "--format", "json"], None, 0,
     _json_keys("id", "kind", "default_order", "anchor")),
    (["expand", "mumford", "--label", "10", "--order", "2"], None, 0,
     _has("q^(1/8) * z^(-1/2) + q^(1/8) * z^(1/2)")),
    (["expand", "ubasis", "--m", "2", "--sector", "half", "--order", "2",
      "--format", "json"], None, 0, _json_keys("terms", "cutoff")),
    (["verify", "--id", "S2.squares.item3"], _failing, 1,
     _has("FAIL  S2.squares.item3  [order 6, ")),
    (["verify", "--id", "S2.squares.item3"], _failing, 1,
     _has(" ms]  mismatch at (q^1/2, z^-1)\n")),
    (["verify", "--id", "S2.squares.item3"], _raising, 1,
     _has("ERROR S2.squares.item3  [order 0, ")),
    (["verify", "--id", "S2.squares.item3"], _raising, 1,
     _has(" ms]  ValueError: boom\n")),
], ids=["expand-markdown", "verify-markdown", "list-json", "expand-mumford",
        "expand-ubasis-json", "verify-fail-status", "verify-mismatch-suffix",
        "verify-error-status", "verify-error-suffix"])
def test_output_paths(capsys, monkeypatch, argv, run, rc, check):
    if run is not None:
        reg = identities.registry()
        case = reg["S2.squares.item3"]
        monkeypatch.setitem(reg, case.id, dataclasses.replace(case, run=run))
    got, out, _ = run_cli(*argv, capsys=capsys)
    assert got == rc
    check(out)


def test_invalid_order(capsys):
    rc, _, err = run_cli("expand", "eta", "--scale", "1", "--power", "1",
                         "--order", "x/y", capsys=capsys)
    assert rc == 2


@pytest.mark.slow
def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaq.cli", "expand", "theta",
         "--j", "1", "--m", "1", "--order", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "q^(1/4)" in proc.stdout


def test_one_rational_type():
    assert thetaq.BACKEND == "fraction"
    assert thetaq.rat is fractions.Fraction


@pytest.mark.slow
def test_backend_variable_is_ignored():
    # exact rationals are always Fractions; a leftover THETAQ_BACKEND
    # selects nothing
    proc = subprocess.run(
        [sys.executable, "-m", "thetaq.cli", "verify", "--id",
         "S2.squares.item3", "--format", "json"],
        capture_output=True, text=True,
        env={**os.environ, "THETAQ_BACKEND": "gmp"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["backend"] == "fraction"
