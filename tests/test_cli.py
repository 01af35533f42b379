import fractions
import json
import os
import subprocess
import sys

import pytest

import thetaq
from thetaq import cli
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

    monkeypatch.setattr(cli, "decompose", always_short)
    rc, out, err = run_cli("branch", "--left", "1:0", "--right", "1:1",
                           "--order", "2", capsys=capsys)
    assert rc == 2
    assert out == ""
    assert "could not certify" in err


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
