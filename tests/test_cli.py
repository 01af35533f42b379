import fractions
import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import thetaq
from thetaq import cli, identities
from thetaq._rational import rat
from thetaq.cli import main
from thetaq.linsolve import Decomposition
from thetaq.series import InsufficientOrderError
from thetaq.thetalib import eta


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
    (["verify", "--id", "S2.squares.item3", "--format", "markdown"], _failing, 1,
     _has("| S2.squares.item3 | equality | fail | 6 | (1/2, -1) |\n")),
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
    (["list", "--format", "markdown"], None, 0,
     _has("| id | kind | default_order | anchor |\n| --- | --- | --- | --- |\n"
          "| S2.mult-lemma.n1m1.j0k0 | equality | 6 | theta multiplication "
          "law, degrees (1,1), indices (0,0) |\n")),
    (["branch", "--left", "1:0", "--right", "1:1", "--order", "2",
      "--format", "markdown"], None, 0,
     _has("status: exact (certified below 2)\n\n| label | coefficient |\n"
          "| --- | --- |\n"
          "| 2:1 | q^(1/48) - q^(25/48) + q^(49/48) - 2 * q^(73/48) |\n")),
    (["expand", "ubasis", "--m", "3", "--sector", "integer", "--order", "2",
      "--format", "markdown"], None, 0,
     _has("| generator | qexp | zexp | coefficient |\n| --- | --- | --- | --- |\n"
          "| 0 | 45/64 | -2 | -1 |\n")),
], ids=["expand-markdown", "verify-markdown", "verify-markdown-fail", "list-json",
        "expand-mumford", "expand-ubasis-json", "verify-fail-status", "verify-mismatch-suffix",
        "verify-error-status", "verify-error-suffix", "list-markdown",
        "branch-markdown", "expand-ubasis-markdown"])
def test_output_paths(capsys, monkeypatch, argv, run, rc, check):
    if run is not None:
        reg = identities.registry()
        case = reg["S2.squares.item3"]
        stand_in = identities.IdentityCase(
            case.id, case.kind, case.default_order, case.anchor, run)
        monkeypatch.setitem(reg, case.id, stand_in)
    got, out, _ = run_cli(*argv, capsys=capsys)
    assert got == rc
    check(out)


@pytest.mark.parametrize("fmt, expected", [
    ("text", "1:0 x 1:1 over 2:1\nstatus: not-in-span (certified below 2)\n"
             "  coeff[2:1] = q^(1/24) - q^(25/24)\n"
             "  unmatched monomial: (q^1/2, z^-1)\n"),
    ("markdown", "1:0 x 1:1 over 2:1\n\nstatus: not-in-span (certified below 2)"
                 "\n\n| label | coefficient |\n| --- | --- |\n"
                 "| 2:1 | q^(1/24) - q^(25/24) |\n\n"
                 "unmatched monomial: (q^1/2, z^-1)\n"),
])
def test_branch_prints_the_witness_of_a_failed_decomposition(
        capsys, monkeypatch, fmt, expected):
    def not_in_span(left, right, order):
        e = eta(1, 1, 2)
        return [(2, 1)], Decomposition(
            [e], e, "not-in-span", rat(2), (rat(1, 2), rat(-1)))

    monkeypatch.setattr("thetaq.cli.branch_product", not_in_span)
    rc, out, _ = run_cli("branch", "--left", "1:0", "--right", "1:1",
                         "--order", "2", "--format", fmt, capsys=capsys)
    assert rc == 1
    assert out == expected


@pytest.mark.parametrize("config, argv, message", [
    (None, ["list"], "cannot read config"),
    ("{not json", ["list"], "cannot read config"),
    ("[1, 2]", ["list"], "config must be a JSON object"),
    ("{}", ["list", "--jobs", "0"], "--jobs must be a positive integer"),
    ("{}", ["expand", "eta", "--order", "0"], "--order must be positive"),
    ("{}", ["expand", "eta", "--order", "-1"], "--order must be positive"),
    ("{}", ["branch", "--left", "1-0", "--right", "1:1"],
     "label must look like m:m2, got '1-0'"),
], ids=["config-missing", "config-not-json", "config-array", "jobs-zero",
        "order-zero", "order-negative", "branch-label"])
def test_usage_errors_exit_2(tmp_path, capsys, config, argv, message):
    path = tmp_path / "cfg.json"
    if config is not None:  # None: the config file does not exist
        path.write_text(config)
    rc, out, err = run_cli("--config", str(path), *argv, capsys=capsys)
    assert rc == 2
    assert out == ""
    assert message in err


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


@pytest.mark.slow
def test_closed_stdout_exits_1_without_a_traceback():
    # `thetaq list | head -1`: the listing outgrows the pipe buffer, so the
    # writes after the reader closes its end fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "thetaq.cli", "list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert first.startswith(b"S2.mult-lemma.n1m1.j0k0 ")
    assert err == b""


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


@pytest.mark.parametrize("argv", [
    ["expand", "theta", "--j", "1", "--m", "2", "--format", "json"],
    ["expand", "character", "--m", "2", "--m2", "1"],
    ["expand", "ubasis", "--m", "2", "--sector", "half"],
], ids=["theta-json", "character", "ubasis"])
def test_expand_defaults_to_order_6(capsys, argv):
    rc, out, err = run_cli(*argv, capsys=capsys)
    assert (rc, err) == (0, "")
    assert (rc, out, err) == run_cli(*argv, "--order", "6", capsys=capsys)
    if "json" in argv:
        assert json.loads(out)["cutoff"] == "6"


def test_broken_pipe_exits_1_without_a_traceback_in_process(capsys, monkeypatch):
    # stdout as a pipe whose reader has gone: every write fails
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return 1

    redirected = []

    def dup2(fd, fd2):
        redirected.append(fd2)
        os.close(fd)

    # only the CLI's os: the test's own capture moves file descriptors too
    monkeypatch.setattr(cli, "os", types.SimpleNamespace(
        devnull=os.devnull, O_WRONLY=os.O_WRONLY, open=os.open, dup2=dup2))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["list"]) == 1
    assert redirected == [1]  # stdout now points at devnull
    assert capsys.readouterr().err == ""
