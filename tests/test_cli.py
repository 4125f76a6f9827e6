"""Tests for the command-line interface."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qauth
from qauth import verify
from qauth.cli import (
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    main,
    resolve_code,
)
from qauth.cli import ConfigError


def run_cli(*argv):
    return main(list(argv))


def _edited_spec(tmp_path, selector, **edits):
    """Write ``selector``'s spec with keys set (value) or dropped (None)."""
    spec = resolve_code(selector).to_spec_dict()
    for key, value in edits.items():
        if value is None:
            del spec[key]
        else:
            spec[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _raw_file(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    return str(path)


def _systematic_spec(tmp_path, n, m, t):
    """A spec of m systematic rows with random checks, no field, and ``t``."""
    rng = random.Random(n)
    rows = [(1 << i) | (rng.getrandbits(n - m) << m) for i in range(m)]
    spec = {"name": f"c{n}", "n": n, "m": m, "t": t,
            "generator_rows": [format(r, "x") for r in rows]}
    return _raw_file(tmp_path, json.dumps(spec).encode())


class TestResolveCode:
    def test_builtins(self):
        assert resolve_code("rep3").n == 3
        assert resolve_code("rep5").t == 2
        assert resolve_code("hamming74").m == 4

    def test_bch_shorthand(self):
        code = resolve_code("bch-63-18")
        assert (code.n, code.m, code.t) == (63, 18, 10)

    def test_bch_explicit_t(self):
        code = resolve_code("bch-15-7-2")
        assert (code.n, code.m, code.t) == (15, 7, 2)

    def test_unknown_selector(self):
        with pytest.raises(ConfigError):
            resolve_code("fountain-code")

    def test_unknown_bch_shorthand(self):
        with pytest.raises(ConfigError):
            resolve_code("bch-63-20")

    def test_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(resolve_code("hamming74").to_spec_dict()))
        code = resolve_code(str(path))
        assert (code.n, code.m, code.t) == (7, 4, 1)

    def test_builtin_names_win_over_files(self, tmp_path, monkeypatch):
        # a folder rep3 and a file hamming74 in the working directory
        (tmp_path / "rep3").mkdir()
        (tmp_path / "hamming74").write_text(json.dumps(resolve_code("rep5").to_spec_dict()))
        monkeypatch.chdir(tmp_path)
        assert resolve_code("rep3").name == "rep3"
        assert resolve_code("hamming74").name == "hamming74"
        assert resolve_code("./hamming74").name == "rep5"


class TestCodeBuild:
    def test_bch_kv_style(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        rc = run_cli("code", "build", "--bch", "w=6", "t=10", "--out", str(out))
        assert rc == EXIT_OK
        assert "n=63 m=18 t=10" in capsys.readouterr().out
        spec = json.loads(out.read_text())
        assert spec["n"] == 63 and spec["m"] == 18

    def test_bch_plain_style(self, capsys):
        assert run_cli("code", "build", "--bch", "7", "23") == EXIT_OK
        assert "n=127 m=22 t=23" in capsys.readouterr().out

    def test_repetition(self, capsys):
        assert run_cli("code", "build", "--repetition", "3") == EXIT_OK
        assert "n=3 m=1 t=1" in capsys.readouterr().out

    def test_hamming74(self, capsys):
        assert run_cli("code", "build", "--hamming74") == EXIT_OK
        assert "n=7 m=4 t=1" in capsys.readouterr().out

    def test_missing_choice_is_config_error(self, capsys):
        assert run_cli("code", "build") == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "error: one of the arguments --bch --repetition --hamming74 is required"
        ]

    @pytest.mark.parametrize("w, message", [
        ("x=6", "error: expected w=..., got 'x=6'"),
        ("six", "error: expected an integer for w, got 'six'"),
    ])
    def test_bad_bch_tokens_are_config_errors(self, w, message, capsys):
        assert run_cli("code", "build", "--bch", w, "10") == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [message]

    def test_bad_bch_params(self, capsys):
        assert run_cli("code", "build", "--bch", "w=9", "t=1") == EXIT_CONFIG


class TestAnalyticsTable:
    def test_csv_single_code(self, capsys):
        rc = run_cli("analytics", "table", "--code", "rep3")
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "code,n,m,t,p_f,p_dec,p_f_prime,key_overhead"
        assert "rep3,3,1,1,4.2e-01,8.4e-01,6.6e-01,3.00" in out

    def test_json_exact(self, capsys):
        rc = run_cli(
            "analytics", "table", "--code", "rep3", "--format", "json", "--exact"
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 3
        row = report["results"][0]
        assert row["p_f_exact"] == {"numerator": "27", "denominator": "64"}


class TestSimulate:
    def test_honest_short_run(self, capsys):
        rc = run_cli(
            "simulate", "honest", "--code", "hamming74", "--trials", "50",
            "--seed", "5",
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["successes"] == 50

    def test_default_seed_documented(self, capsys):
        rc = run_cli("simulate", "honest", "--code", "rep3", "--trials", "5")
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == DEFAULT_SEED

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            rc = run_cli(
                "simulate", "no-message", "--code", "rep3",
                "--trials", "300", "--seed", "42", "--out", str(p),
            )
            assert rc == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("attack", ["honest", "no-message", "intercept-resend"])
    def test_config_lists_only_the_options_the_attack_reads(self, attack, capsys):
        assert run_cli("simulate", attack, "--code", "rep3", "--trials", "5") == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        keys = {"attack", "code", "trials", "seed"}
        if attack != "honest":
            keys.add("forged_message")
        if attack == "intercept-resend":
            keys.add("on_decode_failure")
        assert set(config) == keys

    def test_forged_message_length_checked(self, capsys):
        rc = run_cli(
            "simulate", "no-message", "--code", "hamming74",
            "--trials", "5", "--forged-message", "10",
        )
        assert rc == EXIT_CONFIG


class TestOracle:
    def test_pdec_gap_zero(self, capsys):
        rc = run_cli("oracle", "pdec", "--code", "hamming74")
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["equal"] is True
        assert report["results"]["gap"] == "0"

    def test_nomsg_values(self, capsys):
        rc = run_cli("oracle", "nomsg", "--code", "rep3")
        assert rc == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["exact_value"] == "7/16"
        assert results["formula_value"] == "27/64"
        assert results["gap"] == "1/64"
        assert results["any_codeword"] == "7/16"

    def test_nomsg_exits_3_when_the_two_values_differ(self, monkeypatch, capsys):
        monkeypatch.setattr(
            verify, "oracle_no_message_any_codeword", lambda code: Fraction(1, 2)
        )
        rc = run_cli("oracle", "nomsg", "--code", "rep3")
        assert rc == EXIT_VERIFY
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["exact_value"], results["any_codeword"]) == ("7/16", "1/2")

    def test_nomsg_size_bound_is_config_error(self, capsys):
        rc = run_cli("oracle", "nomsg", "--code", "rep17")
        assert rc == EXIT_CONFIG
        assert "smaller code" in capsys.readouterr().err

    def test_ir_reports_gap_without_failing(self, capsys):
        rc = run_cli("oracle", "ir", "--code", "rep3")
        assert rc == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["equal"] is False

    def test_size_bound_is_config_error(self, capsys):
        rc = run_cli("oracle", "pdec", "--code", "bch-63-18")
        assert rc == EXIT_CONFIG
        assert "smaller code" in capsys.readouterr().err

    def test_ir_runs_at_n_11(self):
        assert run_cli("oracle", "ir", "--code", "rep11") == EXIT_OK

    @pytest.mark.parametrize("oracle", ["pdec", "ir"])
    def test_decode_oracles_share_the_bound_n_12(self, oracle, capsys):
        rc = run_cli("oracle", oracle, "--code", "rep13")
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "n=13" in lines[0] and "n <= 12" in lines[0]


class TestUserInputErrors:
    """Bad user input exits 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["simulate", "honest", "--code", "rep3", "--trials", "0"],
            lambda tmp: ["simulate", "honest", "--code", "rep4"],
            lambda tmp: ["code", "build", "--bch", "6", "40"],
            lambda tmp: ["analytics", "table", "--code", "bch-62-10-3"],
            lambda tmp: ["simulate", "honest", "--code", "bch-63-50-2"],
            lambda tmp: [
                "simulate", "honest", "--code", _edited_spec(tmp, "hamming74", t=None),
            ],
            lambda tmp: [
                "simulate", "honest", "--code", _edited_spec(tmp, "bch-15-7-2", t=3),
            ],
            # x^4 + x^3 + x^2 + x + 1 has order 5, so it is not primitive
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"w": 4, "primitive_poly": 0b11111}),
            ],
            # x^4 + x^3 + 1 is primitive, but over it the rows are not BCH(4, 2)
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"w": 4, "primitive_poly": 0b11001}),
            ],
            # x^9 + x^4 + 1 is primitive, but GF(2^9) elements overflow a byte lane
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"w": 9, "primitive_poly": 0x211}),
            ],
            # x^2 + x + 1 is primitive, but not of degree 4
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"w": 4, "primitive_poly": 0b111}),
            ],
            lambda tmp: [
                "simulate", "no-message", "--code", "hamming74",
                "--forged-message", "0a11",
            ],
            lambda tmp: [
                "simulate", "no-message", "--code", "hamming74",
                "--forged-message", "0120",
            ],
            lambda tmp: [
                "simulate", "honest", "--code", _edited_spec(tmp, "hamming74", t="1"),
            ],
            lambda tmp: [
                "simulate", "honest", "--code", _edited_spec(tmp, "hamming74", n=7.0),
            ],
            lambda tmp: [
                "simulate", "honest", "--code", _edited_spec(tmp, "hamming74", t=True),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "hamming74", generator_rows="31"),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "hamming74", generator_rows=[49, 82, 100, 120]),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "hamming74", generator_rows=["31", "zz", "64", "78"]),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "hamming74", generator_rows=["-31", "52", "64", "78"]),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "hamming74", generator_rows=["0x31", "52", "64", "78"]),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "hamming74", generator_rows=[" 31 ", "52", "64", "78"]),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "hamming74", generator_rows=["31", "52", "64", "f8"]),
            ],
            lambda tmp: [
                "oracle", "pdec", "--code",
                _edited_spec(tmp, "hamming74", parity_rows=["zz", "1"]),
            ],
            lambda tmp: [
                "oracle", "pdec", "--code",
                _edited_spec(tmp, "hamming74", parity_rows=["1", "2", "4"]),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"w": "4", "primitive_poly": 19}),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"w": 4, "primitive_poly": "0x13"}),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={}),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"w": 4}),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field={"primitive_poly": 19}),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field=0),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field=[]),
            ],
            lambda tmp: [
                "simulate", "honest", "--code",
                _edited_spec(tmp, "bch-15-7-2", field=""),
            ],
            lambda tmp: [
                "analytics", "table", "--code", _edited_spec(tmp, "hamming74", t=2),
            ],
            lambda tmp: [
                "analytics", "table", "--code",
                _edited_spec(tmp, "hamming74", name={"a": 1, "b": 2}),
            ],
            lambda tmp: [
                "analytics", "table", "--code",
                _edited_spec(tmp, "hamming74", m=0, generator_rows=[]),
            ],
            lambda tmp: ["simulate", "honest", "--code", "."],
            lambda tmp: ["simulate", "honest", "--code", _raw_file(tmp, b"\xff\xfe\x00")],
            lambda tmp: [
                "simulate", "honest", "--code", "rep3", "--trials", "5",
                "--out", str(tmp / "missing" / "x.json"),
            ],
            lambda tmp: ["code", "build", "--bch", "6", "10",
                         "--out", str(tmp / "missing" / "a.json")],
            lambda tmp: ["analytics", "table", "--code", "rep3",
                         "--out", str(tmp / "missing" / "t.csv")],
            lambda tmp: ["simulate", "no-message", "--code", "rep3",
                         "--forged-message", ""],
            lambda tmp: ["code", "build", "--repetition", "0"],
            lambda tmp: ["code", "build", "--bch", "1", "1"],
            lambda tmp: ["code", "build", "--bch", "6", "10", "--repetition", "3"],
            lambda tmp: ["simulate", "honest", "--code", "rep3", "--trials", "abc"],
            lambda tmp: ["simulate", "honest", "--code", "rep3", "--bogus"],
            lambda tmp: ["oracle", "xyz"],
            lambda tmp: ["simulate", "honest", "--code", "rep3", "--trials", "5",
                         "--out", ""],
            lambda tmp: ["analytics", "table", "--code", "rep3", "--exact"],
            lambda tmp: ["simulate", "honest", "--code", "rep3", "--trials", "5",
                         "--forged-message", "1"],
            lambda tmp: ["simulate", "honest", "--code", "rep3", "--trials", "5",
                         "--on-decode-failure", "abort"],
            lambda tmp: ["simulate", "no-message", "--code", "rep3", "--trials", "5",
                         "--on-decode-failure", "resend_uncorrected"],
            lambda tmp: ["oracle", "pdec", "--code", "rep3",
                         "--on-decode-failure", "resend_uncorrected"],
            lambda tmp: ["oracle", "nomsg", "--code", "rep3",
                         "--on-decode-failure", "abort"],
            # m = 21 skips the distance check, so t reaches the table bound
            lambda tmp: ["analytics", "table", "--code",
                         _systematic_spec(tmp, 30, 21, 10**9)],
            # rows that span no word leave no distance to check t against
            lambda tmp: ["analytics", "table", "--code", _raw_file(tmp, json.dumps(
                {"name": "c5", "n": 5, "m": 1, "t": 10**9, "generator_rows": []}
            ).encode())],
        ],
        ids=[
            "trials-0", "rep4", "bch-6-40", "bch-length-not-2^w-1", "bch-m-wrong",
            "spec-missing-t",
            "bch-spec-edited-t", "bch-spec-not-primitive", "bch-spec-reversed-field",
            "bch-spec-w-9", "bch-spec-field-poly-degree", "forged-message-not-binary",
            "forged-message-digit-2",
            "spec-t-string",
            "spec-n-float", "spec-t-bool", "spec-rows-not-list", "spec-rows-not-strings",
            "spec-rows-not-hex", "spec-row-negative", "spec-row-0x-prefix",
            "spec-row-padded", "spec-row-wider-than-n", "spec-parity-rows-not-hex",
            "spec-parity-rows-edited", "spec-field-w-string", "spec-field-poly-string",
            "spec-field-empty-object", "spec-field-lacks-primitive-poly",
            "spec-field-lacks-w", "spec-field-zero", "spec-field-empty-list",
            "spec-field-empty-string",
            "spec-t-beyond-distance", "spec-name-not-string", "spec-spans-no-word",
            "spec-is-directory",
            "spec-not-utf8", "simulate-out-unwritable", "code-build-out-unwritable",
            "table-csv-out-unwritable", "forged-message-empty",
            "code-build-repetition-0", "code-build-bch-w-1", "code-build-two-codes", "trials-not-an-integer",
            "unknown-option", "unknown-oracle", "simulate-out-empty",
            "table-exact-without-json", "honest-forged-message",
            "honest-on-decode-failure", "no-message-on-decode-failure",
            "pdec-on-decode-failure", "nomsg-on-decode-failure",
            "spec-huge-t-past-distance-check", "spec-spans-no-word-huge-t",
        ],
    )
    def test_exits_2_with_one_line(self, argv, tmp_path, capsys):
        rc = run_cli(*argv(tmp_path))
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (lambda tmp: ["analytics", "table", "--code", "bch-62-10-3"],
             "BCH length must be 2^w - 1, got n=62"),
            (lambda tmp: ["simulate", "honest", "--code", "bch-63-50-2"],
             "BCH(w=6, t=2) has m=51, not 50 as in 'bch-63-50-2'"),
            (lambda tmp: ["simulate", "honest", "--code", _edited_spec(
                tmp, "bch-15-7-2", field={"w": 4, "primitive_poly": 0b111})],
             "primitive polynomial 0b111 must have degree 4"),
            (lambda tmp: ["simulate", "no-message", "--code", "hamming74",
                          "--forged-message", "0120"],
             "forged message must be a string of 0s and 1s, got '0120'"),
            # a parameter error: the line ends there, with no size hint
            (lambda tmp: ["code", "build", "--bch", "1", "1"],
             "field exponent 1 is below 2: no BCH code has n < 3\n"),
            (lambda tmp: ["simulate", "honest", "--code", "bch-1-0-1"],
             "field exponent 1 is below 2: no BCH code has n < 3\n"),
        ],
        ids=["bch-length", "bch-m", "field-poly-degree", "forged-message-digit-2",
             "bch-w-1", "bch-selector-w-1"],
    )
    def test_the_line_names_the_check(self, argv, reason, tmp_path, capsys):
        # each of these checks is reached by no other test
        assert run_cli(*argv(tmp_path)) == EXIT_CONFIG
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate", "honest"], ["oracle", "pdec"]])
    def test_format_is_only_an_analytics_table_option(self, command, capsys):
        assert run_cli(*command, "--code", "rep3", "--format", "json") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "unrecognized arguments: --format json" in lines[0]

    def test_oversized_syndrome_table_exits_2(self, tmp_path, capsys):
        # a [45, 21] code at t = 6: 24 checks, but ~9.5M patterns of weight <= 6;
        # the table is built by the first decode, which intercept-resend makes
        path = _systematic_spec(tmp_path, 45, 21, 6)
        rc = run_cli("simulate", "intercept-resend", "--code", path, "--trials", "1")
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "error patterns" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["analytics", "table"],
        ["simulate", "honest", "--trials", "20"],
        ["simulate", "no-message", "--trials", "20"],
    ])
    def test_commands_that_never_decode_take_an_untabulable_code(self, argv, capsys):
        # rep257 is past n <= 255, so it would decode by syndrome table, and
        # its 2^256 patterns exceed that table's bound; but the table is
        # built by the first decode, and these commands make none
        assert run_cli(*argv, "--code", "rep257") == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_decoding_an_untabulable_code_exits_2(self, capsys):
        rc = run_cli("simulate", "intercept-resend", "--code", "rep257", "--trials", "1")
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "2^256 error patterns" in lines[0]

    @pytest.mark.parametrize("selector", ["rep19", "rep255"])
    def test_long_repetition_codes_decode_by_their_nearest_codeword(
        self, selector, capsys
    ):
        # two codewords and n <= 255: no syndrome table, so no bound to reach
        rc = run_cli("simulate", "intercept-resend", "--code", selector,
                     "--trials", "40")
        captured = capsys.readouterr()
        assert rc == EXIT_OK and captured.err == ""
        assert json.loads(captured.out)["results"]["trials"] == 40

    def test_huge_pattern_count_is_printed_as_a_power_of_2(self, capsys):
        # rep999 has 2^998 patterns of weight <= 499, 301 digits in full
        rc = run_cli("simulate", "intercept-resend", "--code", "rep999", "--trials", "1")
        lines = capsys.readouterr().err.splitlines()
        assert rc == EXIT_CONFIG
        assert len(lines) == 1 and len(lines[0]) < 200
        assert "2^998 error patterns" in lines[0]

    @pytest.mark.parametrize("w", [0, 1, 9])
    def test_field_exponent_outside_a_byte_lane_names_its_bound(
        self, w, tmp_path, capsys
    ):
        # w is checked before any field is built: below 2 no BCH code
        # exists, a spec error; above 8 an element overflows a byte lane,
        # a size the decoder does not support, with a hint to go smaller
        field = {"w": w, "primitive_poly": 0x211}
        path = _edited_spec(tmp_path, "bch-15-7-2", field=field)
        rc = run_cli("simulate", "honest", "--code", path, "--trials", "1")
        lines = capsys.readouterr().err.splitlines()
        assert rc == EXIT_CONFIG
        assert len(lines) == 1 and f"field exponent {w} " in lines[0]
        if w < 2:
            assert "is below 2" in lines[0] and "smaller code" not in lines[0]
        else:
            assert "outside [2, 8]" in lines[0] and "smaller code" in lines[0]


class TestProcessBoundary:
    """``python -m qauth.cli`` in its own process.

    The tests above call ``main(argv)``; only a process runs ``main()``
    reading ``sys.argv`` and ``sys.exit(main())`` turning its return
    value into the exit status.
    """

    @staticmethod
    def _run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qauth.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(qauth.__file__).parents[1])},
        )

    def test_a_report_matches_the_in_process_run(self, capsys):
        out = self._run("oracle", "pdec", "--code", "hamming74")
        assert out.returncode == EXIT_OK, out.stderr
        assert run_cli("oracle", "pdec", "--code", "hamming74") == EXIT_OK
        assert out.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "honest", "--code", "rep4"],
        [],
    ], ids=["rep4", "no-arguments"])
    def test_a_user_error_exits_2_with_one_line(self, argv):
        out = self._run(*argv)
        assert out.returncode == EXIT_CONFIG
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
# values that get past the type checks, so the deeper checks run too
PLAUSIBLE = {
    "name": st.text(max_size=8),
    "n": st.integers(0, 40),
    "m": st.integers(0, 20),
    "t": st.integers(0, 8),
    "generator_rows": st.lists(st.text("0123456789abcdef", min_size=1, max_size=10),
                               max_size=8),
    "field": st.fixed_dictionaries({"w": st.integers(0, 9),
                                    "primitive_poly": st.integers(0, 600)}),
}
BASE_SPECS = {sel: resolve_code(sel).to_spec_dict() for sel in ("rep3", "hamming74", "bch-15-7-2")}


@st.composite
def spec_documents(draw):
    """A JSON document: arbitrary, or a valid spec with keys edited."""
    if draw(st.booleans()):
        return draw(JSON)
    spec = dict(BASE_SPECS[draw(st.sampled_from(sorted(BASE_SPECS)))])
    keys = sorted(PLAUSIBLE) + ["parity_rows", draw(st.text(max_size=6))]
    for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        choice = draw(st.sampled_from(("drop", "any", "plausible")))
        if choice == "drop":
            spec.pop(key, None)
        elif choice == "plausible" and key in PLAUSIBLE:
            spec[key] = draw(PLAUSIBLE[key])
        else:
            spec[key] = draw(JSON)
    return spec


class TestSpecFuzz:
    """Any spec file ends in exit 0 or 2, never in a traceback."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=spec_documents(),
           command=st.sampled_from((("simulate", "honest", "--trials", "2"),
                                    ("analytics", "table"))))
    def test_spec_files_exit_0_or_2(self, document, command, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        rc = run_cli(*command, "--code", str(path))
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_CONFIG)
        if rc == EXIT_CONFIG:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


SELECTORS = (
    st.builds("rep{}".format, st.integers(-1, 10))
    | st.just("hamming74")
    | st.builds(
        lambda n, m, t: f"bch-{n}-{m}" + ("" if t is None else f"-{t}"),
        st.sampled_from((3, 7, 15, 31, 63, 127, 255)) | st.integers(0, 300),
        st.integers(0, 260),
        st.none() | st.integers(0, 130),
    )
    # "." and ".." are directories, not spec files
    | st.text("abcdehmpr0123456789-.", max_size=10)
)
POLICIES = st.sampled_from(("abort", "resend_uncorrected"))


def _option(draw, name, values):
    """``--name=value``, the value now and then ``--``, which argparse reads as []."""
    value = "--" if draw(st.integers(0, 11), label=f"--{name}=--") == 0 else draw(values)
    return f"--{name}={value}"


def _with_options(draw, argv):
    """argv, with ``--on-decode-failure`` and ``--out`` each drawn or absent.

    ``--out`` is drawn only as ``--``: a path would write a file.
    """
    if draw(st.booleans()):
        argv.append(_option(draw, "on-decode-failure", POLICIES))
    if draw(st.integers(0, 11)) == 0:
        argv.append("--out=--")
    return argv


@st.composite
def cli_runs(draw):
    """argv for one simulate, oracle or analytics-table run."""
    code = _option(draw, "code", SELECTORS)
    group = draw(st.sampled_from(("simulate", "oracle", "analytics")))
    if group == "analytics":
        argv = ["analytics", "table", code,
                _option(draw, "format", st.sampled_from(("csv", "json")))]
        if draw(st.integers(0, 11)) == 0:
            argv.append("--out=--")
        return argv
    if group == "oracle":
        which = draw(st.sampled_from(("nomsg", "pdec", "ir")))
        return _with_options(draw, ["oracle", which, code])
    attack = draw(st.sampled_from(("honest", "no-message", "intercept-resend")))
    argv = _with_options(draw, [
        "simulate", attack, code,
        _option(draw, "trials", st.integers(-2, 5)),
        _option(draw, "seed", st.integers(-(2**70), 2**70)),
    ])
    if draw(st.booleans()):
        argv.append(_option(draw, "forged-message", st.text("01x", max_size=8)))
    return argv


@pytest.mark.parametrize("argv", [
    ["simulate", "honest", "--code=rep3", "--trials=--"],
    ["simulate", "honest", "--code=rep3", "--seed=--"],
    ["simulate", "honest", "--code=rep3", "--out=--"],
    ["oracle", "pdec", "--code=rep3", "--out=--"],
    ["oracle", "ir", "--code=rep3", "--on-decode-failure=--"],
    ["analytics", "table", "--code=rep3", "--format=--"],
    ["analytics", "table", "--code=rep3", "--code=--"],
    ["simulate", "no-message", "--code=rep3", "--forged-message=--"],
])
def test_an_option_valued_dashes_exits_2(argv, capsys):
    # argparse reads --opt=-- as [], which no command can use
    assert run_cli(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {argv[-1].partition('=')[0]} needs a value, got '--'"
    ]


class TestCliFuzz:
    """Any selector and option values end in exit 0, 2 or 3, never a traceback."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_runs())
    @example(argv=["simulate", "honest", "--code=--", "--trials=0", "--seed=0"])
    @example(argv=["analytics", "table", "--code=--", "--format=csv"])
    @example(argv=["simulate", "honest", "--code=rep3", "--trials=--"])
    @example(argv=["simulate", "honest", "--code=rep3", "--seed=--"])
    @example(argv=["oracle", "pdec", "--code=rep3", "--out=--"])
    @example(argv=["analytics", "table", "--code=rep3", "--format=--"])
    def test_runs_exit_0_2_or_3(self, argv, capsys):
        rc = run_cli(*argv)
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY)
        if rc == EXIT_CONFIG:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
