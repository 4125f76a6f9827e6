"""Command-line front door.

Commands:
  code build        construct a code and write its spec JSON
  analytics table   evaluate the security table (CSV or JSON)
  simulate          honest sessions or attacks, Monte Carlo statistics
  oracle            exhaustive ground-truth checks for small codes

All runs are deterministic: the seed defaults to a fixed constant and
identical configurations produce byte-identical output.  Exit codes:
0 success, 2 configuration error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import analytics, verify
from .adversary import ABORT, RESEND_UNCORRECTED, InterceptResendStrategy, NoMessageStrategy
from .codes import LinearCode, build_bch, load_code_spec, make_hamming_7_4, make_repetition
from .errors import QauthError, UnsupportedSizeError
from .gf2 import BitWord

SCHEMA_VERSION = 3
DEFAULT_SEED = 1729
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3

# The (n, m) -> t index of the standard BCH parameter grid used throughout.
BCH_PARAMS = {
    (63, 57): 1,
    (63, 51): 2,
    (63, 18): 10,
    (63, 10): 13,
    (127, 120): 1,
    (127, 113): 2,
    (127, 36): 15,
    (127, 22): 23,
}
DEFAULT_TABLE_CODES = [f"bch-{n}-{m}" for n, m in BCH_PARAMS]


class ConfigError(QauthError):
    """Bad command-line configuration (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """Its errors, and its subparsers', are ``ConfigError``s: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def resolve_code(selector: str) -> LinearCode:
    """Built-in name, BCH shorthand, or else a code-spec file path.

    The built-in names come first: a file named ``rep3`` is read only as ``./rep3``.
    """
    match = re.fullmatch(r"rep(\d+)", selector)
    if match:
        return make_repetition(int(match.group(1)))
    if selector == "hamming74":
        return make_hamming_7_4()
    match = re.fullmatch(r"bch-(\d+)-(\d+)(?:-(\d+))?", selector)
    if match:
        n, m = int(match.group(1)), int(match.group(2))
        if match.group(3) is not None:
            t = int(match.group(3))
        else:
            try:
                t = BCH_PARAMS[(n, m)]
            except KeyError:
                raise ConfigError(
                    f"unknown BCH shorthand {selector!r}; use bch-n-m-t "
                    "to give t explicitly"
                )
        w = n.bit_length()
        if n != (1 << w) - 1:
            raise ConfigError(f"BCH length must be 2^w - 1, got n={n}")
        code = build_bch(w, t)
        if code.m != m:
            raise ConfigError(
                f"BCH(w={w}, t={t}) has m={code.m}, not {m} as in {selector!r}"
            )
        return code
    if os.path.exists(selector):
        return load_code_spec(selector)
    raise ConfigError(
        f"unknown code selector {selector!r} "
        "(try repN, hamming74, bch-n-m, or a spec-file path)"
    )


def _parse_kv_int(token: str, key: str) -> int:
    """Accept '10' or 't=10' style tokens."""
    if "=" in token:
        k, _, v = token.partition("=")
        if k != key:
            raise ConfigError(f"expected {key}=..., got {token!r}")
        token = v
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"expected an integer for {key}, got {token!r}")


def _write(text: str, out) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is unset."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from None


def _emit(report: dict, args) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def _report(command: str, config: dict, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_code_build(args) -> int:
    if args.bch is not None:
        w = _parse_kv_int(args.bch[0], "w")
        t = _parse_kv_int(args.bch[1], "t")
        code = build_bch(w, t)
    elif args.repetition is not None:
        code = make_repetition(args.repetition)
    else:
        code = make_hamming_7_4()
    if args.out is not None:
        _write(json.dumps(code.to_spec_dict(), indent=2) + "\n", args.out)
    print(
        f"{code.name}: n={code.n} m={code.m} t={code.t} "
        f"rank(G)={code.m} rank(H)={code.n - code.m}"
        + (f" -> {args.out}" if args.out is not None else "")
    )
    return EXIT_OK


def cmd_analytics_table(args) -> int:
    if args.exact and args.format != "json":
        raise ConfigError("--exact needs --format json; CSV carries no exact values")
    selectors = args.code if args.code is not None else DEFAULT_TABLE_CODES
    codes = [resolve_code(s) for s in selectors]
    rows = analytics.table1(codes)
    if args.format == "csv":
        _write(analytics.table_to_csv(rows), args.out)
        return EXIT_OK
    _emit(
        _report(
            "analytics table",
            {"codes": selectors, "exact": bool(args.exact), "format": "json"},
            [row.to_json_dict(exact=args.exact) for row in rows],
        ),
        args,
    )
    return EXIT_OK


def _decode_failure_policy(args, uses_it: bool) -> str:
    """``--on-decode-failure``, or abort when it is not given.

    Only intercept-resend decodes, so elsewhere the option is an error.
    """
    if args.on_decode_failure is None:
        return ABORT
    if not uses_it:
        raise ConfigError("--on-decode-failure needs an intercept-resend attack")
    return args.on_decode_failure


def _adversary_from_args(kind: str, code: LinearCode, args, policy: str):
    if kind == "honest":
        if args.forged_message is not None:
            raise ConfigError("--forged-message needs an attack, not honest sessions")
        return None
    if args.forged_message is not None:
        try:
            forged = BitWord.from_str(args.forged_message)
        except ValueError:
            raise ConfigError(
                f"forged message must be a string of 0s and 1s, "
                f"got {args.forged_message!r}"
            ) from None
        if forged.length != code.m:
            raise ConfigError(
                f"forged message needs {code.m} bits, got {forged.length}"
            )
    else:
        forged = BitWord(1, code.m)  # fixed default, distinct from the zero message
    if kind == "no-message":
        return NoMessageStrategy(forged)
    return InterceptResendStrategy(forged, on_decode_failure=policy)


def cmd_simulate(args) -> int:
    policy = _decode_failure_policy(args, args.attack == "intercept-resend")
    code = resolve_code(args.code)
    adversary = _adversary_from_args(args.attack, code, args, policy)
    stats = verify.monte_carlo(
        code, args.trials, args.seed, adversary=adversary
    )
    config = {"attack": args.attack, "code": args.code, "trials": args.trials,
              "seed": args.seed}
    if args.attack != "honest":
        config["forged_message"] = args.forged_message
    if args.attack == "intercept-resend":
        config["on_decode_failure"] = policy
    _emit(_report(f"simulate {args.attack}", config, stats.to_json_dict()), args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    policy = _decode_failure_policy(args, args.which == "ir")
    code = resolve_code(args.code)
    config = {"oracle": args.which, "code": args.code}
    if args.which == "nomsg":
        report = verify.oracle_no_message(code)
        any_codeword = verify.oracle_no_message_any_codeword(code)
        results = report.to_json_dict()
        results["any_codeword"] = str(any_codeword)
        failed = report.exact_value != any_codeword
    elif args.which == "pdec":
        report = verify.oracle_p_dec(code)
        results = report.to_json_dict()
        failed = not report.equal
    else:  # ir
        config["on_decode_failure"] = policy
        report = verify.oracle_intercept_resend(code, on_decode_failure=policy)
        results = report.to_json_dict()
        failed = False  # the signed gap is the result, not a failure
    _emit(_report(f"oracle {args.which}", config, results), args)
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qauth",
        description="Quantum message-authentication laboratory",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    p_code = sub.add_parser("code", help="code construction")
    code_sub = p_code.add_subparsers(dest="action", required=True)
    p_build = code_sub.add_parser("build", help="build a code, print its parameters")
    family = p_build.add_mutually_exclusive_group(required=True)
    family.add_argument("--bch", nargs=2, metavar=("W", "T"),
                        help="BCH field exponent and error capability (w=6 t=10 or 6 10)")
    family.add_argument("--repetition", type=int, metavar="N")
    family.add_argument("--hamming74", action="store_true")
    p_build.add_argument("--out", help="write the code-spec JSON here")
    p_build.set_defaults(func=cmd_code_build)

    p_an = sub.add_parser("analytics", help="closed-form security analysis")
    an_sub = p_an.add_subparsers(dest="action", required=True)
    p_table = an_sub.add_parser("table", help="security table for a list of codes")
    p_table.add_argument("--code", action="append",
                         help="code selector; repeatable (default: standard grid)")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--exact", action="store_true",
                         help="include exact numerator/denominator strings (json only)")
    p_table.add_argument("--out")
    p_table.set_defaults(func=cmd_analytics_table)

    p_sim = sub.add_parser("simulate", help="Monte Carlo sessions")
    p_sim.add_argument("attack", choices=("honest", "no-message", "intercept-resend"))
    p_sim.add_argument("--code", required=True)
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--forged-message", help="bit string, length m")
    p_sim.add_argument("--on-decode-failure",
                       choices=(ABORT, RESEND_UNCORRECTED))
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_or = sub.add_parser("oracle", help="exhaustive ground-truth checks")
    p_or.add_argument("which", choices=("nomsg", "pdec", "ir"))
    p_or.add_argument("--code", required=True)
    p_or.add_argument("--on-decode-failure",
                      choices=(ABORT, RESEND_UNCORRECTED))
    p_or.add_argument("--out")
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            # argparse reads --opt=-- as [], also as one value of an append option
            if isinstance(value, list) and (not value or [] in value):
                raise ConfigError(f"--{name.replace('_', '-')} needs a value, got '--'")
        return args.func(args)
    except UnsupportedSizeError as exc:
        print(
            f"error: {exc} (try a smaller code, e.g. rep3 or hamming74)",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except QauthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
