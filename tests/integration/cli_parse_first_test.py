#!/usr/bin/env python3
"""Integration test: `hpl_cli check` / `check-at` parse before enumerating.

Contract under test:

  * a formula naming an unknown atom makes `check` and `check-at` exit 1
    with the parse error on stderr, and stdout carries no `system:` or
    `phases:` line -- nothing of the space was reported,
  * the parse error wins over an enumeration that would itself fail: with
    `--max-depth=2` and no `--allow-truncation`, enumerating tracker:8
    throws a truncation error, so seeing the parse error instead shows the
    formula was parsed before the space was enumerated,
  * `check-at` parses its computation before enumerating too,
  * a good formula under the same flags still reaches the enumeration.

Usage: cli_parse_first_test.py <path-to-hpl_cli>
"""

import subprocess
import sys

TIMEOUT = 60  # seconds; every case is milliseconds locally
SPEC = "tracker:8"
BAD = "K{0} no_such_atom"
CAPPED = "--max-depth=2"  # enumeration throws: still extendable, no truncation

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL  {message}")
    else:
        print(f"ok    {message}")


def run(cli, args):
    try:
        return subprocess.run([cli] + args, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit(f"FATAL: {args[0]} hung past {TIMEOUT}s")


def expect_parse_error(cli, args, what, needle):
    proc = run(cli, args)
    check(proc.returncode == 1, f"{what}: exits 1 (got {proc.returncode})")
    check(needle in proc.stderr,
          f"{what}: stderr names {needle!r} ({proc.stderr.strip()[:80]})")
    check("system:" not in proc.stdout and "phases:" not in proc.stdout,
          f"{what}: no system:/phases: line on stdout")


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cli_parse_first_test.py <path-to-hpl_cli>")
    cli = sys.argv[1]

    expect_parse_error(cli, ["check", SPEC, BAD], "check", "no_such_atom")
    expect_parse_error(cli, ["check", SPEC, BAD, CAPPED],
                       "check before a failing enumeration", "no_such_atom")
    expect_parse_error(cli, ["check-at", SPEC, BAD, "", CAPPED],
                       "check-at before a failing enumeration",
                       "no_such_atom")
    expect_parse_error(cli, ["check-at", SPEC, "K{0} bit", "0?1:x", CAPPED],
                       "check-at with a bad computation", "error:")

    # Control: a good formula under the same cap reaches the enumeration,
    # which then fails on truncation -- so the cases above did not.
    control = run(cli, ["check", SPEC, "K{0} bit", CAPPED])
    check(control.returncode == 1 and "no_such_atom" not in control.stderr
          and "truncat" in control.stderr.lower(),
          f"control: a good formula fails in enumeration "
          f"({control.stderr.strip()[:80]})")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
