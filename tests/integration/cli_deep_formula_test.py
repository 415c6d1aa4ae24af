#!/usr/bin/env python3
"""Integration test: hostile formula depth on `hpl_cli check`.

Contract under test:

  * a formula far beyond Formula::kMaxParseHeight (1000) -- a `!` prefix,
    modal prefixes, open parentheses, a right-associative `=>` chain and
    left-associative `&&` / `||` chains -- makes `check` exit 1 (not a
    signal) with the parse error naming the limit on stderr,
  * a formula exactly at the limit still checks (exit 0).

Linux caps one command-line argument at 128 KiB, so the prefix shapes are
100,000 levels deep while the binary chains (6+ bytes per level) are
20,000 levels deep; both are 20x or more past the limit.  The serve pipe
test sends 100,000-level versions of every shape over stdin.

Usage: cli_deep_formula_test.py <path-to-hpl_cli>
"""

import subprocess
import sys

TIMEOUT = 60  # seconds; every case is milliseconds locally
LIMIT = 1000
SPEC = "ping"

HOSTILE = {
    "! prefix": "!" * 100000 + "sent",
    "modal prefix": "K{0}" * 25000 + "sent",
    "parentheses": "(" * 100000 + "sent",
    "=> chain": "sent" + "=>sent" * 20000,
    "&& chain": "sent" + "&&sent" * 20000,
    "|| chain": "sent" + "||sent" * 20000,
}

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL  {message}")
    else:
        print(f"ok    {message}")


def run_check(cli, formula):
    try:
        return subprocess.run([cli, "check", SPEC, formula],
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit(f"FATAL: check hung past {TIMEOUT}s")


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cli_deep_formula_test.py <path-to-hpl_cli>")
    cli = sys.argv[1]

    for shape, formula in HOSTILE.items():
        proc = run_check(cli, formula)
        check(proc.returncode == 1,
              f"{shape}: check exits 1 (got {proc.returncode})")
        check(f"maximum height of {LIMIT}" in proc.stderr,
              f"{shape}: the error names the limit")

    at_limit = run_check(cli, "!" * (LIMIT - 1) + "sent")
    check(at_limit.returncode == 0 and "holds at" in at_limit.stdout,
          "a formula of height exactly the limit still checks")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
