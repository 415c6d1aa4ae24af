#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

  python3 perfbench/test_perfbench.py

Checks, through perfbench/run.py:

  * determinism: the same seed gives byte-identical request streams and
    reference verdict hashes; another seed changes the formulas but not
    the class counts (15,131; 4,940 and 15,131; 141,745);
  * perfbench's hash is the one `hpl_cli check` prints as
    "satisfying-hash:";
  * short runs are correct with 0 failed ops and print exactly the
    BENCHMARK.json metrics: every end-to-end metric (never 0) untraced,
    every per-layer metric traced, non-zero for the layers the workload
    reaches;
  * segment_store.spill_writes is above 0 on grow_budgeted and 0 elsewhere;
  * runs leave no scratch directory and no serve child behind;
  * outside a repository checkout the benchmark fails without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ("cold_query", "grow_budgeted", "serve_warm")
CLASSES = {"cold_query": "classes 15131",
           "grow_budgeted": "classes 4940 15131",
           "serve_warm": "classes 141745"}
# The per-layer metrics each traced workload measures (the rest read 0).
MEASURED = {
    "cold_query": [
        "formula.parse_us", "knowledge.new_evaluator_ms",
        "knowledge.cold_sweep_ms.boolean", "knowledge.cold_sweep_ms.knows",
        "knowledge.cold_sweep_ms.group", "knowledge.cold_sweep_ms.common",
        "knowledge.cold_classes_per_s", "space.materialize_all_ms",
        "kernel.programs", "kernel.ops", "knowledge.bytes_memo",
        "space.build_ms", "knowledge.self_ms_per_op"],
    "grow_budgeted": [
        "space.deepen_ms", "space.deepen_classes_per_s",
        "segment_store.spill_writes", "segment_store.spill_faults",
        "segment_store.bytes_spilled", "space.bytes_resident",
        "knowledge.warm_ms", "knowledge.refresh_ms", "knowledge.requery_ms",
        "serialization.builder_load_ms", "serialization.builder_save_ms",
        "serialization.snapshot_bytes", "space.build_ms",
        "knowledge.self_ms_per_op", "space.self_ms_per_op",
        "serialization.self_ms_per_op"],
    "serve_warm": [
        "serve.ready_ms", "serialization.snapshot_load_ms",
        "serve.ping_rtt_us", "serve.check_fresh_ms", "serve.check_repeat_ms",
        "serve.batch8_ms", "serve.memo_entries", "serve.bytes_memo",
        "serve.kernel_programs", "serve.formulas_interned",
        "serve.intern_ratio", "serve.self_ms_per_op"],
}
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")

failures = []


def check(condition, what):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        failures.append(what)


def run(*args, cwd=ROOT):
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    return proc


def dump(workload, seed, ops=6):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--dump", str(ops))
    if proc.returncode != 0:
        sys.exit(f"dump {workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return proc.stdout


def result(workload, trace, seconds="3"):
    proc = run("--workload", workload, "--seed", "5", "--seconds", seconds,
               "--trace", str(trace))
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines,
          f"{workload} trace={trace} exits 0 with output")
    return json.loads(lines[-1]) if lines else {}


def serve_children():
    """Pids of live hpl_cli processes started from this build tree."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdline = f.read().decode(errors="replace")
        except OSError:
            continue
        if BUILD in cmdline and "hpl_cli" in cmdline:
            pids.append(pid)
    return pids


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in WORKLOADS:
        first, again, other = dump(w, 7), dump(w, 7), dump(w, 8)
        check(first == again,
              f"{w}: same seed, byte-identical stream and hashes")
        check(first.splitlines()[0] == CLASSES[w]
              and other.splitlines()[0] == CLASSES[w],
              f"{w}: '{CLASSES[w]}' for both seeds")
        check(first.splitlines()[1:] != other.splitlines()[1:],
              f"{w}: another seed changes the formulas")

    # perfbench's FNV-1a hash against standalone `hpl_cli check`.
    cli = os.path.join(BUILD, "hpl", "tools", "hpl_cli")
    for line in dump("serve_warm", 7, ops=3).splitlines()[1:]:
        request = json.loads(re.search(r"(\{.*\}) ->", line).group(1))
        hashes = line.split("->")[1].split()
        formulas = request.get("formulas", [request.get("formula")])
        for formula, want in zip(formulas, hashes):
            proc = subprocess.run([cli, "check", "tracker:8", formula,
                                   "--threads=1", "--knowledge-threads=1"],
                                  capture_output=True, text=True, timeout=300)
            got = re.search(r"satisfying-hash: ([0-9a-f]{16})", proc.stdout)
            check(got is not None and got.group(1) == want,
                  f"hpl_cli check '{formula}' hash matches the reference")

    for w in WORKLOADS:
        plain = result(w, 0)
        check(plain.get("correct") is True and plain.get("failed") == 0
              and plain.get("attempted", 0) >= 1, f"{w}: correct, 0 failed")
        metrics = plain.get("metrics", {})
        check({k: v["unit"] for k, v in metrics.items()} == end_to_end,
              f"{w}: untraced run prints exactly the end-to-end metrics")
        check(all(v["value"] > 0 for v in metrics.values()),
              f"{w}: no end-to-end metric is 0")
        traced = result(w, 1)
        metrics = traced.get("metrics", {})
        check(traced.get("correct") is True and traced.get("failed") == 0,
              f"{w}: traced run correct, 0 failed")
        check({k: v["unit"] for k, v in metrics.items()} == per_layer,
              f"{w}: traced run prints exactly the per-layer metrics")
        zero = [m for m in MEASURED[w]
                if metrics.get(m, {}).get("value", 0) <= 0]
        check(not zero, f"{w}: measured per-layer metrics above 0 {zero}")
        spills = metrics.get("segment_store.spill_writes", {}).get("value", -1)
        check(spills > 0 if w == "grow_budgeted" else spills == 0,
              f"{w}: segment_store.spill_writes = {spills}")
        trace_file = os.path.join(BUILD, "traces", f"{w}-seed5.json")
        check(os.path.exists(trace_file), f"{w}: spans written to {trace_file}")

    runs = os.path.join(BUILD, "runs")
    check(not os.path.isdir(runs) or not os.listdir(runs),
          "no run scratch directory (snapshot, spill files) left behind")
    check(not serve_children(), "every serve child was reaped")

    # A directory holding only BENCHMARK.json and perfbench/.
    bare = os.path.join(BUILD, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("--workload", "cold_query", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the repository sources: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
