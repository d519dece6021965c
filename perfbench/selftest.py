#!/usr/bin/env python3
"""Reduced-size self-test of the repository benchmark.

Runs every workload with --small, untraced and traced, and checks that:
  * the run exits 0 and its output checks pass (correct is true);
  * the last stdout line is the JSON result with exactly the keys
    correct/attempted/failed/metrics;
  * every metric name matches [A-Za-z0-9_.-]+, carries a unit, and the
    metric set equals BENCHMARK.json's end_to_end (untraced) or per_layer
    (traced) list;
  * the metric tables compiled into fcm_bench equal BENCHMARK.json;
  * a plan-zoo run against a corrupted golden file fails (exit != 0,
    correct false), so the output checks can really fail.

Usage (from anywhere):
    python3 perfbench/selftest.py [--bin PATH/TO/fcm_bench]
Without --bin it builds the benchmark through run.py's build step.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden_plan_gma.txt")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = ["functional-mix", "virtual-replay", "plan-zoo"]

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg, flush=True)
    return cond


def run(binary, args, out_dir):
    cmd = [binary] + args + ["--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_result(label, result, defs):
    if not check(isinstance(result, dict), label + ": no JSON result line"):
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          label + ": result keys are " + ",".join(sorted(result)))
    check(result.get("correct") is True, label + ": correct is not true")
    check(isinstance(result.get("attempted"), int)
          and result["attempted"] >= 1, label + ": attempted < 1")
    check(isinstance(result.get("failed"), int), label + ": failed not int")
    metrics = result.get("metrics", {})
    for name, m in metrics.items():
        check(NAME.match(name) is not None, label + ": bad name " + name)
        check(isinstance(m, dict) and sorted(m) == ["unit", "value"],
              label + ": " + name + " is not {value, unit}")
        check(isinstance(m.get("unit"), str) and m["unit"] != "",
              label + ": " + name + " has no unit")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              label + ": " + name + " value is not a finite number")
    want = {d["name"]: d["unit"] for d in defs}
    got = {n: m.get("unit") for n, m in metrics.items()}
    check(got == want, label + ": metric names/units differ from "
          "BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", help="fcm_bench binary (default: build it)")
    args = ap.parse_args()
    binary = args.bin
    if binary is None:
        sys.path.insert(0, HERE)
        import run as runpy
        build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                      ".bench_build"))
        if not runpy.build(build_dir):
            print("FAIL: build failed")
            return 1
        binary = os.path.join(build_dir, "fcm_bench")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    listed = json.loads(subprocess.run([binary, "--list-metrics"],
                                       stdout=subprocess.PIPE, text=True,
                                       check=True).stdout)
    for key in ("end_to_end", "per_layer"):
        compiled = [(d["name"], d["unit"], d["better"]) for d in listed[key]]
        declared = [(d["name"], d["unit"], d["better"]) for d in bench[key]]
        check(compiled == declared, "fcm_bench --list-metrics " + key +
              " differs from BENCHMARK.json")
    check([w["name"] for w in bench["workloads"]] == WORKLOADS,
          "BENCHMARK.json workloads differ from " + ",".join(WORKLOADS))

    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                label = workload + " trace=" + trace
                print("selftest: " + label, flush=True)
                code, result, out = run(
                    binary, ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", trace, "--small",
                             "--golden", GOLDEN], tmp)
                if not check(code == 0, label + ": exit code " + str(code)):
                    print(out)
                defs = bench["per_layer" if trace == "1" else "end_to_end"]
                check_result(label, result, defs)

        # A corrupted golden must fail the plan-zoo output check.
        bad = os.path.join(tmp, "bad_golden.txt")
        with open(GOLDEN) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if line and not line.startswith("#"):
                parts = line.split()
                parts[-1] = str(int(parts[-1]) + 1)
                lines[i] = " ".join(parts)
                break
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        print("selftest: plan-zoo against a corrupted golden", flush=True)
        code, result, _ = run(binary, ["--workload", "plan-zoo", "--seed", "7",
                                       "--seconds", "1", "--trace", "0",
                                       "--small", "--golden", bad], tmp)
        check(code != 0, "corrupted golden: exit code 0")
        check(isinstance(result, dict) and result.get("correct") is False,
              "corrupted golden: correct is not false")

    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
