#!/usr/bin/env python3
"""Repository benchmark: build the benchmark binary from source, run one
workload, check its output and print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The binary (perfbench/*.cpp) is built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); a
build that is up to date costs one ninja/make no-op. Every argument goes to
the binary, which rejects unknown flags and malformed numbers. The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1), each metric
with its value and unit. The lines before it print the build/run
environment, the work fingerprint and a table of every metric with its
better direction. Exit status is 0 only when the run is correct.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; returns the binary path or None."""
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    exe = os.path.join(out_dir, "pbecc_perfbench")
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Drop a half-configured tree so the next run starts clean.
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return exe


def load_catalog():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def main(argv):
    exe = build()
    if exe is None:
        log("perfbench: build failed")
        return 2
    try:
        proc = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 3
    if "--self-test" in argv:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.splitlines()
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "work", "RESULT"):
            tagged[tag] = json.loads(rest)
    if "RESULT" not in tagged or "env" not in tagged:
        sys.stdout.write(proc.stdout)
        log(f"perfbench: benchmark binary printed no result (exit {proc.returncode})")
        return proc.returncode or 4
    env, result = tagged["env"], tagged["RESULT"]

    # The binary must report exactly the metrics BENCHMARK.json declares
    # for this mode, with the declared units.
    end_to_end, per_layer = load_catalog()
    catalog = per_layer if env["trace"] else end_to_end
    declared = {m["name"]: m for m in catalog}
    got = result["metrics"]
    problems = [f"missing {n}" for n in declared if n not in got]
    problems += [f"undeclared {n}" for n in got if n not in declared]
    problems += [f"{n}: unit {got[n]['unit']} != {declared[n]['unit']}"
                 for n in got if n in declared and got[n]["unit"] != declared[n]["unit"]]
    if problems:
        log("perfbench: metric set does not match BENCHMARK.json: " + "; ".join(problems))
        result["correct"] = False

    print("env " + json.dumps(env, sort_keys=True))
    print("work " + json.dumps(tagged.get("work", {}), sort_keys=True))
    fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"op_fail_frac {fail_frac:.6g} ({result['failed']} of {result['attempted']} operations failed)")
    for m in catalog:
        v = got.get(m["name"])
        if v is not None:
            print(f"  {m['name']:<36} {v['value']:>16.6g} {m['unit']:<8} ({m['better']} is better)")
    print(json.dumps(result, separators=(",", ":")))
    ok = result["correct"] and result["failed"] == 0 and proc.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
