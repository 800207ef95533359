#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload control --seed 1 --seconds 10 --trace 0

Workloads are `control`, `bulk` and `fanin` (see perfbench/README.md).
With `--trace 0` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it holds the per-layer
metrics of a traced run, whose spans are written next to the build.
Every metric the harness measured, the host's state and the checks'
notes are printed, one per line, before that last line.

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"ORB sources not found under {ROOT}/src")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def harness_cpus():
    """Every CPU this process may use but the lowest-numbered one, given
    three or more. The first CPU takes most of the host's interrupts and
    housekeeping; runs that share it spread far wider."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[1:] if len(cpus) >= 3 else cpus


def run_harness(exe, args):
    """Runs the binary; returns its result object (its last stdout line)."""
    cpus = harness_cpus()
    proc = subprocess.run([exe, *args], stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("harness printed nothing")
    return json.loads(lines[-1])


def measure(exe, workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        spans = os.path.join(build_dir(), f"spans-{workload}.jsonl")
        args += ["--spans-out", spans]
    return run_harness(exe, args)


def contract_result(raw, contract, trace):
    """Selects the metrics BENCHMARK.json names, checking name and unit."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    correct = bool(raw["correct"])
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def print_report(raw):
    print(f"workload {raw['workload']} seed {raw['seed']} trace {raw['trace']}")
    for name, m in raw["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, v in raw["notes"].items():
        print(f"  note {name:35s} {v:>16.6g}")
    host = " ".join(f"{k}={v:g}" for k, v in raw["host"].items())
    print(f"  host {host}")
    if raw["host"].get("noisy"):
        print("  host NOISY: steal, iowait or load was high during the run")
    if raw.get("spans_file"):
        print(f"  spans {raw['spans_file']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        contract = load_contract()
        names = [w["name"] for w in contract["workloads"]]
        if args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload!r}")
        exe = build()
        raw = measure(exe, args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"failed: {e}")
        return 1
    print_report(raw)
    print(json.dumps(contract_result(raw, contract, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
