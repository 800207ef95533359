#!/usr/bin/env python3
"""Self-test of the benchmark harness. From the root of the repository:

    python3 perfbench/selftest.py

It builds the harness (as run.py does) and checks that:
  1. every metric BENCHMARK.json names is printed, with its unit, by every
     workload, untraced and traced, on a run that fails no call;
  2. replies the harness corrupts on purpose are counted as failed calls;
  3. the same seed generates the same call sequence, another seed another;
  4. the heap counter reports 0 allocations for a phase without calls;
  5. in the written spans, each call span's children plus its self time
     (the residual) equal its duration.
Prints one line per check and exits non-zero if any fails.
"""

import json
import subprocess
import sys

import run

SECONDS = 1.5
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def spans_add_up(path):
    """Every call span: sum of its children's durations + self == duration."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    children = {}
    for s in spans.values():
        children.setdefault(s["parent"], []).append(s)
    calls = [s for s in spans.values() if s["name"] == "call"]
    for c in calls:
        kids = sum(k["end_ns"] - k["start_ns"] for k in children.get(c["id"], []))
        if kids + c["self_ns"] != c["end_ns"] - c["start_ns"]:
            return False, len(calls)
    return bool(calls), len(calls)


def main():
    contract = run.load_contract()
    exe = run.build()
    workloads = [w["name"] for w in contract["workloads"]]

    for w in workloads:
        for trace in (0, 1):
            raw = run.measure(exe, w, 7, SECONDS, trace)
            res = run.contract_result(raw, contract, trace)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in contract[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(res["correct"] and got == want and res["failed"] == 0,
                  f"{w} trace={trace}: all {len(want)} {kind} metrics, "
                  f"with units, no failed call")
            if trace:
                ok, n = spans_add_up(raw["spans_file"])
                check(ok, f"{w}: {n} call spans = children + residual")
            else:
                check(raw["notes"]["heap_allocs_idle_phase"] == 0,
                      f"{w}: heap counter reads 0 over a phase without calls")
                check(raw["metrics"]["failed_ratio"]["value"] == 0,
                      f"{w}: failed_ratio is 0")

        raw = run.measure(exe, w, 7, 1, 0, ["--corrupt-every", "10"])
        corrupted = raw["notes"]["replies_corrupted"]
        check(corrupted > 0 and raw["failed"] == corrupted
              and not raw["correct"]
              and raw["metrics"]["failed_ratio"]["value"] > 0,
              f"{w}: {corrupted:g} corrupted replies counted as "
              f"{raw['failed']} failed calls")

        digests = []
        for seed in (7, 7, 8):
            out = subprocess.run([exe, "--workload", w, "--seed", str(seed),
                                  "--seconds", "1", "--dump-calls"],
                                 stdout=subprocess.PIPE, text=True, check=True)
            digests.append(json.loads(out.stdout)["digest"])
        check(digests[0] == digests[1] != digests[2],
              f"{w}: seed 7 twice -> {digests[0]}, seed 8 -> {digests[2]}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
