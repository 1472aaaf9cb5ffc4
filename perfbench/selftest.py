#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For each workload, at a short length and the default seed, it checks that:
- every metric BENCHMARK.json names is reported, with its unit, untraced
  (end-to-end) and traced (per-layer);
- the simulated metrics repeat exactly across two traced runs;
- no operation fails.
It also runs the parity check: the benchmark's own loops against the
library's, and traced against untraced.
"""

import json
import subprocess
import sys

SEED = "1"
SECONDS = "1"
# host-time metrics vary between runs; every other metric is simulated
# or counted and must repeat exactly
HOST_UNITS = {"s", "ms", "us", "ns"}
HOST_NAMES = {"trace.overhead_pct"}


def run(*args):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {out.returncode}:\n"
                         f"{out.stdout}{out.stderr}")
    return out.stdout


def result(workload, trace):
    out = run("--workload", workload, "--seed", SEED, "--seconds", SECONDS,
              "--trace", trace)
    return json.loads(out.strip().splitlines()[-1])


def check_names(res, declared, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit(f"{what}: metrics differ from BENCHMARK.json:\n"
                         f"  missing or wrong unit: "
                         f"{sorted(set(want.items()) - set(got.items()))}\n"
                         f"  unexpected: "
                         f"{sorted(set(got.items()) - set(want.items()))}")


def check_clean(res, what):
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        raise SystemExit(f"{what}: correct={res['correct']} "
                         f"failed={res['failed']} of {res['attempted']}")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        plain = result(name, "0")
        check_names(plain, spec["end_to_end"], f"{name} untraced")
        check_clean(plain, f"{name} untraced")
        traced = [result(name, "1") for _ in range(2)]
        for i, res in enumerate(traced):
            check_names(res, spec["per_layer"], f"{name} traced #{i}")
            check_clean(res, f"{name} traced #{i}")
        for m in spec["per_layer"]:
            if m["unit"] in HOST_UNITS or m["name"] in HOST_NAMES:
                continue
            a, b = (r["metrics"][m["name"]]["value"] for r in traced)
            if a != b:
                raise SystemExit(f"{name}: {m['name']} differs between "
                                 f"two runs: {a} vs {b}")
        print(f"selftest {name}: ok")
    print(run("parity", "--seed", SEED), end="")
    print("selftest: ok")


if __name__ == "__main__":
    main()
