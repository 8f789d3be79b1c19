"""Smoke check of the benchmark itself, at the smallest scale.

    python3 perfbench/smoke.py

Runs one untraced and one traced pass of every workload in
BENCHMARK.json on tiny inputs and asserts that each run's oracles pass
and that it emits exactly the metrics BENCHMARK.json names, each with
its unit. It makes no timing assertion. It lives here, outside the
tier-1 test suite, and needs nothing beyond run.py's own imports.
"""

import json
import sys

import run

SMOKE_SIZES = {
    "eval-asnorm": {"speakers": 10, "bona": 4, "spoof": 2, "cohort_speakers": 10,
                    "cohort_utts": 3, "layers": 4, "dim": 8, "gate_top_k": 2,
                    "trials": 200, "top_k": 10},
    "cli-chain": {"speakers": 10, "bona": 4, "spoof": 2, "dim": 8, "trials": 200},
    "train-pk": {"speakers": 20, "utts": 30, "d_in": 32, "noise": 0.15, "emb": 16,
                 "steps": 200, "P": 8, "K": 4, "lr": 0.05, "eval_trials": 200},
}


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run.run(workload, seed=0, seconds=0, trace=trace,
                                size=SMOKE_SIZES[workload])
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{workload} trace={trace}: oracle check failed")
            if got != expected:
                failures.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(expected))}"
                                " missing or unexpected, or units differ")
            print(f"{workload} trace={trace}: {len(got)} metrics, correct={result['correct']}")
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
