"""Run-to-run spread of the end-to-end metrics, one fresh run per seed.

    python3 perfbench/spread.py [workload ...]

Runs every workload of `BENCHMARK.json` (or the ones named) once for
each of the seeds 1-10. For each workload and metric it prints the
median of the runs and the distance between the first and third
quartile (`statistics.quantiles`, n=4) as a share of that median, next
to the metric's bound in `BENCHMARK.json`. A spread above a third of the
bound is flagged: the benchmark should then measure more work per run.
Raw results are kept in `.perfbench/spread.json`.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main(names):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in names or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
            last = json.loads(out.splitlines()[-1])
            runs.append({name: m["value"] for name, m in last["metrics"].items()})
            print(f"{workload} seed {seed}: correct={last['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        results[workload] = runs
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            flag = "" if share < bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:6s} {name:12s} median {median:.4g}  spread {share:.2%}  bound {bound:.0%}{flag}")
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
