"""Measure the run-to-run spread of the benchmark and record a baseline.

    python3 perfbench/baseline.py [--write]

Runs ``run.py`` untraced once per workload of BENCHMARK.json and seed 1-10
(each in a fresh process) and prints, per end-to-end metric, the median,
the quartiles and the interquartile distance as a share of the median
beside a third of the metric's bound. With ``--write`` it also makes one
traced run per workload and stores every figure in ``baseline.json``,
keeping the file's ``references`` list.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SEEDS = list(range(1, 11))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="also record every figure in baseline.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    end_to_end, per_layer, env, status = {}, {}, None, 0
    for name in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            res, env = _run(name, seed, seconds, trace=0)
            results.append(res)
            status |= not res["correct"]
        end_to_end[name] = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            end_to_end[name][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "iqr_share": spread, "values": values}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{name:10s} {metric['name']:12s} median {med:10.5g} "
                  f"{metric['unit']:3s} q1 {q1:10.5g} q3 {q3:10.5g} "
                  f"iqr/median {spread:.4f} (bound/3 "
                  f"{metric['bound'] / 3:.4f}) {flag}", flush=True)
            print("  values " + " ".join(f"{v:.4g}" for v in values))
        if args.write:
            res, _ = _run(name, SEEDS[0], seconds, trace=1)
            status |= not res["correct"]
            per_layer[name] = {k: m["value"] for k, m in res["metrics"].items()}

    if args.write:
        old = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        BASELINE.write_text(json.dumps({
            "measured": {"seeds": SEEDS, "run_seconds": seconds, "env": env},
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "references": old.get("references", []),
        }, indent=1) + "\n")
    return status


def _run(name: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


if __name__ == "__main__":
    sys.exit(main())
