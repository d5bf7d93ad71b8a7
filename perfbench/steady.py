"""Steadiness check: repeat each workload over several seeds.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]
                                [--out FILE] [--against FILE]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs unless
``--first-seed`` says otherwise) with the ``run_seconds`` of
``BENCHMARK.json``, and prints every end-to-end metric's median and
quartiles.  The spread is the distance between the quartiles as a share of
the median; it should stay below a third of the metric's bound.
``--out`` saves the figures as JSON; ``--against`` reads
such a file and flags every metric whose median is worse than the saved
one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(args.against.read_text())["workloads"] if args.against else {}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    report = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()} {platform.release()}",
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    flagged = 0
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            values = ", ".join(f"{k} {v['value']:.6g}" for k, v in runs[-1]["metrics"].items())
            print(f"  {workload} seed {seed}: {values}", flush=True)
        figures = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in metrics
        }
        figures["failed_ratio"] = statistics.median(r["failed"] / r["attempted"] for r in runs)
        figures["correct"] = all(r["correct"] for r in runs)
        report["workloads"][workload] = figures
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"all outputs correct: {figures['correct']}")
        for name, m in metrics.items():
            f = figures[name]
            bound = m["bound"]
            if f["spread"] < bound / 3:
                verdict = "steady"
            elif f["spread"] <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO WIDE"
                flagged += 1
            old = baseline.get(workload, {}).get(name)
            if old:
                worse = (f["median"] - old["median"]) / old["median"]
                if m["better"] == "higher":
                    worse = -worse
                verdict += f"; {100 * worse:+.1f}% worse than saved median"
                if worse > bound:
                    verdict += " REGRESSED"
                    flagged += 1
            print(f"  {name:<16} median {f['median']:<12.6g} q1 {f['q1']:<12.6g} "
                  f"q3 {f['q3']:<12.6g} {m['unit']:<4} spread {100 * f['spread']:5.2f}% "
                  f"(bound {100 * bound:.0f}%): {verdict}")
        print(f"  {'failed_ratio':<16} median {figures['failed_ratio']:<12.6g} ratio")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
