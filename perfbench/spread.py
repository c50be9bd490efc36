"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--label NAME]

For every workload this runs `run.py --trace 0` once per seed, one run at a
time, and prints for each end-to-end metric the median, the first and third
quartile (statistics.quantiles, n=4), the spread (Q3 - Q1) / median beside
the metric's bound from BENCHMARK.json, and the share of failed ops.  The
runs are saved to perfbench/out/spread-NAME.json; with --compare OTHER the
medians are also compared with an earlier set, as a relative change by the
metric's better direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, q3 = benchstats.quartiles(values)
        out[m["name"]] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": benchstats.relative_spread(values),
            "bound": m["bound"],
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out["attempted"], out["failed"] = attempted, failed
    out["failed_share"] = failed / attempted
    out["correct"] = all(r["correct"] for r in results)
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", default="latest")
    ap.add_argument("--compare", help="label of an earlier set to compare medians with")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]
    saved = {"seeds": seeds, "seconds": bench["run_seconds"], "workloads": {}}
    earlier = None
    if args.compare:
        earlier = json.loads((OUT / f"spread-{args.compare}.json").read_text())["workloads"]
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
        summary = summarize(results, metrics)
        saved["workloads"][workload] = {"runs": results, "summary": summary}
        print(f"{workload}: {summary['attempted']} ops attempted, {summary['failed']} failed, "
              f"correct {summary['correct']}")
        for m in metrics:
            s = summary[m["name"]]
            line = (f"  {m['name']:12s} {m['unit']:4s} median {s['median']:.4f} "
                    f"[{s['q1']:.4f}, {s['q3']:.4f}] spread {s['spread']:.3f} (bound {s['bound']})")
            if earlier and workload in earlier:
                before = earlier[workload]["summary"][m["name"]]["median"]
                worse = benchstats.relative_change(before, s["median"], m["better"])
                line += f" worse-by {worse:+.3f} vs {args.compare}"
            print(line, flush=True)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spread-{args.label}.json").write_text(json.dumps(saved, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
