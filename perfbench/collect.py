"""Run the benchmark over several seeds and record the spread of each metric.

Run from the repository root, for example:

    python3 perfbench/collect.py --label baseline-1 --seeds 1..10

Each (workload, seed) is one `perfbench/run.py` invocation, run one after
another.  The file perfbench/results/<label>.json keeps every result line
and, per workload and metric, the median over seeds and the spread
(q3 - q1) / median that BENCHMARK.json's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_argument(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "n": len(values),
        }
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds_argument, default=seeds_argument("1..10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = time.perf_counter() - started
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={result['wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds or args.trace),
                  flush=True)
        summary = summarize(results)
        record["workloads"][workload] = {"summary": summary, "results": results}
        for name, s in summary.items():
            if args.trace == 0:
                print(f"  {name}: median {s['median']:.4g} spread {s['spread']:.3f} "
                      f"(bound {bounds[name]})", flush=True)

    out = HERE / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
