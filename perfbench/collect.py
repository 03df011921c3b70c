"""Run every workload over several seeds and keep the results in one file.

    python3 perfbench/collect.py [--runs 10] [--first-seed 1] [--out results.json]

Runs ``run.py`` once per (seed, workload) over every workload in
``BENCHMARK.json``, each run ``run_seconds`` long with ``--trace 0``,
workloads interleaved so that a slow spell on the machine spreads over
all of them, and prints every metric by name with its unit.  Traced runs
are a direct ``run.py --trace 1`` call.  The summary gives, per workload and
end-to-end metric, the median and the quartile spread as a share of the
median beside the metric's bound in ``BENCHMARK.json``.  ``compare.py``
reads two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    """The run's result and the facts it records on its ``#`` line."""
    command = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[2:]) for line in lines if line.startswith("# ")), {})
    return json.loads(lines[-1]), info


def summary(runs: list[dict]) -> list[str]:
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        correct = all(r["correct"] for r in mine)
        lines.append(f"{workload}: {len(mine)} runs, attempted {attempted}, failed {failed}, "
                     f"correct {correct}")
        for spec in SPEC["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            lines.append(f"  {spec['name']:<20} median {med:.6g} {spec['unit']}  "
                         f"spread {(q3 - q1) / med:.4f}  bound {spec['bound']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in (w["name"] for w in SPEC["workloads"]):
            result, info = run_once(workload, seed)
            runs.append({"workload": workload, "seed": seed, "result": result, "info": info})
            metrics = " ".join(f"{name}={m['value']:.6g}{m['unit']}"
                               for name, m in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {metrics}", flush=True)
            if args.out:
                args.out.write_text(json.dumps({"run_seconds": SPEC["run_seconds"], "runs": runs},
                                               indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
