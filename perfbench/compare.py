"""Compare two result files written by ``collect.py``.

    python3 perfbench/compare.py PARENT.json CHANGE.json

For every workload and end-to-end metric: each side's median and
quartiles, how many pairs the change wins (the i-th run of each side in
seed order, so runs of the same seeds pair up), and a verdict against
the metric's bound in ``BENCHMARK.json``:

* incorrect   some run of the change failed its output checks (``"correct": false``);
* worse       the change's median is worse than the parent's by more than the bound;
* better      the change wins at least 9 in 10 pairs, the medians differ by more
              than the parent's quartile spread, and no more operations fail;
* unresolved  the parent's own quartile spread exceeds the bound and not every
              run of the change beats every run of the parent;
* same        otherwise.

Attempted and failed operations, and the runs whose outputs failed their
checks, are reported per workload for both sides.  Both files must have
been collected with the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from collect import SPEC, quartiles


def verdict(better: str, bound: float, parent: list[float], change: list[float],
            wins: int, pairs: int, more_failures: bool, change_incorrect: bool = False) -> str:
    if change_incorrect:
        return "incorrect"
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    if (pairs and wins >= 0.9 * pairs and sign * (pm - cm) > p3 - p1 and not more_failures):
        return "better"
    beats_all = all(sign * c < sign * p for c in change for p in parent)
    if (p3 - p1) > bound * abs(pm) and not beats_all:
        return "unresolved"
    return "same"


def by_workload(path: Path) -> dict[str, dict[int, dict]]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("run_seconds") != SPEC["run_seconds"]:
        raise SystemExit(f"{path}: collected with run_seconds {data.get('run_seconds')}, "
                         f"BENCHMARK.json has {SPEC['run_seconds']}")
    out: dict[str, dict[int, dict]] = {}
    for run in data["runs"]:
        out.setdefault(run["workload"], {})[run["seed"]] = run["result"]
    return out


def share(results) -> tuple[int, int, float, int]:
    """Attempted and failed operations, the failed share, and the runs not correct."""
    results = list(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    incorrect = sum(1 for r in results if not r["correct"])
    return attempted, failed, failed / attempted if attempted else 0.0, incorrect


def compare(parent_path: Path, change_path: Path) -> list[str]:
    parent, change = by_workload(parent_path), by_workload(change_path)
    lines = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        pa, pf, ps, pi = share(parent[workload].values())
        ca, cf, cs, ci = share(change[workload].values())
        lines.append(f"{workload}: parent attempted {pa} failed {pf} incorrect runs {pi}; "
                     f"change attempted {ca} failed {cf} incorrect runs {ci}")
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            p_vals = [r["metrics"][name]["value"] for r in parent[workload].values()]
            c_vals = [r["metrics"][name]["value"] for r in change[workload].values()]
            # the i-th run of each side in seed order; the same seeds pair up exactly
            pairs = list(zip((parent[workload][s] for s in sorted(parent[workload])),
                             (change[workload][s] for s in sorted(change[workload]))))
            sign = 1.0 if spec["better"] == "lower" else -1.0
            wins = sum(1 for p, c in pairs if sign * c["metrics"][name]["value"]
                       < sign * p["metrics"][name]["value"])
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            v = verdict(spec["better"], spec["bound"], p_vals, c_vals, wins, len(pairs), cs > ps, ci > 0)
            lines.append(
                f"  {name:<20} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
                f"[{c1:.6g}, {c3:.6g}] {spec['unit']}  {100 * (cm - pm) / pm:+.1f}%  "
                f"wins {wins}/{len(pairs)}  bound {spec['bound']}  {v}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(Path(argv[0]), Path(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
