#!/usr/bin/env python3
"""Run the benchmark on a parent commit and a change in alternated pairs.

    python scripts/bench_pairs.py --parent main~1 --workload train_paper \\
        --first-seed 7101 --pairs 10 --name bn_relu

Both commits are exported with `git archive` into a temporary directory, and
pair i runs `perfbench/run.py --workload W --seed first_seed + i --trace 0`
once in each export, one process at a time. The parent runs first in even
pairs and the change in odd ones, so drift on the host hits both sides alike.

The runs are merged into `BENCH_<name>.json` at the repository root, under
`end_to_end.<workload>`; a set already there for that workload is moved to the
end of the list `earlier_sets.<workload>` first, so no run is lost. An entry
follows the schema of the earlier BENCH files: every run,
the median, quartiles and IQR per side, the pairs the change won, who ran
first, the failed checks per side and the host. For each end-to-end metric in
BENCHMARK.json the script prints two verdicts:

- gain: the change wins at least nine tenths of the pairs (ties count for
  neither) and its median beats the parent's by more than the parent's IQR;
- bound: "within" when the change's median is no worse than the parent's by
  more than the metric's bound in BENCHMARK.json, else "outside"; but
  "unresolved" when either side's IQR, over the parent's median, is wider
  than the bound, as the runs then spread too widely to tell, unless every
  run of the change beats every run of the parent.

`--change` defaults to HEAD. To measure uncommitted work, stage it and pass
`--change $(git stash create)`, a commit of the index and work tree that
moves no branch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--change", default="HEAD", help="git ref of the change (default HEAD)")
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, required=True, help="pair i runs seed first_seed + i")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--name", required=True, help="results go to BENCH_<name>.json")
    p.add_argument("--seconds", type=float, default=None,
                   help="timed window per run (default: run_seconds in BENCHMARK.json)")
    return p.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    proc = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if not result["correct"]:
        print(out.stdout[-2000:], out.stderr[-2000:], sep="\n", file=sys.stderr)
    return {"env": env, **result}


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "runs": sorted(round(r, 4) for r in runs)}


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ps, cs = quartiles(parent), quartiles(change)
    gap = sign * (cs["median"] - ps["median"])
    worse_by = -gap / ps["median"] if ps["median"] else 0.0
    spread = max(ps["iqr"], cs["iqr"]) / abs(ps["median"]) if ps["median"] else 0.0
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > metric["bound"] and not every_run_better:
        bound = "unresolved"
    else:
        bound = "within" if worse_by <= metric["bound"] else "outside"
    return {"unit": metric["unit"], "better": metric["better"], "parent": ps, "change": cs,
            "change_over_parent_median": round(cs["median"] / ps["median"], 4) if ps["median"] else None,
            "change_better_in_pairs": f"{wins}/{len(parent)}",
            "gain_rule_met": wins >= 0.9 * len(parent) and gap > ps["iqr"],
            "bound": bound}


def merge(doc: dict, workload: str, entry: dict) -> dict:
    """doc with entry as end_to_end.<workload>, after moving the set it replaces to the end of earlier_sets.<workload>."""
    sets = doc.setdefault("end_to_end", {})
    if workload in sets:
        doc.setdefault("earlier_sets", {}).setdefault(workload, []).append(sets[workload])
    sets[workload] = entry
    return doc


def host(env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {"cpu": cpu, "nproc": env.get("nproc", len(os.sched_getaffinity(0))),
            "memory_gib": round(mem, 1), "os": platform.platform(),
            **{k: env.get(k) for k in ("python", "numpy", "scipy", "blas", "blas_threads")}}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    seeds = [args.first_seed + i for i in range(args.pairs)]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(shas[side], trees[side])
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        first = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                r = run_once(trees[side], args.workload, seed, seconds)
                runs[side].append(r)
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct={r['correct']} {shown}",
                      flush=True)

    def values(side: str, name: str) -> list[float]:
        return [r["metrics"].get(name, {}).get("value", float("nan")) for r in runs[side]]

    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in SIDES}
    entry = {"seeds": seeds, "pairs": args.pairs, "seconds": seconds, "first_in_pair": first,
             "failed_checks": failed, "attempted": attempted,
             "all_checks_passed": all(r["correct"] for side in SIDES for r in runs[side]),
             "metrics": {m["name"]: summarize(m, values("parent", m["name"]), values("change", m["name"]))
                         for m in bench["end_to_end"]}}

    out_path = ROOT / f"BENCH_{args.name}.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.update({"parent_commit": shas["parent"], "change_commit": shas["change"],
                "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                            "--trace 0; parent and change each run from a git archive export of its "
                            "commit, one process at a time, order alternated pair by pair "
                            "(scripts/bench_pairs.py)"),
                "host": host(runs["change"][-1]["env"])})
    merge(doc, args.workload, entry)
    out_path.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}; failed checks: "
          f"parent {failed['parent']}, change {failed['change']}; operations attempted: "
          f"parent {attempted['parent']}, change {attempted['change']}")
    for name, s in entry["metrics"].items():
        p, c = s["parent"], s["change"]
        print(f"  {name} ({s['unit']}, {s['better']} is better): parent {p['median']:g} "
              f"[{p['q1']:g}-{p['q3']:g}], change {c['median']:g} [{c['q1']:g}-{c['q3']:g}], "
              f"x{s['change_over_parent_median']}, change better in {s['change_better_in_pairs']}; "
              f"gain rule {'met' if s['gain_rule_met'] else 'not met'}; "
              f"bound: {s['bound']}")
    print(f"wrote {out_path.name}")
    return 0 if entry["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
