#!/usr/bin/env python3
"""rawnetlite benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 25 --trace 0

Run from the repository root; the program under test is imported from ./src
and all inputs are generated from the seed under ./.bench_work. The command
prints every end-to-end metric by name with its unit, then an `env` line, then
as its last line one JSON object with the keys correct, attempted, failed and
metrics. With `--trace 1` a traced set-up and one traced round per phase
follow the timed window, and the metrics are the per-layer ones. Exit codes: 0 when every output check
passes, 1 when one fails, 2 when rawnetlite cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train_paper", "score_paper", "ingest")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import rawnetlite.cli, rawnetlite.train_eval; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            n = int(os.environ.get(var, nproc))
        except ValueError:
            n = nproc
        os.environ[var] = str(max(1, min(n, nproc)))
    return nproc


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": {v: os.environ[v] for v in BLAS_VARS}, "nproc": nproc,
            "machine": platform.machine()}


def declared_units(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def measure(wl, seconds: float) -> tuple[list, float]:
    """Interleave the phases' rounds within `seconds`; at least one round per phase.

    Each phase runs once, then the phase furthest below its share of the time
    spent so far goes next, so every phase samples the whole window. The run
    stops when that phase's last round, repeated, would end past `seconds`.
    """
    rounds = []
    spent = dict.fromkeys(wl.phases, 0.0)
    last = dict.fromkeys(wl.phases, 0.0)
    start = perf_counter()
    while True:
        phase = min(wl.phases, key=lambda p: (spent[p] > 0, spent[p] / wl.phases[p]))
        if all(spent.values()) and perf_counter() - start + last[phase] > seconds:
            return rounds, perf_counter() - start
        t0 = perf_counter()
        rounds.append(wl.run_round(phase))
        last[phase] = perf_counter() - t0
        spent[phase] += last[phase]
        wl.after_round()


def run(args, wl, work: Path, nproc: int) -> int:
    work.mkdir(parents=True)
    wl.prepare(work, args.seed)

    import_s = statistics.median(import_seconds() for _ in range(IMPORT_PROBES))
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    rounds, measured_s = measure(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clips_per_s, latency_ms_p50, named = wl.metrics(rounds)
    named.update({"peak_rss_mb": (peak_rss_mb, "MB"), "setup_s": (setup_s, "s")})
    metrics = {"clips_per_s": (clips_per_s, "clips/s"), "latency_ms_p50": (latency_ms_p50, "ms"),
               "peak_rss_mb": (peak_rss_mb, "MB"), "setup_s": (setup_s, "s")}

    declared = declared_units(bool(args.trace))
    if args.trace:
        import tracing

        # one traced set-up and one traced round per phase; per-round checks stay untraced
        tracer = tracing.Tracer()
        traced_s = wall_s = 0.0
        for i, phase in enumerate(wl.phases):
            t0 = perf_counter()
            with tracer:
                if i == 0:
                    wl.setup()
                traced_s += wl.run_round(phase).seconds
            wall_s += perf_counter() - t0
            wl.after_round()
        layers = tracer.summary(wall_s)
        untraced_s = sum(statistics.median(r.seconds for r in rounds if r.phase == phase)
                         for phase in wl.phases)
        layers["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{wl.name}-seed{args.seed}.jsonl")
        metrics = {k: (v, declared.get(k, "undeclared")) for k, v in layers.items()}

    problems = wl.check()
    emitted = {k: u for k, (_, u) in metrics.items()}
    if emitted != declared:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(emitted.items()) ^ set(declared.items()))}")
    attempted = sum(r.attempted for r in rounds)

    config = {"workload": wl.name, "seconds": args.seconds, **wl.config()}
    env = environment(nproc)
    env.update({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16],
                "rounds": len(rounds), "measured_s": measured_s})
    for name, (value, unit) in named.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            if value:
                print(f"{wl.name} layer {name} {value:.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "config": config, "named": named, "problems": problems,
         "rounds": [[r.phase, r.seconds, r.clips] for r in rounds], **result},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import rawnetlite
    except ImportError as e:
        print(f"cannot import rawnetlite from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(rawnetlite.__file__).resolve().parent != SRC / "rawnetlite":
        print(f"rawnetlite resolved to {rawnetlite.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    # skipped-file warnings are counted by the output checks, not printed
    logging.getLogger("rawnetlite").addHandler(logging.NullHandler())

    wl = workloads.WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return run(args, wl, work, nproc)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
