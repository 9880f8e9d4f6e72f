#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds the benchmark client
(perfbench/bench.ml) with dune, generates the workload's job list from
the seed, runs the client on it, checks its outputs and determinism,
reports a human summary on stderr and prints one JSON result as the last
line of stdout.  With --trace 0 the result holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced run.  Exits
non-zero without a result when the client cannot be built or run.
Workloads, metrics and their layers are described in perfbench/README.md
and named in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROUNDS = 64  # rounds generated per run; a run stops after --seconds
SEED_SPACE = 1 << 30
CLIENT_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
STATE_DIR = os.path.join(ROOT, ".perfbench")

# workload -> (client mode, one round of jobs:
#              (program, profile, strategy, budget, objective))
WORKLOADS = {
    "tune-hill": (
        "tune",
        [(b, "gcc-10.2", "hill", 100, "ncd")
         for b in ("462.libquantum", "401.bzip2", "429.mcf", "openssl")],
    ),
    "serve-restart": (
        "serve",
        [("462.libquantum", "gcc-10.2", "hill", 100, "ncd"),
         ("401.bzip2", "gcc-10.2", "hill", 100, "ncd"),
         ("462.libquantum", "llvm-11.0", "hill", 100, "ncd,gadgets")],
    ),
}

END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "evals/s",
    "evals_per_wall_s": "evals/s",
    "cold_job_p50_s": "s",
    "warm_job_p50_s": "s",
    "peak_rss_mb": "MB",
    "best_ncd": "NCD",
    "passed_frac": "ratio",
}

PER_LAYER = {
    "passes.s_per_eval": "s/eval",
    "passes.max_eval_s": "s",
    "passes.alloc_mb_per_eval": "MB/eval",
    "pass.sccp.s": "s/eval",
    "pass.baseline.s": "s/eval",
    "pass.licm_dom.s": "s/eval",
    "pass.gvn.s": "s/eval",
    "pass.if_convert.s": "s/eval",
    "pass.lower.s": "s/eval",
    "codegen.s_per_eval": "s/eval",
    "codegen.alloc_mb_per_eval": "MB/eval",
    "snapshot.hit_ratio": "ratio",
    "snapshot.bytes_mb": "MB",
    "snapshot.net_s_per_eval": "s/eval",
    "pool.busy_frac": "ratio",
    "ncd.s_per_eval": "s/eval",
    "sizecache.hit_ratio": "ratio",
    "binhunt.s_per_job": "s/job",
    "bcode.memo_hit_ratio": "ratio",
    "binsight.s_per_job": "s/job",
    "objective.memo_hit_ratio": "ratio",
    "search.unattributed_s_per_job": "s/job",
    "memo.hit_ratio": "ratio",
    "compilations": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_mb": "MB",
    "vm.s_per_job": "s/job",
    "trace.overhead_frac": "ratio",
}

# Columns that must repeat exactly for the same code, job and seed.
DET_COLUMNS = ("best_ncd", "iterations", "compilations")
DET_LAYERS = ("snapshot.hit_ratio", "compilations")
# Compared and reported the same way, but a drift does not fail the run:
# the store also backs the size cache, whose hit/miss split under racing
# workers the library documents as scheduling-dependent.
OBSERVED_COLUMNS = ("store_hits",)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_definition():
    """The names this runner prints must be exactly those BENCHMARK.json
    declares; returns the problems found."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def compare(what, declared, here):
        if declared != here:
            problems.append(f"{what}: BENCHMARK.json has {declared}, run.py has {here}")

    compare("workloads", sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        compare(key, sorted((m["name"], m["unit"]) for m in spec[key]), sorted(table.items()))
    return problems


def job_list(workload, seed):
    """The client's input: every job seed comes from the benchmark seed."""
    mode, template = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    lines = []
    for _ in range(ROUNDS):
        lines.append("round")
        for bench, profile, strategy, budget, objective in template:
            job_seed = rng.randrange(1, SEED_SPACE)
            lines.append(f"job {bench} {profile} {strategy} {budget} {job_seed} {objective}")
    return "\n".join(lines) + "\n"


def build():
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S, check=True)
    return exe


def run_client(exe, mode, jobs, seconds, trace):
    scratch = os.path.join(STATE_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(
            [exe, "--mode", mode, "--seconds", str(seconds), "--trace", str(trace),
             "--dir", scratch],
            input=jobs, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=CLIENT_TIMEOUT_S, check=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_key(j):
    return (f"{j['bench']} {j['profile']} {j['strategy']} budget {j['budget']} "
            f"{j['objective']} seed {j['seed']} {j['phase']}")


def determinism_drift(raw, path):
    """Compare the determinism columns of every job with earlier
    occurrences of the same job, in this run and in earlier runs of the
    same client and seed (kept in `path`).  Returns the drifts by name:
    (in DET_COLUMNS or DET_LAYERS, in OBSERVED_COLUMNS)."""
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    rows = [(job_key(j), {c: j[c] for c in DET_COLUMNS + OBSERVED_COLUMNS})
            for j in raw["jobs"]]
    if raw["layers"]:
        rows.append(("replay", {c: raw["layers"][c] for c in DET_LAYERS}))
    drifts, observed = [], []
    for key, cols in rows:
        before = seen.setdefault(key, cols)
        for c in cols:
            if before.get(c) != cols[c]:
                msg = f"{key}: {c} {before[c]} -> {cols[c]}"
                (observed if c in OBSERVED_COLUMNS else drifts).append(msg)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(seen, f, sort_keys=True)
    return drifts, observed


def evals_per(jobs, clock):
    return sum(j["iterations"] for j in jobs) / sum(j[clock] for j in jobs)


def end_to_end(raw, failed):
    """Job times are CPU seconds of the client (all domains): on a shared
    virtual machine its wall time for the same jobs varies several times
    more from run to run.  evals_per_wall_s is the exception, so that
    parallel efficiency shows end to end too; it is the median over
    rounds, which keeps a burst of host load to the rounds it hit.
    setup_s is wall time."""
    cold = [j for j in raw["jobs"] if j["phase"] == "cold"]
    warm = [j for j in raw["jobs"] if j["phase"] == "warm"]
    first = [j for j in cold if j["round"] == cold[0]["round"]]
    rounds = sorted({j["round"] for j in cold})
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "evals_per_s": evals_per(cold, "cpu_s"),
        "evals_per_wall_s": stats.median(
            [evals_per([j for j in cold if j["round"] == r], "wall_s") for r in rounds]),
        "cold_job_p50_s": stats.median([j["cpu_s"] for j in cold]),
        "warm_job_p50_s": stats.median([j["cpu_s"] for j in warm]),
        "peak_rss_mb": raw["peak_rss_mb"],
        # over the first round only, which every run completes, so the
        # figure depends on the seed alone
        "best_ncd": sum(j["best_ncd"] for j in first) / len(first),
        "passed_frac": (raw["attempted"] - failed) / raw["attempted"],
    }


def summarize(workload, raw, metrics, units):
    log(f"{workload}: {raw['attempted']} checked jobs")
    for name, value in metrics.items():
        log(f"  {name:32s} {value:.6g} {units[name]}")
    for phase in ("cold", "warm"):
        jobs = [j for j in raw["jobs"] if j["phase"] == phase]
        log(f"  {phase} jobs: {len(jobs)}, wall p50 "
            f"{stats.median([j['wall_s'] for j in jobs]):.4g} s")
        t = stats.tail([j["cpu_s"] for j in jobs])
        if t:
            log(f"  {phase} job p{t[0]:g} = {t[1]:.4g} CPU s over {t[2]} jobs")
        else:
            log(f"  {phase} jobs: too few for a tail percentile")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    problems = check_definition()
    if problems:
        for p in problems:
            log(p)
        return 2
    try:
        exe = build()
        mode, _ = WORKLOADS[args.workload]
        raw = run_client(exe, mode, job_list(args.workload, args.seed), args.seconds, args.trace)
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        log(f"benchmark client failed: {e}")
        return 1

    for f in raw["failures"]:
        log(f"FAILED {f}")
    with open(exe, "rb") as f:
        client = hashlib.md5(f.read()).hexdigest()
    record = os.path.join(STATE_DIR, "det", f"{client}-{args.workload}-{args.seed}-{args.trace}.json")
    drifts, observed = determinism_drift(raw, record)
    for d in drifts:
        log(f"DRIFT {d}")
    for d in observed:
        log(f"drift (scheduling-dependent, not a failure) {d}")
    failed = min(raw["attempted"], len(raw["failures"]) + len(drifts))

    if args.trace:
        metrics, units = raw["layers"], PER_LAYER
        log(f"  codegen.s_per_eval {metrics['codegen.s_per_eval']:.4g} vs "
            f"pass.sccp.s {metrics['pass.sccp.s']:.4g} vs "
            f"passes.s_per_eval {metrics['passes.s_per_eval']:.4g}")
    else:
        metrics, units = end_to_end(raw, failed), END_TO_END
    if set(metrics) != set(units):
        log(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
        return 2
    summarize(args.workload, raw, metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
