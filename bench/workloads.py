"""The benchmark's workloads, how a seed becomes their inputs, and the
output checks that decide whether each (algorithm, run) job succeeded.

Each workload is one `mpglearn run` (`cli.cmd_run`) with `--threads 1` on a
config and a contiguous block of run seeds.  The benchmark seed picks the
block from a fixed pool so that every block has reference outputs recorded
by `record_references.py`.

Sampled workloads compare each job's trace CSV and `_final.txt` byte for
byte with the recorded SHA-256 digests.  The exact workload compares the
trace's numeric columns and the final policy within EXACT_TOL, which leaves
room for an evaluation core that reassociates floating-point sums.  Both
require `(algorithm, run_id, status, iterations)` to match exactly.
`summary.csv` is not byte-compared because later changes may add columns.
"""

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bootstrap import BENCH, ROOT

REFERENCES = BENCH / "references.json"
EXACT_REF_DIR = BENCH / "ref"
POOL = 16
EXACT_TOL = 1e-9
JOB_KEYS = ("algorithm", "run_id", "status", "iterations")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    runs: int           # run seeds per cmd_run
    exact: bool         # exact evaluation: tolerance checks, no sampler


# why each exists: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("scg4-sampled", ROOT / "configs" / "scg4.ini", 2, False),
    Workload("distancing-sampled", ROOT / "configs" / "distancing.ini", 2,
             False),
    Workload("scg8-exact", BENCH / "configs" / "scg8-exact.ini", 1, True),
)}


def seed_block(workload, seed):
    """First run seed of the block the benchmark seed selects."""
    return (seed % POOL) * workload.runs


def seeds_arg(workload, seed):
    """The `--seeds` argument of `mpglearn run` for this benchmark seed."""
    first = seed_block(workload, seed)
    return ",".join(str(first + k) for k in range(workload.runs))


def stem(algorithm, run_id):
    return f"{algorithm}_run{int(run_id):03d}"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_summary(out_dir):
    with open(Path(out_dir) / "summary.csv", newline="") as f:
        return [{"algorithm": r["algorithm"], "run_id": int(r["run_id"]),
                 "status": r["status"], "iterations": int(r["iterations"])}
                for r in csv.DictReader(f)]


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def reference_jobs(refs, workload, seed):
    """Recorded jobs for this seed's block (one block for exact runs)."""
    key = "0" if workload.exact else str(seed_block(workload, seed))
    return refs[workload.name][key]


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= EXACT_TOL


def _exact_job_ok(cli, core, out_dir, job):
    name = stem(job["algorithm"], job["run_id"])
    got = cli.read_trace(Path(out_dir) / f"{name}.csv")
    want = cli.read_trace(EXACT_REF_DIR / f"{name}.csv")
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if (g["iteration"] != w["iteration"]
                or not _close(g["max_policy_step_l1"], w["max_policy_step_l1"])
                or not _close(g["potential"], w["potential"])
                or not _close(g["nash_gap"], w["nash_gap"])):
            return False
    final = core.read_policy(Path(out_dir) / f"{name}_final.txt").probs
    with np.load(EXACT_REF_DIR / f"{name}_final.npz") as z:
        ref = [z[f"arr_{i}"] for i in range(len(z.files))]
    return (len(final) == len(ref)
            and all(p.shape == r.shape and np.abs(p - r).max() <= EXACT_TOL
                    for p, r in zip(final, ref)))


def check_outputs(workload, refs, seed, out_dir):
    """Return (attempted, failed) job counts for one finished cmd_run."""
    from mpglearn import cli, core
    expected = reference_jobs(refs, workload, seed)
    try:
        summary = {(r["algorithm"], r["run_id"]): r
                   for r in read_summary(out_dir)}
    except OSError:
        summary = {}
    failed = 0
    for job in expected:
        got = summary.get((job["algorithm"], job["run_id"]))
        ok = got is not None and all(got[k] == job[k] for k in JOB_KEYS)
        if ok:
            name = stem(job["algorithm"], job["run_id"])
            try:
                if workload.exact:
                    ok = _exact_job_ok(cli, core, out_dir, job)
                else:
                    ok = (sha256(Path(out_dir) / f"{name}.csv")
                          == job["trace_sha256"]
                          and sha256(Path(out_dir) / f"{name}_final.txt")
                          == job["final_sha256"])
            except (OSError, ValueError):
                ok = False
        failed += not ok
    return len(expected), failed


def record_job(workload, out_dir, job):
    """Reference entry for one job of a finished cmd_run."""
    entry = {k: job[k] for k in JOB_KEYS}
    name = stem(job["algorithm"], job["run_id"])
    if workload.exact:
        from mpglearn import core
        EXACT_REF_DIR.mkdir(parents=True, exist_ok=True)
        (EXACT_REF_DIR / f"{name}.csv").write_bytes(
            (Path(out_dir) / f"{name}.csv").read_bytes())
        probs = core.read_policy(Path(out_dir) / f"{name}_final.txt").probs
        np.savez(EXACT_REF_DIR / f"{name}_final.npz", *probs)
    else:
        entry["trace_sha256"] = sha256(Path(out_dir) / f"{name}.csv")
        entry["final_sha256"] = sha256(Path(out_dir) / f"{name}_final.txt")
    return entry
