"""Record the reference outputs the benchmark checks against.

    python3 bench/record_references.py [--workload NAME ...]

For every seed block of every sampled workload (POOL blocks), runs the
workload's cmd_run once and stores each job's status, iteration count and
the SHA-256 of its trace CSV and `_final.txt` in bench/references.json.
The exact workload does not depend on the seed; its one block stores the
trace CSV and the final policy under bench/ref/.  Re-record only when a
change is meant to alter outputs, and say so in that change.
"""

import argparse
import json
import shutil
import sys

import bootstrap

bootstrap.prepare()
from mpglearn import cli  # noqa: E402  (after the import path is set)

import workloads  # noqa: E402


def record(workload):
    blocks = {}
    for seed in range(1 if workload.exact else workloads.POOL):
        out = bootstrap.WORK / "record" / workload.name
        shutil.rmtree(out, ignore_errors=True)
        cli.cmd_run(workload.config, out,
                    seeds=workloads.seeds_arg(workload, seed), threads=1)
        jobs = [workloads.record_job(workload, out, job)
                for job in workloads.read_summary(out)]
        blocks[str(workloads.seed_block(workload, seed))] = jobs
        print(workload.name, seed, [(j["algorithm"], j["iterations"])
                                    for j in jobs], file=sys.stderr)
    return blocks


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    refs = (workloads.load_references()
            if workloads.REFERENCES.exists() else {})
    for name in args.workload or sorted(workloads.WORKLOADS):
        refs[name] = record(workloads.WORKLOADS[name])
    with open(workloads.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
