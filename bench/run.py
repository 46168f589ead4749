"""mpglearn benchmark: one `mpglearn run` workload per invocation.

    python3 bench/run.py --workload scg4-sampled --seed 3 --seconds 20 --trace 0

With --trace 0 the workload's `cli.cmd_run` (threads 1) is repeated for
about --seconds seconds with tracing off, after SETUP_SAMPLES set-up probes
in fresh processes, and the end-to-end metrics are printed; one traced
cmd_run afterwards gives the tracing overhead for the record.  With --trace 1
untraced and traced cmd_runs alternate for about --seconds seconds, the
layer micro-suite runs once, and the per-layer metrics are printed.  Every
cmd_run's outputs are checked against the recorded references; a job that
raises or differs counts as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record with provenance goes to
bench/_work/results/.  See bench/README.md.
"""

import argparse
import functools
import hashlib
import itertools
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from statistics import median

import bootstrap
# modules that import numpy or mpglearn (workloads, spans, micro) are
# imported inside functions, after bootstrap.prepare() has run

SETUP_SAMPLES = 5
END_TO_END_UNITS = {"wall_s": "s", "updates_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}
# spans every workload calls; sampled workloads add the sampler, the exact
# workload adds exact evaluation and the Nash gap
COMMON_SPANS = {"exact.mismatch_bound", "dynamics.run", "dynamics.step",
                "core.softmax", "environments.build", "cli.load_config",
                "cli.cmd_run"}


def expected_spans(workload):
    if workload.exact:
        return COMMON_SPANS | {"exact.evaluate", "verify.nash_gap",
                               "verify.best_response"}
    return COMMON_SPANS | {"sampling.estimate_eval"}


class WarningCounter(logging.Handler):
    """Counts WARNING and worse records of the mpglearn logger."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@dataclass
class Repeat:
    traced: bool
    wall_s: float           # whole cmd_run, artifact writes included
    cpu_s: float            # process CPU time in the same interval
    after_setup_s: float    # from build_environment's return to the end
    updates: int            # sum of summary.csv iterations
    attempted: int
    failed: int
    raised: bool


def one_cmd_run(workload, refs, seed, out, tracer=None):
    """Run the workload's cmd_run once into a new directory and check it.

    Each cmd_run gets a directory of its own: overwriting the previous
    repeat's files would make ext4 flush them on close (auto_da_alloc) and
    put disk waits into the timing.
    """
    from mpglearn import cli
    import workloads
    shutil.rmtree(out, ignore_errors=True)
    build = cli.build_environment
    setup_end = []

    def timed_build(environment):
        env = build(environment)
        setup_end.append(time.perf_counter())
        return env

    cli.build_environment = timed_build
    raised = False
    call = (cli.cmd_run if tracer is None
            else functools.partial(tracer.span, "cli.cmd_run", cli.cmd_run))
    try:
        start = time.perf_counter()
        cpu = time.process_time()
        try:
            call(workload.config, out,
                 seeds=workloads.seeds_arg(workload, seed), threads=1)
        except Exception:
            traceback.print_exc()
            raised = True
        end = time.perf_counter()
        cpu = time.process_time() - cpu
    finally:
        cli.build_environment = build
    attempted, failed = workloads.check_outputs(workload, refs, seed, out)
    try:
        updates = sum(r["iterations"] for r in workloads.read_summary(out))
    except OSError:
        updates = 0
    return Repeat(traced=tracer is not None, wall_s=end - start, cpu_s=cpu,
                  after_setup_s=end - (setup_end[0] if setup_end else start),
                  updates=updates, attempted=attempted, failed=failed,
                  raised=raised)


def setup_seconds(workload):
    """Process start to a built environment, in a fresh interpreter."""
    probe = bootstrap.BENCH / "setup_probe.py"
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading and
    # this one share an origin
    start = time.monotonic_ns()
    out = subprocess.run([sys.executable, str(probe), str(workload.config)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=bootstrap.ROOT)
    return (int(out.stdout.strip().splitlines()[-1]) - start) / 1e9


def keep_going(started, seconds, repeats):
    """Start another repeat unless it would end well past the deadline."""
    if repeats[-1].raised:
        return False
    typical = median(r.wall_s for r in repeats)
    return time.perf_counter() - started + 0.5 * typical < seconds


def traced_cmd_run(workload, refs, seed, out, counter):
    """One cmd_run with every TRACED name wrapped; returns (repeat, tracer)."""
    import spans
    tracer = spans.Tracer()
    tracer.install()
    counter.count = 0
    try:
        return one_cmd_run(workload, refs, seed, out, tracer), tracer
    finally:
        tracer.uninstall()


def overhead_frac(repeats):
    """Median traced over median untraced cmd_run wall time, minus 1."""
    plain = median(r.wall_s for r in repeats if not r.traced)
    traced = median(r.wall_s for r in repeats if r.traced)
    return traced / plain - 1.0


def end_to_end(workload, refs, seed, seconds, counter, outs):
    setup = [setup_seconds(workload) for _ in range(SETUP_SAMPLES)]
    repeats = []
    started = time.perf_counter()
    while True:
        repeats.append(one_cmd_run(workload, refs, seed, next(outs)))
        if not keep_going(started, seconds, repeats):
            break
    metrics = {
        "wall_s": median(r.wall_s for r in repeats),
        "updates_per_s": median(r.updates / r.after_setup_s for r in repeats),
        "setup_s": median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # one traced cmd_run after the measurement, for the provenance only
    if not repeats[-1].raised:
        repeats.append(
            traced_cmd_run(workload, refs, seed, next(outs), counter)[0])
    failed = sum(r.failed for r in repeats)
    metrics["ok_frac"] = 1.0 - failed / sum(r.attempted for r in repeats)
    overhead = overhead_frac(repeats) if repeats[-1].traced else None
    return metrics, repeats, overhead, {"setup_samples_s": setup}


def drop_missing(workload, metrics, calls):
    """Remove the metrics of every span the workload expects but never
    called, so a bypassed wrapper shows as missing rather than as zero."""
    import spans
    missing = sorted(name for name in expected_spans(workload)
                     if calls[name] == 0)
    for name in missing:
        print(f"missing span {name}: no calls on {workload.name}; "
              f"its metrics are left out", file=sys.stderr)
        for metric in spans.SPAN_METRICS[name]:
            metrics.pop(metric)
    return missing


def per_layer(workload, refs, seed, seconds, counter, outs, spans_path):
    import micro
    repeats = []
    started = time.perf_counter()
    while True:
        repeats.append(one_cmd_run(workload, refs, seed, next(outs)))
        traced, tracer = traced_cmd_run(workload, refs, seed, next(outs),
                                        counter)
        repeats.append(traced)
        if not keep_going(started, seconds, repeats):
            break
    metrics, calls = tracer.metrics(counter.count)
    tracer.write(spans_path)
    missing = drop_missing(workload, metrics, calls)
    overhead = overhead_frac(repeats)
    metrics["trace.overhead_frac"] = overhead
    metrics.update(micro.run_suite())
    return metrics, repeats, overhead, {"missing_spans": missing}


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return None


def provenance(args, repeats, overhead):
    import numpy
    import scipy
    commit = None
    if (bootstrap.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((bootstrap.ROOT / "src" / "mpglearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas(numpy),
        "openblas_scipy": _blas(scipy),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": sum(not r.traced for r in repeats),
        "traced_repeats": sum(r.traced for r in repeats),
        "trace.overhead_frac": overhead,
    }


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    try:
        bootstrap.prepare()
    except bootstrap.MissingCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    counter = WarningCounter()
    logging.getLogger("mpglearn").addHandler(counter)

    results = bootstrap.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    run_dir = bootstrap.WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    outs = (run_dir / f"repeat{k}" for k in itertools.count())
    if args.trace:
        metrics, repeats, overhead, extra = per_layer(
            workload, refs, args.seed, args.seconds, counter, outs,
            results / f"{stem}_spans.csv")
        unit = spans.unit_of
    else:
        metrics, repeats, overhead, extra = end_to_end(
            workload, refs, args.seed, args.seconds, counter, outs)
        unit = END_TO_END_UNITS.get
    shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit(name)}
                          for name, value in metrics.items()}}
    record = {"result": result,
              "provenance": provenance(args, repeats, overhead),
              "repeats": [asdict(r) for r in repeats], **extra}
    with open(results / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
