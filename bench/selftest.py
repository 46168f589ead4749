"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

The file name keeps the repository's test suite from collecting these: they
run whole workloads and take a few minutes.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bootstrap

bootstrap.prepare()
import micro  # noqa: E402  (after the import path is set)
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH = bootstrap.WORK / "selftest"
BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


@pytest.fixture(scope="module")
def scg4_pair(refs):
    """One untraced and one traced scg4-sampled cmd_run, seed 5."""
    wl = workloads.WORKLOADS["scg4-sampled"]
    plain = run.one_cmd_run(wl, refs, 5, SCRATCH / "plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.one_cmd_run(wl, refs, 5, SCRATCH / "traced", tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_traced_artifacts_are_byte_identical(scg4_pair):
    plain, traced, tracer = scg4_pair
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted == 4
    a, b = _files(SCRATCH / "plain"), _files(SCRATCH / "traced")
    assert sorted(a) == sorted(b) and len(a) > 4
    assert a == b
    assert tracer.spans, "the traced run recorded no spans"


def test_uninstall_restores_every_name():
    import importlib
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _ in spans.TRACED}
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert all(getattr(importlib.import_module(m), a) is f
               for (m, a), f in before.items())


def test_flipped_trace_byte_counts_as_failed(scg4_pair, refs):
    wl = workloads.WORKLOADS["scg4-sampled"]
    bad = SCRATCH / "flipped"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(SCRATCH / "plain", bad)
    assert workloads.check_outputs(wl, refs, 5, bad) == (4, 0)
    path = bad / "ipg_run001.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert workloads.check_outputs(wl, refs, 5, bad) == (4, 1)


def test_exact_check_tolerance(refs):
    """The exact workload accepts reassociation noise, not real changes."""
    from mpglearn import cli, core
    wl = workloads.WORKLOADS["scg8-exact"]
    out = SCRATCH / "exact"
    assert run.one_cmd_run(wl, refs, 11, out).failed == 0
    final = out / "inpg_run000_final.txt"
    policy = core.read_policy(final)
    for shift, failed in ((1e-12, 0), (1e-6, 1)):
        probs = [p.copy() for p in policy.probs]
        probs[3][7] += (shift, -shift)
        core.write_policy(core.JointPolicy(probs, validate=False), final)
        assert workloads.check_outputs(wl, refs, 11, out) == (1, failed)
    core.write_policy(policy, final)
    assert workloads.check_outputs(wl, refs, 11, out) == (1, 0)
    trace = out / "inpg_run000.csv"
    rows = trace.read_text().splitlines()
    k = 1 + max(r["iteration"] for r in cli.read_trace(trace)
                if r["nash_gap"] is not None)
    cells = rows[k].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)      # the last Nash gap
    rows[k] = ",".join(cells)
    trace.write_text("\n".join(rows) + "\n")
    assert workloads.check_outputs(wl, refs, 11, out) == (1, 1)


def test_failed_job_lowers_ok_frac(monkeypatch, refs):
    """A job that raises counts as failed, and ok_frac reports it."""
    from mpglearn import cli
    wl = workloads.WORKLOADS["scg8-exact"]

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "run_dynamics", broken)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    outs = (SCRATCH / f"broken{k}" for k in range(3))
    metrics, repeats, overhead, _ = run.end_to_end(
        wl, refs, 0, 0.0, run.WarningCounter(), outs)
    assert len(repeats) == 1 and repeats[0].raised
    assert metrics["ok_frac"] == 0.0 and overhead is None


def test_bypassed_span_is_missing_not_zero(scg4_pair):
    _, _, tracer = scg4_pair
    metrics, calls = tracer.metrics(0)
    assert calls["sampling.estimate_eval"] > 0
    calls = dict(calls, **{"sampling.estimate_eval": 0})
    sampled = workloads.WORKLOADS["scg4-sampled"]
    assert run.drop_missing(sampled, metrics, calls) == [
        "sampling.estimate_eval"]
    assert not any(m in metrics
                   for m in spans.SPAN_METRICS["sampling.estimate_eval"])
    # where no calls are expected, zero calls are a measurement
    exact = workloads.WORKLOADS["scg8-exact"]
    metrics, calls = spans.Tracer().metrics(0)
    calls = {name: 1 for name in calls}
    calls["sampling.estimate_eval"] = 0
    assert run.drop_missing(exact, metrics, calls) == []
    assert metrics["sampling.estimate_eval_s"] == 0.0


def test_layer_metrics_are_measured(scg4_pair):
    _, traced, tracer = scg4_pair
    metrics, calls = tracer.metrics(4)
    assert metrics["dynamics.updates"] == traced.updates
    assert metrics["sampling.estimate_eval_calls"] == traced.updates
    assert metrics["sampling.episodes"] == 20 * traced.updates
    assert metrics["dynamics.run_calls"] == 4
    assert metrics["exact.mismatch_bound_calls"] == 4
    assert metrics["exact.evaluate_calls"] == 0
    assert 0 <= metrics["sampling.zero_reports"] <= traced.updates
    assert 0 < metrics["dynamics.self_s"] < traced.wall_s


def _run_bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(trace):
    proc = _run_bench(["--workload", "scg8-exact", "--seed", "2",
                       "--seconds", "1", "--trace", str(trace)],
                      bootstrap.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    record = json.loads((bootstrap.WORK / "results"
                         / f"scg8-exact_seed2_trace{trace}.json").read_text())
    for key in ("nproc", "python", "numpy", "scipy", "openblas_numpy",
                "openblas_num_threads", "git_commit", "source_sha256",
                "seed", "repeats", "trace.overhead_frac"):
        assert key in record["provenance"]


def test_micro_suite_names_match_benchmark_json():
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(micro.REPEATS) <= declared
    assert set(micro.cases()) == set(micro.REPEATS)


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bootstrap.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
    proc = _run_bench(["--workload", "scg4-sampled", "--seed", "0",
                       "--seconds", "1", "--trace", "0"], bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_selects_a_recorded_block(refs):
    for wl in workloads.WORKLOADS.values():
        for seed in (0, 1, 15, 16, 12345, -3):
            assert workloads.reference_jobs(refs, wl, seed)
        if not wl.exact:
            assert workloads.seeds_arg(wl, 3) == "6,7"
            assert workloads.seeds_arg(wl, 19) == "6,7"
