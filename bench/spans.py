"""Spans around mpglearn's public functions, recorded from outside.

`Tracer.install()` replaces each function in TRACED at the module attribute
its caller resolves at call time (for example `mpglearn.cli.run_dynamics`
and `mpglearn.dynamics.estimate_eval`); `uninstall()` puts the originals
back.  Each span is kept in memory as [name, start, end, parent, job], where
parent is the index of the enclosing span (-1 at the top) and job is the
(algorithm, run) pair of the enclosing `dynamics.run`.  `write()` stores
them as CSV when the benchmark ends.

The wrappers call through with the same arguments and return the same
objects, so traced runs write the same artifacts as untraced ones; the
benchmark's own tests check this byte for byte.
"""

import csv
import functools
import importlib
import time
from statistics import median

import numpy as np

# (module, attribute resolved by the caller, span name)
TRACED = (
    ("mpglearn.cli", "load_config", "cli.load_config"),
    ("mpglearn.cli", "build_environment", "environments.build"),
    ("mpglearn.cli", "run_dynamics", "dynamics.run"),
    ("mpglearn.dynamics", "estimate_eval", "sampling.estimate_eval"),
    ("mpglearn.dynamics", "evaluate", "exact.evaluate"),
    ("mpglearn.dynamics", "mismatch_bound", "exact.mismatch_bound"),
    ("mpglearn.dynamics", "inpg_step", "dynamics.step"),
    ("mpglearn.dynamics", "ipg_step", "dynamics.step"),
    ("mpglearn.dynamics", "mwu_step", "dynamics.step"),
    ("mpglearn.dynamics", "softmax_policy", "core.softmax"),
    ("mpglearn.verify", "nash_gap", "verify.nash_gap"),
    ("mpglearn.verify", "best_response", "verify.best_response"),
)

# span -> the per-layer metrics derived from it.  When a workload expects
# calls to a span and there are none, these metrics are left out of the
# result (reported missing), never reported as zero.
SPAN_METRICS = {
    "sampling.estimate_eval": ("sampling.estimate_eval_calls",
                               "sampling.estimate_eval_s",
                               "sampling.estimate_eval_ms_p50",
                               "sampling.episodes", "sampling.zero_reports"),
    "exact.evaluate": ("exact.evaluate_calls", "exact.evaluate_s",
                       "exact.evaluate_ms_p50"),
    "exact.mismatch_bound": ("exact.mismatch_bound_calls",
                             "exact.mismatch_bound_s"),
    "verify.nash_gap": ("verify.nash_gap_calls", "verify.nash_gap_s"),
    "verify.best_response": ("verify.best_response_calls",
                             "verify.best_response_s"),
    "dynamics.run": ("dynamics.run_calls", "dynamics.updates",
                     "dynamics.self_s", "dynamics.update_ms_p50",
                     "dynamics.update_ms_p99"),
    "dynamics.step": ("dynamics.step_s",),
    "core.softmax": ("core.softmax_calls", "core.softmax_s"),
    "environments.build": ("environments.build_s",),
    "cli.load_config": ("cli.load_config_s",),
    "cli.cmd_run": ("cli.self_s", "cli.warning_records"),
}

UNITS = {"_calls": "count", "_s": "s", "_ms": "ms", "_ms_p50": "ms",
         "_ms_p99": "ms", "episodes": "count", "zero_reports": "count",
         "updates": "count", "warning_records": "count",
         "overhead_frac": "ratio"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


class Tracer:
    """Records spans while installed; one instance per traced cmd_run."""

    def __init__(self):
        self.spans = []
        self.update_s = []          # wall time of each update, in order
        self.episodes = 0
        self.zero_reports = 0
        self._stack = []
        self._job = None
        self._job_counts = {}
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._job])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _wrap(self, name, fn):
        hook = {"dynamics.run": self._run,
                "sampling.estimate_eval": self._estimate}.get(name, self.span)
        return functools.partial(hook, name, fn)

    def _run(self, name, fn, env, cfg, *args, **kwargs):
        k = self._job_counts.get(cfg.algorithm, 0)
        self._job_counts[cfg.algorithm] = k + 1
        self._job = (cfg.algorithm, k)
        on_iteration = kwargs.get("on_iteration")
        last = [None]

        def stream(record):
            now = time.perf_counter()
            self.update_s.append(now - last[0])
            last[0] = now
            if on_iteration is not None:
                self.span("cli.stream", on_iteration, record)

        kwargs["on_iteration"] = stream
        self._open(name)
        last[0] = self.spans[-1][1]
        try:
            return fn(env, cfg, *args, **kwargs)
        finally:
            self._close()
            self._job = None

    def _estimate(self, name, fn, mdp, policy, cfg, *args, **kwargs):
        report = self.span(name, fn, mdp, policy, cfg, *args, **kwargs)
        self.episodes += cfg.batch
        self.zero_reports += not any(np.any(a) for a in report.adv_marginal)
        return report

    def install(self):
        for module, attr, name in TRACED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("name", "start_s", "end_s", "parent",
                             "algorithm", "run"))
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, job in self.spans:
                algorithm, run = job if job is not None else ("", "")
                writer.writerow((name, repr(start - t0), repr(end - t0),
                                 parent, algorithm, run))

    def metrics(self, warning_records):
        """Per-layer metrics from the recorded spans, keyed by metric name."""
        dur = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            dur.setdefault(name, []).append(end - start)
            if parent >= 0:
                child[parent] += end - start

        def self_s(name):
            return sum(end - start - child[k]
                       for k, (n, start, end, _, _) in enumerate(self.spans)
                       if n == name)

        def total(name):
            return float(sum(dur.get(name, [])))

        m = {}
        for name in ("sampling.estimate_eval", "exact.evaluate",
                     "exact.mismatch_bound", "verify.nash_gap",
                     "verify.best_response", "core.softmax"):
            m[f"{name}_calls"] = len(dur.get(name, []))
            m[f"{name}_s"] = total(name)
        for name in ("sampling.estimate_eval", "exact.evaluate"):
            d = dur.get(name)
            m[f"{name}_ms_p50"] = 1e3 * median(d) if d else 0.0
        m["sampling.episodes"] = self.episodes
        m["sampling.zero_reports"] = self.zero_reports
        updates = np.array(self.update_s) * 1e3
        m["dynamics.run_calls"] = len(dur.get("dynamics.run", []))
        m["dynamics.updates"] = len(updates)
        m["dynamics.self_s"] = self_s("dynamics.run")
        m["dynamics.update_ms_p50"] = (float(np.percentile(updates, 50))
                                       if len(updates) else 0.0)
        m["dynamics.update_ms_p99"] = (float(np.percentile(updates, 99))
                                       if len(updates) else 0.0)
        m["dynamics.step_s"] = total("dynamics.step")
        m["environments.build_s"] = total("environments.build")
        m["cli.load_config_s"] = total("cli.load_config")
        m["cli.self_s"] = self_s("cli.cmd_run") + self_s("cli.stream")
        m["cli.warning_records"] = warning_records
        calls = {name: len(dur.get(name, [])) for name in SPAN_METRICS}
        return m, calls
