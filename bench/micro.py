"""Layer micro-suite: fixed-input calls to mpglearn's public functions.

Every case calls one function on the same inputs, once to fill the caches
a run fills on its first update, then REPEATS[case] more times; the metric
is the median call time in milliseconds.  The inputs are the shipped
environments at the uniform policy:

- estimate_eval on scg4 (deterministic transitions) and on distancing
  (65,536 joint actions), with horizon 20 and batch 20 as in the configs;
- evaluate on scg8 (S*A*S > 2**22, so the sparse induced-chain branch) and
  on distancing (the dense branch), each with its stage potential as in
  exact runs;
- nash_gap on scg8;
- build_scg for scg8, from an already parsed DAG.
"""

import time
from statistics import median

from bootstrap import ROOT

REPEATS = {"micro.estimate_eval_scg4_ms": 60,
           "micro.estimate_eval_distancing_ms": 40,
           "micro.evaluate_scg8_ms": 15,
           "micro.evaluate_distancing_ms": 15,
           "micro.nash_gap_scg8_ms": 5,
           "micro.build_scg8_ms": 5}


def _environment(name):
    from mpglearn import cli
    return cli.build_environment(
        cli.load_config(ROOT / "configs" / f"{name}.ini").environment)


def cases():
    """Metric name -> zero-argument call on fixed inputs."""
    import mpglearn as m
    from mpglearn import cli
    scg4, scg8, dist = (_environment(n) for n in ("scg4", "scg8",
                                                  "distancing"))

    def uniform(env):
        return m.softmax_policy(m.uniform_logits(env.mdp))

    sample = m.SampleConfig(horizon=20, batch=20, seed=0)
    spec_cfg = cli.load_config(ROOT / "configs" / "scg8.ini").environment
    with open(spec_cfg["dag"]) as f:
        spec = m.parse_dag_spec(f.read(), name=spec_cfg["dag"])
    p4, p8, pd = uniform(scg4), uniform(scg8), uniform(dist)
    return {
        "micro.estimate_eval_scg4_ms":
            lambda: m.estimate_eval(scg4.mdp, p4, sample),
        "micro.estimate_eval_distancing_ms":
            lambda: m.estimate_eval(dist.mdp, pd, sample),
        "micro.evaluate_scg8_ms": lambda: m.evaluate(scg8, p8),
        "micro.evaluate_distancing_ms": lambda: m.evaluate(dist, pd),
        "micro.nash_gap_scg8_ms": lambda: m.nash_gap(scg8.mdp, p8),
        "micro.build_scg8_ms": lambda: m.build_scg(
            spec, n_agents=int(spec_cfg["agents"]),
            gamma=float(spec_cfg["gamma"]), reachable_only=True,
            mu=spec_cfg["mu"]),
    }


def run_suite():
    """Median milliseconds per call for every case."""
    out = {}
    for name, call in cases().items():
        call()
        times = []
        for _ in range(REPEATS[name]):
            t = time.perf_counter()
            call()
            times.append(time.perf_counter() - t)
        out[name] = 1e3 * median(times)
    return out
