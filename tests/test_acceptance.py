"""Acceptance suite: one test per headline claim, each at its stated
tolerance, printing one PASS/FAIL line per criterion.

Environment constants that the underlying experiments leave open (cost
tables, the 8-agent discount factor, convergence thresholds for the exact
stage-game runs) are frozen here; where a criterion pins a parameter
(gamma=0.99, eta=1e-4, T=20, batch=20 for the 4-agent benchmark) the shipped
config carries exactly those values.
"""

import csv
import shutil
from pathlib import Path

import numpy as np
import pytest

import mpglearn as m
from mpglearn.cli import cmd_accuracy, cmd_plot, cmd_run
from mpglearn.core import EvalReport, Logits
from mpglearn.verify import finite_diff_grad, potential_gradients, value_gradients

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    return ok


def _deviation_sweep(env, trials, seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    mdp = env.mdp
    worst = 0.0
    for _ in range(trials):
        base = env.sample_base_profile(rng)
        i = int(rng.integers(mdp.n_agents))
        dev = rng.dirichlet(np.ones(mdp.n_actions[i]), size=mdp.n_states)
        changed = base.replace_agent(i, dev)
        ra = m.evaluate(env, base, agents=[i])
        rb = m.evaluate(env, changed, agents=[i])
        worst = max(worst, float(np.abs(
            (rb.potential - ra.potential) - (rb.v[i] - ra.v[i])).max()))
    return worst


def test_criterion_1_potential_identity():
    """200 unilateral deviations keep |dPhi - dV_i| <= 1e-9 at every state."""
    scg = m.build_scg(m.layered_dag([2, 2]), n_agents=3, gamma=0.99)
    worst_scg = _deviation_sweep(scg, trials=200, seed=101)
    distancing = m.build_distancing(m.DistancingParams(
        n_agents=3, n_facilities=4, weights=(0.03, 0.06, 0.09, 0.12),
        penalty=0.5, spread_trigger=2, return_trigger=1, gamma=0.99))
    worst_d = _deviation_sweep(distancing, trials=200, seed=102)
    ok = worst_scg <= 1e-9 and worst_d <= 1e-9
    assert _report(1, f"potential identity (scg {worst_scg:.2e}, "
                      f"distancing {worst_d:.2e})", ok)


def test_criterion_2_gradient_identity():
    """Finite differences of Phi and V_i agree (and match the closed form)."""
    env = m.build_scg(m.layered_dag([2, 2]), n_agents=2, gamma=0.5,
                      mu="uniform")
    mdp = env.mdp
    rng = np.random.Generator(np.random.Philox(key=np.uint64(103)))

    def rel(a, b):
        return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a),
                                                          np.abs(b)))

    worst_fd = worst_closed = 0.0
    for point in range(20):
        base = env.sample_base_profile(rng)
        theta = Logits([np.log(np.clip(p, 1e-12, None)) for p in base.probs])
        rep = m.evaluate(env, m.softmax_policy(theta))
        closed_v = value_gradients(mdp, theta, report=rep)
        closed_p = potential_gradients(env, theta, report=rep)

        def phi_of(lg):
            return m.evaluate(env, m.softmax_policy(lg), agents=[]).potential_mu

        fd_phi = finite_diff_grad(phi_of, theta, h=1e-5)
        for i in range(mdp.n_agents):
            def v_of(lg, _i=i):
                r = m.evaluate(mdp, m.softmax_policy(lg), agents=[_i])
                return float(mdp.mu @ r.v[_i])

            fd_v = finite_diff_grad(v_of, theta, h=1e-5)[i]
            worst_fd = max(worst_fd, float(rel(fd_phi[i], fd_v).max()))
            worst_closed = max(
                worst_closed,
                float(rel(fd_v, closed_v[i]).max()),
                float(rel(fd_phi[i], closed_p[i]).max()))
    ok = worst_fd <= 1e-6 and worst_closed <= 1e-6
    assert _report(2, f"gradient identity (fd vs fd {worst_fd:.2e}, "
                      f"fd vs closed {worst_closed:.2e})", ok)


def test_criterion_3_update_equivalence():
    """softmax(inpg(theta)) equals mwu(softmax(theta)) on 1000 instances."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(104)))
    worst = 0.0
    for _ in range(1000):
        S = int(rng.integers(1, 4))
        n_agents = int(rng.integers(1, 4))
        shapes = [int(rng.integers(2, 5)) for _ in range(n_agents)]
        theta = Logits([rng.normal(0, 2, (S, a)) for a in shapes])
        rep = EvalReport(v=np.zeros((n_agents, S)),
                         adv_marginal=tuple(rng.normal(0, 5, (S, a))
                                            for a in shapes),
                         visitation=np.full(S, 1.0 / S))
        eta = float(rng.uniform(1e-4, 2e-2))
        gamma = float(rng.uniform(0.0, 0.95))
        a = m.softmax_policy(m.inpg_step(theta, rep, eta, gamma))
        b = m.mwu_step(m.softmax_policy(theta), rep, eta, gamma)
        worst = max(worst, max(float(np.abs(x - y).max())
                               for x, y in zip(a.probs, b.probs)))
    ok = worst <= 1e-12
    assert _report(3, f"update equivalence (max discrepancy {worst:.2e})", ok)


def test_criterion_4_monotonicity():
    """Exact natural-gradient ascent never decreases the potential."""
    env = m.build_scg(m.layered_dag([2]), n_agents=2, gamma=0.5,
                      mu="uniform", reachable_only=True)
    eta = 0.9 * m.max_step_size(env.mdp)
    cfg = m.AlgoConfig("inpg", eta=eta, max_iters=10_000,
                       convergence_threshold=0.0 + 1e-300)
    trace = m.run(env, cfg, m.random_logits(env.mdp, seed=105))
    diffs = np.diff(trace.potential)
    worst = float(diffs.min()) if diffs.size else 0.0
    climbed = float(trace.potential[-1] - trace.potential[0])
    ok = (trace.n_iterations == 10_000 and worst >= -1e-12 and climbed > 0)
    assert _report(4, f"monotone potential over 10000 iterations "
                      f"(worst step {worst:.2e}, total rise {climbed:.2e})",
                   ok)


@pytest.fixture(scope="module")
def stage_runs():
    """Criterion 5/6 shared runs: 20 random interior starts on the
    two-agent, two-route stage game."""
    env = m.build_scg(m.parallel_dag([1.0, 1.0]), n_agents=2, gamma=0.0,
                      mu="uniform", reachable_only=True)
    eta = 0.9 * m.max_step_size(env.mdp)
    cfg = m.AlgoConfig("inpg", eta=eta, max_iters=150_000,
                       convergence_threshold=1e-10)
    # the 20 runs step in lockstep, each bit-identical to running it alone
    traces = m.run(env, cfg, [m.random_logits(env.mdp, seed=1000 + seed)
                              for seed in range(20)], seeds=range(20))
    return env, eta, traces


def test_criterion_5_last_iterate_convergence(stage_runs):
    """Every run converges to one of the enumerated pure equilibria."""
    env, _, traces = stage_runs
    mdp = env.mdp
    start = mdp.state_labels.index(("s", "s"))

    # exhaustive enumeration of pure stage profiles: anti-coordination wins
    def pure_policy(profile):
        tables = []
        for a in profile:
            t = np.zeros((mdp.n_states, 2))
            t[:, a] = 1.0
            tables.append(t)
        return m.JointPolicy(tables)

    equilibria = []
    for a0 in range(2):
        for a1 in range(2):
            if m.nash_gap(mdp, pure_policy((a0, a1))).overall_gap <= 1e-12:
                equilibria.append((a0, a1))
    assert equilibria == [(0, 1), (1, 0)]

    reached = set()
    ok = True
    for trace in traces:
        ok &= trace.status == "converged"
        gap = m.nash_gap(mdp, trace.final_policy).overall_gap
        ok &= gap <= 1e-6
        profile = tuple(int(np.argmax(p[start]))
                        for p in trace.final_policy.probs)
        ok &= profile in equilibria
        reached.add(profile)
    ok &= len(reached) == 2  # different starts reach different equilibria
    assert _report(5, f"last-iterate convergence (20/20 converged, "
                      f"limits {sorted(reached)})", ok)


def test_criterion_6_fixed_point_residual(stage_runs):
    env, eta, traces = stage_runs
    worst = max(m.fixed_point_residual(env.mdp, t.final_policy)
                for t in traces)
    ok = worst <= 1e-6
    assert _report(6, f"fixed-point residual (max {worst:.2e})", ok)


def test_criterion_7_smoothness_and_ratio_bounds():
    """100 hypothesis-satisfying pairs per small environment pass."""
    envs = [
        m.build_scg(m.parallel_dag([1.0, 1.0]), n_agents=2, gamma=0.0,
                    mu="uniform", reachable_only=True),
        m.build_scg(m.layered_dag([2]), n_agents=2, gamma=0.5, mu="uniform",
                    reachable_only=True),
        m.build_distancing(m.DistancingParams(
            n_agents=3, n_facilities=2, weights=(0.1, 0.25), penalty=0.4,
            spread_trigger=2, return_trigger=1, gamma=0.9), mu="uniform"),
        m.build_cooperative(2, 3, 2, gamma=0.9, seed=106),
    ]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(107)))
    ok = True
    details = []
    for env in envs:
        eta = 0.9 * m.max_step_size(env.mdp)
        box = eta / (1 - env.mdp.gamma)
        fails = 0
        for _ in range(100):
            base = env.sample_base_profile(rng)
            theta = Logits([np.log(np.clip(p, 1e-12, None))
                            for p in base.probs])
            tilde = Logits([t + rng.uniform(-box, box, t.shape)
                            for t in theta.theta])
            rep = m.check_smoothness(env, theta, tilde, eta)
            if not (rep.passed and rep.ratios_ok):
                fails += 1
        ok &= fails == 0
        details.append(f"{env.label}: {100 - fails}/100")
    assert _report(7, "smoothness and ratio bounds (" + "; ".join(details)
                   + ")", ok)


def _median_iterations(out_dir, algorithm):
    with open(Path(out_dir) / "summary.csv", newline="") as f:
        vals = [int(rec["iterations"]) for rec in csv.DictReader(f)
                if rec["algorithm"] == algorithm]
    return float(np.median(vals)), vals


@pytest.fixture(scope="module")
def scg4_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("scg4")
    cmd_run(CONFIGS / "scg4.ini", out)
    return out


def test_criterion_8_natural_gradient_speedup(scg4_out):
    """4 agents, sampled mode, paper hyperparameters: the natural-gradient
    median iteration count is at most a fifth of the vanilla-gradient one
    (unconverged runs count as the iteration cap)."""
    med_inpg, inpg = _median_iterations(scg4_out, "inpg")
    med_ipg, ipg = _median_iterations(scg4_out, "ipg")
    ok = med_inpg <= med_ipg / 5.0
    assert _report(8, f"4-agent speedup (inpg median {med_inpg:.0f} vs ipg "
                      f"median {med_ipg:.0f})", ok)


def test_criterion_9_eight_agent_scaling(tmp_path):
    """8 agents: the natural gradient converges within 300 iterations in at
    least 8 of 10 seeds; the vanilla gradient misses the threshold at the
    3000-iteration cap in most seeds."""
    out = tmp_path / "scg8"
    cmd_run(CONFIGS / "scg8.ini", out)
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    inpg = [r for r in rows if r["algorithm"] == "inpg"]
    ipg = [r for r in rows if r["algorithm"] == "ipg"]
    inpg_fast = sum(1 for r in inpg
                    if r["status"] == "converged"
                    and int(r["iterations"]) <= 300)
    ipg_unconverged = sum(1 for r in ipg if r["status"] != "converged")
    ok = inpg_fast >= 8 and ipg_unconverged > len(ipg) // 2
    assert _report(9, f"8-agent scaling (inpg <=300 in {inpg_fast}/10, "
                      f"ipg unconverged in {ipg_unconverged}/10)", ok)


def test_criterion_10_determinism(tmp_path, scg4_out):
    """Re-running an experiment with an identical config yields byte-identical
    CSV artifacts; derived accuracy CSVs and SVG charts match too."""
    # natural-gradient arm of the 4-agent benchmark, run twice
    cfg_text = (CONFIGS / "scg4.ini").read_text().replace(
        "algorithm = inpg ipg", "algorithm = inpg")
    cfg = tmp_path / "scg4_inpg.ini"
    cfg.write_text(cfg_text)
    shutil.copytree(CONFIGS / "dags", tmp_path / "dags")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cmd_run(cfg, out_a)
    cmd_run(cfg, out_b)
    ok = True
    names = sorted(p.name for p in out_a.glob("*.csv"))
    ok &= names == sorted(p.name for p in out_b.glob("*.csv"))
    for name in names:
        ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    cmd_accuracy(out_a)
    cmd_accuracy(out_b)
    for p in sorted(out_a.glob("accuracy_*.csv")):
        ok &= p.read_bytes() == (out_b / p.name).read_bytes()
    cmd_plot([str(out_a)], tmp_path / "a.svg")
    cmd_plot([str(out_b)], tmp_path / "b.svg")
    ok &= (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert _report(10, f"byte determinism across {len(names)} trace CSVs, "
                       f"accuracy CSVs and SVG charts", ok)
