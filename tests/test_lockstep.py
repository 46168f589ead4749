"""The run axis: R runs stepped in lockstep must equal R runs stepped one
at a time, byte for byte, in their records, final policies and files."""

import io
from dataclasses import replace

import numpy as np
import pytest

import mpglearn as m
from mpglearn import cli, dynamics, sampling

from conftest import assert_same_bytes, random_mdp, sparse_mdp

SEEDS = [3, 2**63 + 9, 0, 41]


def alone_cfg(cfg, seed):
    """cfg with its sampler keyed to one run's seed."""
    if cfg.sample_cfg is None:
        return cfg
    return replace(cfg, sample_cfg=replace(cfg.sample_cfg, seed=seed))


def assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g["iteration"] == w["iteration"]
        for key in ("max_policy_step_l1", "potential", "nash_gap"):
            assert_same_bytes(np.float64(g[key]), np.float64(w[key]), key)
        assert (g["policy"] is None) == (w["policy"] is None)
        if g["policy"] is not None:
            for x, y in zip(g["policy"], w["policy"]):
                assert_same_bytes(x, y, "policy")


def assert_same_trace(got, want):
    assert (got.status, got.n_iterations) == (want.status, want.n_iterations)
    for field in ("iterations", "step_l1", "potential", "nash_gap"):
        assert_same_bytes(getattr(got, field), getattr(want, field), field)
    for x, y in zip(got.final_policy.probs, want.final_policy.probs):
        assert_same_bytes(x, y, "final_policy")
    assert (got.final_logits is None) == (want.final_logits is None)
    if got.final_logits is not None:
        for x, y in zip(got.final_logits.theta, want.final_logits.theta):
            assert_same_bytes(x, y, "final_logits")


def lockstep_equals_alone(env, cfg, initial, **kw):
    """Run SEEDS in lockstep and one at a time; assert they agree and
    return the lockstep traces."""
    records = {r: [] for r in range(len(SEEDS))}
    traces = m.run(env, cfg, initial, seeds=SEEDS,
                   on_iteration=lambda rec: records[rec["run"]].append(rec),
                   **kw)
    assert len(traces) == len(SEEDS)
    for r, seed in enumerate(SEEDS):
        want = []
        alone = m.run(env, alone_cfg(cfg, seed),
                      None if initial is None else initial[r],
                      on_iteration=want.append, **kw)
        assert all(rec["run"] == 0 for rec in want)
        assert_same_records(records[r], want)
        assert_same_trace(traces[r], alone)
    return traces


def algo_cfg(algorithm, mode, threshold=1e-15, max_iters=25):
    sample_cfg = m.SampleConfig(8, 6, seed=0) if mode == "sampled" else None
    return m.AlgoConfig(algorithm, eta=0.05, eval_mode=mode,
                        sample_cfg=sample_cfg, max_iters=max_iters,
                        convergence_threshold=threshold, guard="off")


def initial_states(mdp, algorithm, init):
    if init == "uniform":
        return None
    logits = [m.random_logits(mdp, seed=100 + r) for r in range(len(SEEDS))]
    # multiplicative weights starts from policies, the others from logits
    return ([m.softmax_policy(x) for x in logits] if algorithm == "mwu"
            else logits)


@pytest.mark.parametrize("mode", ["sampled", "exact"])
@pytest.mark.parametrize("algorithm", ["inpg", "ipg", "mwu"])
class TestLockstepOracle:
    @pytest.mark.parametrize("init", ["uniform", "random"])
    def test_ragged_actions_and_branching_rows(self, algorithm, mode, init):
        # dense Dirichlet rows: every row has three successors
        mdp = random_mdp(3, (2, 3, 1), 0.8, seed=7)
        lockstep_equals_alone(mdp, algo_cfg(algorithm, mode),
                              initial_states(mdp, algorithm, init),
                              snapshot_every=4)

    def test_runs_stop_at_different_updates(self, algorithm, mode):
        mdp = sparse_mdp(4, (3, 2), 0.8, seed=8, max_width=2)
        initial = initial_states(mdp, algorithm, "random")
        # a threshold at the low tail of the steps stops runs at random
        # updates; the survivors keep stepping with fewer rows
        probe = m.run(mdp, algo_cfg(algorithm, mode), initial, seeds=SEEDS)
        steps = np.concatenate([t.step_l1 for t in probe])
        cfg = algo_cfg(algorithm, mode, float(np.quantile(steps, 0.1)))
        traces = lockstep_equals_alone(mdp, cfg, initial, snapshot_every=3,
                                       nash_gap_every=7)
        stops = [t.n_iterations for t in traces]
        assert len(set(stops)) > 1 and min(stops) < cfg.max_iters
        assert "converged" in [t.status for t in traces]


def test_exact_runs_record_the_potential(coop):
    cfg = algo_cfg("inpg", "exact")
    traces = lockstep_equals_alone(
        coop, cfg, initial_states(coop.mdp, "inpg", "random"))
    assert not np.isnan(traces[0].potential).any()


@pytest.mark.parametrize("algorithm", ["inpg", "ipg", "mwu"])
def test_exact_mode_evaluates_once_per_step(monkeypatch, coop, algorithm):
    # runs stop at different updates, so the later steps have fewer rows
    initial = initial_states(coop.mdp, algorithm, "random")
    probe = m.run(coop, algo_cfg(algorithm, "exact"), initial, seeds=SEEDS)
    steps = np.concatenate([t.step_l1 for t in probe])
    cfg = algo_cfg(algorithm, "exact", float(np.quantile(steps, 0.1)))
    rows = []

    def counted(target, policy, *args, **kw):
        rows.append(policy.probs[0].shape[0])
        return evaluate(target, policy, *args, **kw)

    evaluate = dynamics.evaluate
    monkeypatch.setattr(dynamics, "evaluate", counted)
    traces = m.run(coop, cfg, initial, seeds=SEEDS)
    lengths = [t.n_iterations for t in traces]
    assert len(set(lengths)) > 1
    assert len(rows) == max(lengths)
    assert rows == [sum(n > k for n in lengths) for k in range(max(lengths))]


class ExpSpy:
    """numpy, keeping every array that np.exp returns through it."""

    def __init__(self):
        self.written = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name != "exp":
            return attr

        def exp(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.written.append(out)
            return out
        return exp


@pytest.mark.parametrize("algorithm", ["inpg", "ipg", "mwu"])
def test_steps_hand_their_tables_over(monkeypatch, algorithm):
    # every policy a step makes holds the array its softmax (or the
    # multiplicative update) wrote, not a copy, and every logit table a
    # step makes is one array that all agents' tables are views of
    mdp = random_mdp(3, (2, 3, 1), 0.8, seed=7)
    spy = ExpSpy()
    policies, logits = [], []

    def keeping(kept, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept.append(out)
            return out
        return wrapped

    monkeypatch.setattr(m.core, "np", spy)
    for name, kept in (("softmax_policy", policies), ("mwu_step", policies),
                       ("inpg_step", logits), ("ipg_step", logits)):
        monkeypatch.setattr(dynamics, name,
                            keeping(kept, getattr(dynamics, name)))
    m.run(mdp, algo_cfg(algorithm, "sampled", max_iters=3), seeds=SEEDS[:2])
    assert len(policies) >= 3 and len(spy.written) == len(policies)
    for policy, written in zip(policies, spy.written):
        assert all(np.shares_memory(p, written) for p in policy.probs)
    assert len(logits) == (0 if algorithm == "mwu" else 3)
    for theta in logits:
        owner = theta.theta[0].base
        assert owner is not None and all(t.base is owner for t in theta.theta)


@pytest.mark.parametrize("algorithm", ["inpg", "ipg", "mwu"])
def test_sampled_run_builds_one_plan_per_run_count(monkeypatch, algorithm):
    # one _IndexPlan when the bank is made, and one more, for the runs
    # left, each time some runs converge while others go on
    mdp = sparse_mdp(4, (3, 2), 0.8, seed=8, max_width=2)
    initial = initial_states(mdp, algorithm, "random")
    probe = m.run(mdp, algo_cfg(algorithm, "sampled"), initial, seeds=SEEDS)
    steps = np.concatenate([t.step_l1 for t in probe])
    builds = []
    plan = sampling._IndexPlan

    def counting(mdp, horizon, batch, runs):
        builds.append(runs)
        return plan(mdp, horizon, batch, runs)

    monkeypatch.setattr(sampling, "_IndexPlan", counting)
    m.run(mdp, algo_cfg(algorithm, "sampled"), initial, seeds=SEEDS)
    assert builds == [len(SEEDS)]
    builds.clear()
    cfg = algo_cfg(algorithm, "sampled", float(np.quantile(steps, 0.1)))
    traces = m.run(mdp, cfg, initial, seeds=SEEDS)
    stops = sorted({t.n_iterations for t in traces
                    if t.status == "converged"})
    # a run still steps after a stop when it stops later or never converges
    left = [sum(t.n_iterations > k or t.status == "max_iters"
                for t in traces) for k in stops]
    assert len(stops) > 1
    assert builds == [len(SEEDS)] + [r for r in left if r]


@pytest.mark.parametrize("algorithm", ["inpg", "ipg", "mwu"])
def test_non_finite_advantage_names_the_run(monkeypatch, algorithm):
    # run 2 (seed 0) gets a NaN after run 1 has stopped, so its row on
    # the run axis is no longer its run index
    estimate = dynamics.estimate_eval

    def poisoned(mdp, policy, cfg, episode_offset=0, bank=None, seeds=None):
        report = estimate(mdp, policy, cfg, episode_offset, bank, seeds)
        if 0 in seeds and len(seeds) < len(SEEDS):
            row = list(seeds).index(0)
            report.adv_marginal[1][row, 2, 1] = np.nan
        return report

    mdp = random_mdp(3, (2, 3), 0.8, seed=9)
    cfg = algo_cfg(algorithm, "sampled")
    # run 1 stops after its second update, run 2 does not
    probe = m.run(mdp, replace(cfg, max_iters=2), seeds=SEEDS)
    threshold = float(np.nextafter(probe[1].step_l1[1], np.inf))
    assert probe[2].step_l1.min() > threshold
    cfg = replace(cfg, convergence_threshold=threshold)
    monkeypatch.setattr(dynamics, "estimate_eval", poisoned)
    with pytest.raises(ValueError, match=r"^run 2 \(seed 0\): non-finite "
                       r"advantage at agent 1, state 2, action 1$"):
        m.run(mdp, cfg, seeds=SEEDS)


def test_step_on_stacked_tables_names_the_row():
    theta = m.Logits([np.zeros((3, 2, 2))], validate=False)
    adv = np.zeros((3, 2, 2))
    adv[1, 1, 0] = np.inf
    report = m.EvalReport(v=np.zeros((3, 1, 2)), adv_marginal=(adv,),
                          visitation=np.full((3, 2), 0.5))
    with pytest.raises(ValueError, match="run axis index 1: non-finite "
                       "advantage at agent 0, state 1, action 0"):
        m.inpg_step(theta, report, 0.1, 0.9)


class TestSnapshotFile:
    # the header's length field must not move as the count gains digits
    @pytest.mark.parametrize("count,shape", [
        (0, (3, 2)), (1, (1, 1)), (9, (3, 2)), (10, (3, 2)), (99, (2, 5)),
        (100, (515, 4)), (1000, (1, 1)), (10000, (3, 2))])
    def test_byte_identical_to_np_save(self, tmp_path, count, shape):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(count)))
        tables = rng.random((count,) + shape)
        f = cli._SnapshotFile(tmp_path / "a.npy", shape)
        for t in tables:
            f.append(t)
        f.close()
        want = io.BytesIO()
        np.save(want, tables)
        assert (tmp_path / "a.npy").read_bytes() == want.getvalue()


STAGE_DAG = """\
source = s
sink = t
s -> t cost=inverse_load(1.0)
s -> t cost=inverse_load(0.5)
"""

CONFIG = """\
[environment]
type = scg
dag = stage.dag
agents = 3
gamma = 0.5
reachable_only = true
mu = uniform

[algorithm]
algorithm = inpg ipg mwu
eta = 0.05
eval_mode = {mode}
horizon = 6
batch = 5
max_iters = 30
convergence_threshold = {threshold}
guard = off

[experiment]
runs = 4
seed_base = 5
nash_gap_every = 4
snapshot_every = 2
init = {init}
shared_init = false
"""


def serial_run_dynamics(env, cfg, initial, seeds, on_iteration, **kw):
    """The runs of one algorithm one after another, as one-run calls."""
    traces = []
    for r, (x, seed) in enumerate(zip(initial, seeds)):
        traces.append(dynamics.run(
            env, alone_cfg(cfg, seed), x,
            on_iteration=lambda rec, r=r: on_iteration({**rec, "run": r}),
            **kw))
    return traces


@pytest.mark.parametrize("init", ["uniform", "random"])
@pytest.mark.parametrize("mode,threshold", [("sampled", 0.02),
                                            ("exact", 0.01)])
def test_cmd_run_files_equal_serial_runs(tmp_path, monkeypatch, mode,
                                         threshold, init):
    (tmp_path / "stage.dag").write_text(STAGE_DAG)
    config = tmp_path / "exp.ini"
    config.write_text(CONFIG.format(mode=mode, threshold=threshold,
                                    init=init))
    rows = cli.cmd_run(config, tmp_path / "lockstep")
    monkeypatch.setattr(cli, "run_dynamics", serial_run_dynamics)
    assert cli.cmd_run(config, tmp_path / "serial") == rows
    names = sorted(p.name for p in (tmp_path / "lockstep").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert len(names) == 3 * 4 * (2 + 3) + 1
    for name in names:
        assert ((tmp_path / "lockstep" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes()), name
    # the streamed snapshot files are what np.save writes for their tables
    for path in (tmp_path / "lockstep").glob("*.npy"):
        buf = io.BytesIO()
        np.save(buf, np.load(path))
        assert path.read_bytes() == buf.getvalue()
    # runs that stop at different updates are covered in both modes
    assert len({row["iterations"] for row in rows}) > 1
