"""Experiment command line: run seeded experiments to CSV traces, compute
post-hoc policy-space accuracy, render SVG charts, and verify environments.

Subcommands: run, accuracy, plot, verify.  Artifacts are deterministic:
identical configs and seeds produce byte-identical CSVs, snapshot files and
SVGs.  Set MPGLEARN_LOG=DEBUG|INFO|WARNING to control logging.
"""

import argparse
import configparser
import csv
import logging
import os
import sys
from contextlib import ExitStack, closing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import svg
from .core import (JointPolicy, l1_accuracy, random_logits, uniform_logits,
                   write_policy)
from .dynamics import (ALGORITHMS, AlgoConfig, check_step_size,
                       run as run_dynamics)
from .environments import (DistancingParams, build_cooperative,
                           build_distancing, build_scg, layered_dag,
                           parse_dag_spec)
from .sampling import SampleConfig
from .verify import verify_environment

log = logging.getLogger("mpglearn")

CSV_SCHEMA_VERSION = 1
TRACE_COLUMNS = ("run_id", "algorithm", "iteration", "max_policy_step_l1",
                 "potential", "nash_gap")
ACCURACY_COLUMNS = ("run_id", "algorithm", "iteration", "l1_accuracy")
SUMMARY_COLUMNS = ("run_id", "algorithm", "seed", "status", "iterations",
                   "snapshot_every")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    environment: dict
    algorithms: list
    algo: AlgoConfig            # template; algorithm field varies per run
    runs: int
    seed_base: int
    nash_gap_every: int
    snapshot_every: int
    init: str
    init_scale: float
    shared_init: bool
    base_dir: Path


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key {key!r} in section [{section.name}]")
        return default
    try:
        if cast is bool:
            return section.getboolean(key)
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r} in [{section.name}]: {exc}")


def _read_config(path):
    """Read an INI config; returns the parser and the [environment] section
    as a dict, its DAG path resolved against the config's directory."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as f:
            parser.read_file(f, source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if "environment" not in parser:
        raise ConfigError(f"{path}: missing [environment] section")
    environment = dict(parser["environment"])
    if "dag" in environment:
        dag_path = (path.parent / environment["dag"]).resolve()
        if not dag_path.exists():
            raise ConfigError(f"{path}: referenced DAG file {dag_path} "
                              f"does not exist")
        environment["dag"] = str(dag_path)
    return parser, environment


def load_config(path):
    """Parse an experiment config (INI format, sections described in README)."""
    path = Path(path)
    parser, environment = _read_config(path)
    if "algorithm" not in parser:
        raise ConfigError(f"{path}: missing [algorithm] section")
    alg_sec = parser["algorithm"]
    exp_sec = parser["experiment"] if "experiment" in parser else {}

    algorithms = _get(alg_sec, "algorithm", str, required=True).split()
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ConfigError(f"{path}: unknown algorithm {a!r}")
    eval_mode = _get(alg_sec, "eval_mode", str, default="exact")
    sample_cfg = None
    if eval_mode == "sampled":
        sample_cfg = SampleConfig(
            horizon=_get(alg_sec, "horizon", int, default=20),
            batch=_get(alg_sec, "batch", int, default=20),
            seed=0,
            estimator=_get(alg_sec, "estimator", str, default="first_visit"))
    algo = AlgoConfig(
        algorithm=algorithms[0],
        eta=_get(alg_sec, "eta", float, required=True),
        eval_mode=eval_mode,
        sample_cfg=sample_cfg,
        max_iters=_get(alg_sec, "max_iters", int, default=1000),
        convergence_threshold=_get(alg_sec, "convergence_threshold", float,
                                   default=1e-15),
        guard=_get(alg_sec, "guard", str, default=None))
    algo.check()

    cfg = ExperimentConfig(
        environment=environment,
        algorithms=algorithms,
        algo=algo,
        runs=_get(exp_sec, "runs", int, default=1),
        seed_base=_get(exp_sec, "seed_base", int, default=0),
        nash_gap_every=_get(exp_sec, "nash_gap_every", int, default=0),
        snapshot_every=_get(exp_sec, "snapshot_every", int, default=1),
        init=_get(exp_sec, "init", str, default="uniform"),
        init_scale=_get(exp_sec, "init_scale", float, default=1.0),
        shared_init=_get(exp_sec, "shared_init", bool, default=True),
        base_dir=path.parent)
    if cfg.runs < 1:
        raise ConfigError(f"{path}: runs must be >= 1")
    if cfg.init not in ("uniform", "random"):
        raise ConfigError(f"{path}: init must be 'uniform' or 'random'")
    return cfg


def _words(cast):
    """A cast of a whitespace-separated list, each word by `cast`."""
    return lambda value: tuple(cast(w) for w in value.split())


# the [environment] keys that each environment type reads, besides type
ENVIRONMENT_KEYS = {
    "scg": {"dag", "layers", "base", "agents", "gamma", "reachable_only",
            "mu", "goal", "return_reward"},
    "distancing": {"agents", "facilities", "weights", "penalty",
                   "spread_trigger", "return_trigger", "gamma", "mu"},
    "cooperative": {"agents", "states", "actions", "gamma", "seed"},
}


def build_environment(environment):
    """Construct the environment described by an [environment] section
    dict.  A value that does not parse, or a key that its type does not
    read (a misspelling would otherwise fall back to its default), raises
    a ConfigError naming the key."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({"environment": environment})
    sec = parser["environment"]
    etype = _get(sec, "type", str)
    if etype not in ENVIRONMENT_KEYS:
        raise ConfigError(f"unknown environment type {etype!r}")
    for key in sec:
        if key != "type" and key not in ENVIRONMENT_KEYS[etype]:
            raise ConfigError(f"unknown key {key!r} in [environment] for "
                              f"type = {etype}; it reads "
                              f"{', '.join(sorted(ENVIRONMENT_KEYS[etype]))}")
    if etype == "scg":
        if "dag" in sec:
            with open(sec["dag"]) as f:
                spec = parse_dag_spec(f.read(), name=sec["dag"])
        elif "layers" in sec:
            spec = layered_dag(_get(sec, "layers", _words(int)),
                               default_base=_get(sec, "base", float, 1.0))
        else:
            raise ConfigError("scg environment needs a 'dag' file or 'layers'")
        return build_scg(
            spec,
            n_agents=_get(sec, "agents", int),
            gamma=_get(sec, "gamma", float, 0.99),
            reachable_only=_get(sec, "reachable_only", bool, False),
            mu=_get(sec, "mu", str, "start"),
            goal=_get(sec, "goal", str, "absorb"),
            return_reward=_get(sec, "return_reward", float, 0.0))
    if etype == "distancing":
        params = DistancingParams(
            n_agents=_get(sec, "agents", int, 8),
            n_facilities=_get(sec, "facilities", int, 4),
            weights=_get(sec, "weights", _words(float)) or None,
            penalty=_get(sec, "penalty", float, 0.5),
            spread_trigger=_get(sec, "spread_trigger", int, 4),
            return_trigger=_get(sec, "return_trigger", int, 2),
            gamma=_get(sec, "gamma", float, 0.99))
        return build_distancing(params, mu=_get(sec, "mu", str, "safe"))
    if etype == "cooperative":
        return build_cooperative(
            n_agents=_get(sec, "agents", int, 2),
            n_states=_get(sec, "states", int, 3),
            n_actions=_get(sec, "actions", int, 2),
            gamma=_get(sec, "gamma", float, 0.9),
            seed=_get(sec, "seed", int, 0))


def _fmt_cell(x):
    return "" if x is None or (isinstance(x, float) and np.isnan(x)) else repr(x)


def _job_keys(cfg, algorithm, run_id):
    """(seed, init_key) of one job: its run seed, which keys the sampler's
    streams, and the Philox key of its random initial logits, if any."""
    seed = cfg.seed_base + run_id
    if cfg.init == "uniform":
        return seed, None
    init_seed = seed if cfg.shared_init else (seed * len(cfg.algorithms)
                                              + cfg.algorithms.index(algorithm))
    return seed, (init_seed << 16) | 0xA5


class _SnapshotFile:
    """A `.npy` file of a run's policy snapshots, one (S, A) table appended
    at a time.  numpy pads a format-1.0 header so that the first axis can
    grow to any length without moving the data, so the header is written
    for 0 tables first and rewritten in place on close; the file is then
    byte-identical to np.save of the stacked tables."""

    def __init__(self, path, shape):
        self.file = open(path, "wb")
        self.shape = shape
        self.count = 0
        self._header()

    def _header(self):
        np.lib.format.write_array_header_1_0(
            self.file, np.lib.format.header_data_from_array_1_0(
                np.empty((self.count,) + self.shape)))

    def append(self, table):
        self.file.write(np.ascontiguousarray(table, dtype=float).data)
        self.count += 1

    def close(self):
        self.file.seek(0)
        self._header()
        self.file.close()


def _run_algorithm(env, cfg, algorithm, out_dir):
    """All runs of one algorithm, stepped in lockstep by one run_dynamics
    call; streams each run's trace CSV and snapshot files as it goes and
    returns the summary rows."""
    mdp = env.mdp
    keys = [_job_keys(cfg, algorithm, r) for r in range(cfg.runs)]
    initial = [uniform_logits(mdp) if init_key is None else
               random_logits(mdp, seed=init_key, scale=cfg.init_scale)
               for _, init_key in keys]
    stems = [f"{algorithm}_run{r:03d}" for r in range(cfg.runs)]
    with ExitStack() as files:
        def open_csv(stem):
            writer = csv.writer(files.enter_context(
                open(out_dir / f"{stem}.csv", "w", newline="")))
            writer.writerow(TRACE_COLUMNS)
            return writer

        def open_npy(stem, i):
            return files.enter_context(closing(_SnapshotFile(
                out_dir / f"{stem}_agent{i}.npy",
                (mdp.n_states, mdp.n_actions[i]))))

        writers = [open_csv(stem) for stem in stems]
        snapshots = ([[open_npy(stem, i) for i in range(mdp.n_agents)]
                      for stem in stems] if cfg.snapshot_every else None)

        def stream(rec):
            r = rec["run"]
            writers[r].writerow([r, algorithm, rec["iteration"],
                                 repr(rec["max_policy_step_l1"]),
                                 _fmt_cell(rec["potential"]),
                                 _fmt_cell(rec["nash_gap"])])
            if rec["policy"] is not None:
                for f, table in zip(snapshots[r], rec["policy"]):
                    f.append(table)

        traces = run_dynamics(env, replace(cfg.algo, algorithm=algorithm),
                              initial, nash_gap_every=cfg.nash_gap_every,
                              snapshot_every=cfg.snapshot_every,
                              on_iteration=stream,
                              seeds=[seed for seed, _ in keys])
        if snapshots is not None:
            for files_r, trace in zip(snapshots, traces):
                for f, table in zip(files_r, trace.final_policy.probs):
                    f.append(table)

    rows = []
    for r, (stem, trace) in enumerate(zip(stems, traces)):
        write_policy(trace.final_policy, out_dir / f"{stem}_final.txt")
        log.info("%s: %s after %d iterations", stem, trace.status,
                 trace.n_iterations)
        rows.append({"run_id": r, "algorithm": algorithm, "seed": keys[r][0],
                     "status": trace.status, "iterations": trace.n_iterations,
                     "snapshot_every": cfg.snapshot_every})
    return rows


def cmd_run(config_path, out_dir, seeds=None, threads=1, guard=None):
    """Execute the configured runs; one trace CSV per (algorithm, run).

    The runs of each algorithm step together in lockstep, in one process
    and one thread; `threads` is accepted for compatibility and has no
    effect (outputs never depended on it)."""
    cfg = load_config(config_path)
    if guard is not None:
        cfg.algo = replace(cfg.algo, guard=guard)
    if seeds is not None:
        try:
            explicit = [int(s) for s in seeds.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad value for --seeds: {exc}")
        cfg.seed_base = explicit[0]
        if len(explicit) > 1:
            cfg.runs = len(explicit)
            if explicit != list(range(explicit[0],
                                      explicit[0] + len(explicit))):
                raise ConfigError("--seeds must be a single base or a "
                                  "contiguous ascending list")
    for alg in cfg.algorithms:
        for r in range(cfg.runs):
            seed, init_key = _job_keys(cfg, alg, r)
            for key in (seed, init_key):
                if key is not None and not 0 <= key < 2 ** 64:
                    raise ConfigError(f"run seed {seed} gives the Philox key "
                                      f"{key}, outside [0, 2**64)")
    env = build_environment(cfg.environment)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every run shares the environment and eta, so the step-size guard is
    # checked (and its warning logged) once here, not once per algorithm
    check_step_size(env.mdp, cfg.algo)
    cfg.algo = replace(cfg.algo, guard="off")

    rows = [row for alg in cfg.algorithms
            for row in _run_algorithm(env, cfg, alg, out_dir)]
    rows.sort(key=lambda r: (r["algorithm"], r["run_id"]))
    with open(out_dir / "summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in SUMMARY_COLUMNS])
    return rows


def read_trace(path):
    """Round-trip reader for trace CSVs."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames) != TRACE_COLUMNS:
            raise ConfigError(f"{path}: unexpected trace header "
                              f"{reader.fieldnames}")
        for rec in reader:
            rows.append({
                "run_id": int(rec["run_id"]),
                "algorithm": rec["algorithm"],
                "iteration": int(rec["iteration"]),
                "max_policy_step_l1": float(rec["max_policy_step_l1"]),
                "potential": float(rec["potential"])
                if rec["potential"] else None,
                "nash_gap": float(rec["nash_gap"])
                if rec["nash_gap"] else None})
    return rows


def cmd_accuracy(run_dir, out_dir=None):
    """Recompute policy-space L1 accuracy against each run's final policy."""
    run_dir = Path(run_dir)
    out_dir = Path(out_dir) if out_dir else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = run_dir / "summary.csv"
    if not summary_path.exists():
        raise ConfigError(f"{run_dir} has no summary.csv (run cmd_run first)")
    written = []
    with open(summary_path, newline="") as f:
        for rec in csv.DictReader(f):
            stem = f"{rec['algorithm']}_run{int(rec['run_id']):03d}"
            every = int(rec.get("snapshot_every", 1) or 0)
            agent_files = sorted(run_dir.glob(f"{stem}_agent*.npy"),
                                 key=lambda p: int(p.stem.split("agent")[1]))
            if every == 0 or not agent_files:
                raise ConfigError(f"{stem}: no policy snapshots stored; rerun "
                                  f"with snapshot_every > 0")
            # mapped, not read: each row is paged in when it is compared
            stacks = [np.load(p, mmap_mode="r") for p in agent_files]
            n_snaps = stacks[0].shape[0]
            n_iters = int(rec["iterations"])
            final = JointPolicy([s[-1] for s in stacks], validate=False)
            path = out_dir / f"accuracy_{stem}.csv"
            with open(path, "w", newline="") as g:
                writer = csv.writer(g)
                writer.writerow(ACCURACY_COLUMNS)
                for j in range(n_snaps):
                    iteration = n_iters if j == n_snaps - 1 else j * every
                    snap = JointPolicy([s[j] for s in stacks], validate=False)
                    writer.writerow([rec["run_id"], rec["algorithm"],
                                     iteration,
                                     repr(l1_accuracy(snap, final))])
            written.append(path)
    return written


def cmd_plot(inputs, out_path, band=False, log_y=True):
    """Render accuracy CSVs as one SVG; --band draws mean with a stdev region."""
    paths = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob("accuracy_*.csv")))
        else:
            paths.append(p)
    if not paths:
        raise ConfigError("no accuracy CSVs to plot")
    by_algo = {}
    for path in paths:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if tuple(reader.fieldnames) != ACCURACY_COLUMNS:
                raise ConfigError(f"{path}: unexpected accuracy header")
            for rec in reader:
                key = rec["algorithm"]
                run = int(rec["run_id"])
                by_algo.setdefault(key, {}).setdefault(run, []).append(
                    (int(rec["iteration"]), float(rec["l1_accuracy"])))
    chart = svg.LineChart(title="policy-space L1 accuracy",
                          y_label="L1 accuracy", log_y=log_y)
    colors = {}
    for k, algo in enumerate(sorted(by_algo)):
        colors[algo] = svg.PALETTE[k % len(svg.PALETTE)]
    if band:
        for algo in sorted(by_algo):
            runs = by_algo[algo]
            length = max(len(v) for v in runs.values())
            xs, mean, lo, hi = [], [], [], []
            for j in range(length):
                vals = [v[j][1] for v in runs.values() if j < len(v)]
                its = [v[j][0] for v in runs.values() if j < len(v)]
                m = float(np.mean(vals))
                s = float(np.std(vals))
                xs.append(float(np.mean(its)))
                mean.append(m)
                lo.append(max(m - s, 0.0))
                hi.append(m + s)
            chart.add_band(f"{algo} (stdev)", xs, lo, hi, color=colors[algo])
            chart.add_series(f"{algo} (mean)", xs, mean, color=colors[algo])
    else:
        for algo in sorted(by_algo):
            for run in sorted(by_algo[algo]):
                seq = by_algo[algo][run]
                label = algo if run == min(by_algo[algo]) else ""
                chart.add_series(label, [x for x, _ in seq],
                                 [y for _, y in seq], color=colors[algo])
    text = chart.render()
    with open(out_path, "w") as f:
        f.write(text)
    return Path(out_path)


def cmd_verify(config_path, out_path=None, seed=0, trials=100):
    """Run the verification suite against the configured environment."""
    _, environment = _read_config(Path(config_path))
    env = build_environment(environment)
    report = verify_environment(env, seed=seed, potential_trials=trials)
    text = report.text()
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    return report


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("MPGLEARN_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="mpglearn",
        description="Independent learning dynamics in Markov potential games")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded experiment runs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seeds", default=None,
                       help="seed base, or comma list of contiguous seeds")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (the "
                            "runs of each algorithm step in lockstep)")
    p_run.add_argument("--guard", choices=("enforce", "warn", "off"),
                       default=None)

    p_acc = sub.add_parser("accuracy", help="post-hoc L1 accuracy per run")
    p_acc.add_argument("--runs", required=True, help="directory with traces")
    p_acc.add_argument("--out", default=None)

    p_plot = sub.add_parser("plot", help="render accuracy CSVs to SVG")
    p_plot.add_argument("inputs", nargs="+",
                        help="accuracy CSVs or directories containing them")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--band", action="store_true",
                        help="mean with one-stdev shading instead of all runs")
    p_plot.add_argument("--linear-y", action="store_true",
                        help="linear instead of log y axis")

    p_ver = sub.add_parser("verify", help="check an environment's theory")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=100)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            rows = cmd_run(args.config, args.out, seeds=args.seeds,
                           threads=args.threads, guard=args.guard)
            for row in rows:
                print(f"{row['algorithm']} run {row['run_id']}: "
                      f"{row['status']} after {row['iterations']} iterations")
            return 0
        if args.command == "accuracy":
            for path in cmd_accuracy(args.runs, args.out):
                print(path)
            return 0
        if args.command == "plot":
            print(cmd_plot(args.inputs, args.out, band=args.band,
                           log_y=not args.linear_y))
            return 0
        if args.command == "verify":
            report = cmd_verify(args.config, args.out, seed=args.seed,
                                trials=args.trials)
            print(report.text(), end="")
            return 0 if report.passed else 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
