"""Experiment CLI: config parsing, run artifacts, accuracy recomputation,
SVG plotting, verification, and byte-level determinism."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpglearn as m
from mpglearn.cli import (ConfigError, TRACE_COLUMNS, build_environment,
                          cmd_accuracy, cmd_plot, cmd_run, cmd_verify,
                          load_config, main, read_trace)

SINGLE_ACTION_DAG = "source = s\nsink = t\ns -> t cost=inverse_load(1.0)\n"

STAGE_CONFIG = """\
[environment]
type = scg
dag = stage.dag
agents = 2
gamma = 0.0
reachable_only = true
mu = uniform

[algorithm]
algorithm = inpg
eta = 0.0005
eval_mode = exact
max_iters = 60
convergence_threshold = 1e-15
guard = warn

[experiment]
runs = 2
seed_base = 7
init = random
snapshot_every = 1
"""

STAGE_DAG = """\
source = s
sink = t
s -> t cost=inverse_load(1.0)
s -> t cost=inverse_load(1.0)
"""


@pytest.fixture
def stage_run(tmp_path):
    (tmp_path / "stage.dag").write_text(STAGE_DAG)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(STAGE_CONFIG)
    out = tmp_path / "out"
    rows = cmd_run(cfg, out)
    return cfg, out, rows


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.ini")

    def test_missing_sections(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[algorithm]\nalgorithm = inpg\neta = 0.1\n")
        with pytest.raises(ConfigError, match="environment"):
            load_config(p)

    def test_referenced_dag_must_exist(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[environment]\ntype = scg\ndag = missing.dag\n"
                     "[algorithm]\nalgorithm = inpg\neta = 0.1\n")
        with pytest.raises(ConfigError, match="missing.dag"):
            load_config(p)

    def test_syntax_error_reports_location(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[environment\ntype = scg\n")
        with pytest.raises(ConfigError, match="exp.ini"):
            load_config(p)

    def test_unknown_algorithm(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[environment]\ntype = cooperative\n"
                     "[algorithm]\nalgorithm = sarsa\neta = 0.1\n")
        with pytest.raises(ConfigError, match="sarsa"):
            load_config(p)

    @pytest.mark.parametrize("key, value", [
        ("runs", "abc"), ("init_scale", "big"), ("shared_init", "maybe")])
    def test_bad_experiment_value_names_its_key(self, tmp_path, key, value):
        # the [experiment] section ends the config, so the line lands in it
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        lines = [line for line in STAGE_CONFIG.splitlines()
                 if not line.startswith(f"{key} =")]
        p = tmp_path / "exp.ini"
        p.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        with pytest.raises(ConfigError,
                           match=rf"bad value for '{key}' in \[experiment\]"):
            load_config(p)

    @pytest.mark.parametrize("lines, key", [
        ("type = cooperative\nagents = x\n", "agents"),
        ("type = scg\nlayers = 2 2\nagents = 2\ngamma = high\n", "gamma"),
        ("type = scg\nlayers = 2 2\nagents = 2\nreachable_only = ture\n",
         "reachable_only")])
    def test_bad_environment_value_names_its_key(self, tmp_path, capsys,
                                                 lines, key):
        p = tmp_path / "exp.ini"
        p.write_text("[environment]\n" + lines
                     + "[algorithm]\nalgorithm = inpg\neta = 0.1\n")
        match = rf"bad value for '{key}' in \[environment\]"
        with pytest.raises(ConfigError, match=match):
            build_environment(load_config(p).environment)
        with pytest.raises(ConfigError, match=match):
            cmd_verify(p)
        assert main(["verify", "--config", str(p)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, key", [
        ("type = scg\nlayers = 2 2\nagents = 2\nreachable_onyl = true\n",
         "reachable_onyl"),
        ("type = scg\nlayers = 2 2\nagnets = 2\n", "agnets"),
        ("type = distancing\nstates = 2\n", "states")])
    def test_unknown_environment_key_is_named(self, tmp_path, lines, key):
        # unchecked, each key would fall back to its default: the first
        # gives all 37 states instead of the 11 reachable, the second no
        # agent count; the third is a key of another type
        p = tmp_path / "exp.ini"
        p.write_text("[environment]\n" + lines
                     + "[algorithm]\nalgorithm = inpg\neta = 0.1\n")
        with pytest.raises(ConfigError,
                           match=rf"unknown key '{key}' in \[environment\]"):
            build_environment(load_config(p).environment)


class TestCmdRun:
    def test_out_naming_an_existing_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(STAGE_CONFIG)
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_bad_seeds_name_the_option(self, tmp_path, capsys):
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(STAGE_CONFIG)
        out = tmp_path / "out"
        for seeds in ("abc", "1,x"):
            with pytest.raises(ConfigError, match="bad value for --seeds"):
                cmd_run(cfg, out, seeds=seeds)
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         f"--seeds={seeds}"]) == 2
            assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_single_action_environment_single_row(self, tmp_path):
        (tmp_path / "one.dag").write_text(SINGLE_ACTION_DAG)
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[environment]\ntype = scg\ndag = one.dag\n"
                       "agents = 1\ngamma = 0.5\nmu = uniform\n"
                       "[algorithm]\nalgorithm = inpg\neta = 0.0001\n"
                       "max_iters = 50\nguard = warn\n")
        out = tmp_path / "out"
        rows = cmd_run(cfg, out)
        assert rows[0]["status"] == "converged"
        trace = read_trace(out / "inpg_run000.csv")
        assert len(trace) == 1
        assert trace[0]["iteration"] == 0

    def test_trace_schema_and_artifacts(self, stage_run):
        _, out, rows = stage_run
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "inpg_run000.csv", "inpg_run001.csv", "summary.csv"]
        with open(out / "inpg_run000.csv", newline="") as f:
            header = next(csv.reader(f))
        assert tuple(header) == TRACE_COLUMNS
        for row in rows:
            assert (out / f"inpg_run{row['run_id']:03d}_final.txt").exists()
            assert (out / f"inpg_run{row['run_id']:03d}_agent0.npy").exists()

    def test_exact_mode_records_potential(self, stage_run):
        _, out, _ = stage_run
        trace = read_trace(out / "inpg_run000.csv")
        assert all(rec["potential"] is not None for rec in trace)

    def test_potential_cells_are_float_reprs(self, stage_run):
        # the two runs step in lockstep; each cell is what repr writes for
        # a Python float, not a numpy scalar's repr
        _, out, _ = stage_run
        for name in ("inpg_run000.csv", "inpg_run001.csv"):
            with open(out / name, newline="") as f:
                cells = [rec["potential"] for rec in csv.DictReader(f)]
            assert cells
            for cell in cells:
                assert not cell.startswith("np.")
                assert cell == repr(float(cell))

    def test_rerun_is_byte_identical(self, stage_run, tmp_path):
        cfg, out, _ = stage_run
        out2 = tmp_path / "out2"
        cmd_run(cfg, out2)
        for name in ("inpg_run000.csv", "inpg_run001.csv", "summary.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_threads_do_not_change_bytes(self, stage_run, tmp_path):
        cfg, out, _ = stage_run
        out2 = tmp_path / "out_threads"
        cmd_run(cfg, out2, threads=4)
        for name in ("inpg_run000.csv", "summary.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_guard_warning_logged_once_per_command(self, stage_run, tmp_path,
                                                   caplog):
        cfg, _, _ = stage_run
        text = cfg.read_text().replace("eta = 0.0005", "eta = 0.5")
        loud = cfg.parent / "loud.ini"
        loud.write_text(text)
        with caplog.at_level("WARNING", logger="mpglearn"):
            rows = cmd_run(loud, tmp_path / "o5", threads=2)
        assert len(rows) == 2
        assert sum("theoretical bound" in r.getMessage()
                   for r in caplog.records) == 1

    def test_guard_override(self, stage_run, tmp_path):
        cfg, _, _ = stage_run
        # eta far above the bound: enforce must reject
        text = (cfg.read_text().replace("eta = 0.0005", "eta = 0.5")
                .replace("guard = warn", "guard = enforce"))
        bad = cfg.parent / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ValueError, match="bound"):
            cmd_run(bad, tmp_path / "o3")
        cmd_run(bad, tmp_path / "o4", guard="off")

    def test_seeds_outside_the_key_range_exit_2(self, tmp_path, capsys):
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(STAGE_CONFIG)
        out = tmp_path / "out"
        # 2**48 - 1: the second run's random-init key (seed << 16) overflows
        for seeds in ("-1", "-1,0", str(2 ** 48 - 1)):
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         f"--seeds={seeds}"]) == 2
            assert "outside [0, 2**64)" in capsys.readouterr().err
        cfg.write_text(STAGE_CONFIG.replace("seed_base = 7", "seed_base = -3"))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run seed -3" in capsys.readouterr().err
        cfg.write_text(STAGE_CONFIG.replace("init = random", "init = uniform"))
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     f"--seeds={2 ** 64}"]) == 2
        assert not out.exists()             # rejected before any job ran


class TestCmdAccuracy:
    def test_final_row_zero_and_monotone_tail(self, stage_run):
        _, out, _ = stage_run
        paths = cmd_accuracy(out)
        assert len(paths) == 2
        with open(paths[0], newline="") as f:
            recs = list(csv.DictReader(f))
        vals = [float(r["l1_accuracy"]) for r in recs]
        assert vals[-1] == 0.0
        its = [int(r["iteration"]) for r in recs]
        assert its == sorted(its)

    def test_matches_recomputation_from_snapshots(self, stage_run):
        _, out, _ = stage_run
        cmd_accuracy(out)
        stacks = [np.load(out / "inpg_run000_agent0.npy"),
                  np.load(out / "inpg_run000_agent1.npy")]
        final = m.JointPolicy([s[-1] for s in stacks], validate=False)
        with open(out / "accuracy_inpg_run000.csv", newline="") as f:
            recs = list(csv.DictReader(f))
        for j, rec in enumerate(recs):
            snap = m.JointPolicy([s[j] for s in stacks], validate=False)
            assert float(rec["l1_accuracy"]) == pytest.approx(
                m.l1_accuracy(snap, final), abs=1e-15)

    def test_missing_snapshots_is_an_error(self, tmp_path):
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(STAGE_CONFIG.replace("snapshot_every = 1",
                                            "snapshot_every = 0"))
        out = tmp_path / "out"
        cmd_run(cfg, out)
        with pytest.raises(ConfigError, match="snapshot"):
            cmd_accuracy(out)


class TestCmdPlot:
    def test_single_run_two_points(self, tmp_path):
        p = tmp_path / "accuracy_inpg_run000.csv"
        p.write_text("run_id,algorithm,iteration,l1_accuracy\n"
                     "0,inpg,0,1.0\n0,inpg,1,0.5\n")
        out = tmp_path / "chart.svg"
        cmd_plot([str(p)], out)
        text = out.read_text()
        assert text.count("<polyline") == 1
        assert "inpg" in text

    def test_ten_runs_ten_polylines_and_band_variant(self, stage_run,
                                                     tmp_path):
        _, out, _ = stage_run
        cmd_accuracy(out)
        chart = tmp_path / "runs.svg"
        cmd_plot([str(out)], chart)
        assert chart.read_text().count("<polyline") == 2  # one per run
        band = tmp_path / "band.svg"
        cmd_plot([str(out)], band, band=True)
        btext = band.read_text()
        assert btext.count("<polygon") == 1
        assert btext.count("<polyline") == 1  # the mean line

    def test_rendering_deterministic(self, stage_run, tmp_path):
        _, out, _ = stage_run
        cmd_accuracy(out)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        cmd_plot([str(out)], a)
        cmd_plot([str(out)], b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no accuracy"):
            cmd_plot([str(tmp_path)], tmp_path / "x.svg")


class TestCmdVerify:
    def test_builtin_scg_passes(self, tmp_path):
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        cfg = tmp_path / "env.ini"
        cfg.write_text("[environment]\ntype = scg\ndag = stage.dag\n"
                       "agents = 2\ngamma = 0.0\nreachable_only = true\n"
                       "mu = uniform\n")
        report = cmd_verify(cfg, tmp_path / "report.txt", trials=30)
        assert report.passed
        assert (tmp_path / "report.txt").read_text().endswith("overall: PASS\n")

    def test_exit_codes_via_main(self, tmp_path):
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        cfg = tmp_path / "env.ini"
        cfg.write_text("[environment]\ntype = scg\ndag = stage.dag\n"
                       "agents = 2\ngamma = 0.0\nreachable_only = true\n"
                       "mu = uniform\n")
        assert main(["verify", "--config", str(cfg), "--trials", "20"]) == 0
        assert main(["verify", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_config_errors_match_load_config(self, tmp_path):
        (tmp_path / "syntax.ini").write_text("[environment\ntype = scg\n")
        (tmp_path / "no_env.ini").write_text(
            "[algorithm]\nalgorithm = inpg\neta = 0.1\n")
        (tmp_path / "no_dag.ini").write_text(
            "[environment]\ntype = scg\ndag = missing.dag\n"
            "[algorithm]\nalgorithm = inpg\neta = 0.1\n")
        for name in ("nope.ini", "syntax.ini", "no_env.ini", "no_dag.ini"):
            with pytest.raises(ConfigError) as via_verify:
                cmd_verify(tmp_path / name)
            with pytest.raises(ConfigError) as via_load:
                load_config(tmp_path / name)
            assert str(via_verify.value) == str(via_load.value)

    def test_full_pipeline_via_main(self, tmp_path):
        (tmp_path / "stage.dag").write_text(STAGE_DAG)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(STAGE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["accuracy", "--runs", str(out)]) == 0
        assert main(["plot", str(out), "--out", str(tmp_path / "c.svg")]) == 0
        assert (tmp_path / "c.svg").exists()


class TestShippedConfigs:
    def test_shipped_configs_parse(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        for name in ("scg4.ini", "scg8.ini", "distancing.ini"):
            cfg = load_config(root / name)
            assert cfg.algo.eta == pytest.approx(1e-4)
            assert cfg.algo.sample_cfg.horizon == 20
            assert cfg.algo.sample_cfg.batch == 20
            assert cfg.algo.convergence_threshold == pytest.approx(1e-15)
            assert cfg.runs == 10

    @pytest.mark.parametrize("name", ["scg4.ini", "distancing.ini",
                                      "scg8.ini"])
    def test_shipped_configs_verify(self, name):
        root = Path(__file__).resolve().parent.parent / "configs"
        report = cmd_verify(root / name)
        assert report.passed, report.text()

    def test_shipped_dags_parse(self):
        root = Path(__file__).resolve().parent.parent / "configs" / "dags"
        for name in ("routing6.dag", "routing6_steep.dag"):
            spec = m.parse_dag_spec((root / name).read_text(), name=name)
            assert len(spec.vertices) == 6


SCIPY_FREE_SCRIPT = """\
import re
import shutil
import sys
from pathlib import Path

import numpy as np

import mpglearn as m
from mpglearn import cli


def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")


configs, tmp = Path(sys.argv[1]), Path(sys.argv[2])
envs = [cli.build_environment(cli.load_config(configs / name).environment)
        for name in ("scg4.ini", "distancing.ini", "scg8.ini")]
shutil.copytree(configs / "dags", tmp / "dags")
text, count = re.subn(r"(?m)^max_iters = \\d+$", "max_iters = 3",
                      (configs / "scg4.ini").read_text())
assert count == 1
(tmp / "scg4.ini").write_text(text)
cli.cmd_run(tmp / "scg4.ini", tmp / "out")
cli.cmd_accuracy(tmp / "out")
cli.cmd_plot([tmp / "out"], tmp / "plot.svg")
assert not scipy_modules(), scipy_modules()
mdp = envs[0].mdp
m.evaluate(envs[0], m.JointPolicy([np.full((mdp.n_states, a), 1.0 / a)
                                   for a in mdp.n_actions]))
assert "scipy.linalg" in sys.modules
assert "scipy.sparse" not in sys.modules    # the back-up reads mdp.csr
print("ok")
"""


class TestScipyLoadsLazily:
    def test_sampled_pipeline_runs_without_scipy(self, tmp_path):
        # importing mpglearn, building the shipped environments and a
        # sampled run, its accuracy and its plot load no scipy; the first
        # exact solve does
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(root / "configs"),
             str(tmp_path)], capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(root / "src"),
                     OPENBLAS_NUM_THREADS="1"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
