import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tpcma
from tpcma import cli
from tpcma.cli import ConfigError, ExperimentConfig, parse_config, run_experiment
from tpcma.engine import CONTROLLERS, RunRecord, RunResult
from tpcma.objectives import OBJECTIVE_KINDS
from tpcma.params import MAX_ENTRIES


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParseConfig:
    def test_single_cell_flags(self):
        config = parse_config(
            ["--objective", "sphere", "--n", "10", "--controller", "tpa", "--seeds", "1"]
        )
        assert config.objectives == ("sphere",)
        assert config.dimensions == (10,)
        assert config.controllers == ("tpa",)
        assert config.seeds == (1,)

    def test_comma_lists(self):
        config = parse_config(
            ["--objective", "sphere,rosenbrock", "--n", "10,20", "--seeds", "0,1,2"]
        )
        assert config.objectives == ("sphere", "rosenbrock")
        assert config.dimensions == (10, 20)
        assert config.seeds == (0, 1, 2)

    def test_defaults(self):
        config = parse_config([])
        assert config.controllers == ("tpa", "csa")
        assert config.budget == 100_000
        assert config.timestamp

    def test_beta_flag(self):
        config = parse_config(["--controller", "tpa", "--beta", "0.1"])
        assert config.beta == 0.1

    def test_lambda_and_c_alpha_flags(self):
        config = parse_config(["--lambda", "16", "--c-alpha", "0.5"])
        assert config.lam == 16
        assert config.c_alpha == 0.5

    def test_singular_seed_alias(self):
        config = parse_config(["--seed", "7"])
        assert config.seeds == (7,)

    @pytest.mark.parametrize("flag", ["--beta", "--c-alpha"])
    def test_beta_with_csa_warns(self, capsys, flag):
        parse_config(["--controller", "csa", flag, "0.1"])
        assert "no effect" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--beta", "--c-alpha"])
    def test_beta_with_two_point_controllers_does_not_warn(self, capsys, flag):
        parse_config(["--controller", "tpa,tpa_noise,tpa_legacy", flag, "0.1"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["noisy_sphere", "random_fitness"])
    def test_finite_target_on_stochastic_objective_warns(self, capsys, kind):
        parse_config(["--objective", f"sphere,{kind}", "--target-f", "1e-9"])
        err = capsys.readouterr().err
        assert kind in err and "--target-f=-inf" in err
        parse_config(["--objective", kind, "--target-f=-inf"])
        parse_config(["--objective", "sphere", "--target-f", "1e-9"])
        assert capsys.readouterr().err == ""

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seed list is empty"):
            parse_config(["--seeds", ""])

    @pytest.mark.parametrize("grid", ["dimensions", "controllers", "seeds"])
    def test_empty_grid_hides_no_run_setting(self, grid):
        # the run settings are judged by RunConfig, which an empty grid would otherwise skip
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**{grid: ()}, restarts=-1, lam=1)
        problems = str(info.value).split("; ")
        assert len(problems) == 3, problems
        assert "max_restarts must be an integer >= 0, got -1" in problems
        assert any(p.startswith("lam must be an integer >= 2") for p in problems), problems

    def test_empty_objective_grid_hides_no_dimension_problem(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(objectives=(), dimensions=(0,))
        assert str(info.value).split("; ") == [
            "objective grid is empty", "dimension must be an integer >= 1, got 0"]

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            "objective=sphere,ellipsoid\n"
            "n=5\n"
            "budget=1234\n"
            "target-f=1e-8\n"
            "no-timestamp=true\n"
        )
        config = parse_config(["--config", str(cfg), "--budget", "777"])
        assert config.objectives == ("sphere", "ellipsoid")
        assert config.dimensions == (5,)
        assert config.budget == 777  # flag wins over file
        assert config.target_f == 1e-8
        assert not config.timestamp

    def test_config_file_hash_inside_a_value_is_kept(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "runs#1"
        cfg.write_text(f"out={out}\nbudget=500 # note\n\t# indented comment\nn=3\t# tab\n")
        config = parse_config(["--config", str(cfg)])
        assert config.out == str(out)  # as the flag --out keeps it
        assert config.out == parse_config(["--out", str(out)]).out
        assert config.budget == 500
        assert config.dimensions == (3,)

    def test_config_file_unknown_keys_and_bad_values_listed(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("objective=sphere\nbudgett=10\nn=abc\nbudget 5\nno-timestamp=maybe\n")
        with pytest.raises(ConfigError) as exc_info:
            parse_config(["--config", str(cfg)])
        assert exc_info.value.problems == [
            f"{cfg}:2: unknown key 'budgett'", f"{cfg}:3: bad value 'abc' for 'n'",
            f"{cfg}:4: expected key=value, got 'budget 5'",
            f"{cfg}:5: no-timestamp must be true/false"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_config_file_runs_the_grid_its_flags_run(self, tmp_path):
        # a restart grid, byte for byte
        settings = {"objective": "rastrigin", "n": "2,10", "controller": "tpa,csa", "seeds": "0",
                    "budget": "3000", "restarts": "3"}
        (tmp_path / "exp.cfg").write_text("".join(f"{key}={value}\n"
                                                  for key, value in settings.items())
                                          + "no-timestamp=true\n")
        flags = [arg for key, value in settings.items() for arg in (f"--{key}", value)]
        assert cli.main([*flags, "--no-timestamp", "--out", str(tmp_path / "flags")]) == 0
        assert cli.main(["--config", str(tmp_path / "exp.cfg"),
                         "--out", str(tmp_path / "file")]) == 0

        def written(out):
            return {path.name: path.read_bytes() for path in out.iterdir()}

        assert len(written(tmp_path / "file")) == 5  # four cells and the summary
        assert written(tmp_path / "file") == written(tmp_path / "flags")

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(["--config", "/nonexistent/exp.cfg"])

    def test_a_problem_holding_the_separator_is_listed_whole(self):
        # the problems were once split back out of the library's message on "; ", which
        # listed the controller problem cut short at "got 'x"
        expected = [f"objective kind must be one of {OBJECTIVE_KINDS}, got 'a; b'",
                    f"controller must be one of {tuple(CONTROLLERS)}, got 'x; b'"]
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(objectives=("a; b",), controllers=("x; b",))
        assert str(info.value) == "; ".join(expected)
        assert info.value.problems == expected

    @pytest.mark.parametrize("source", ["grid", "file"])
    def test_a_config_error_lists_its_problems_through_pickle(self, source, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("budgett=10\nn=abc\n")
        with pytest.raises(ConfigError) as info:
            if source == "grid":
                ExperimentConfig(objectives=("wat",), dimensions=(0,))
            else:
                parse_config(["--config", str(cfg)])
        assert len(info.value.problems) == 2
        assert info.value.problems == str(info.value).split("; ")
        copied = pickle.loads(pickle.dumps(info.value))
        assert type(copied) is ConfigError
        assert (str(copied), copied.problems) == (str(info.value), info.value.problems)

    def test_an_array_grid_entry_is_listed(self):
        # comparing it with each kind used to raise numpy's "truth value ... is ambiguous",
        # whose message was listed as the problem
        kind = np.array(["sphere", "x"])
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(objectives=(kind,))
        assert info.value.problems == [
            f"objective kind must be one of {OBJECTIVE_KINDS}, got {kind!r}"]


class TestRunExperiment:
    def test_summary_shape_contract(self, tmp_path):
        config = ExperimentConfig(
            objectives=("sphere",),
            dimensions=(10,),
            controllers=("tpa", "csa"),
            seeds=tuple(range(5)),
            budget=20_000,
            target_f=1e-9,
            out=str(tmp_path),
            timestamp=False,
        )
        summary = run_experiment(config)
        assert len(summary) == 2
        for row in summary:
            assert row["runs"] == 5
            assert row["solved"] == 5
            assert row["solved"] + row["failed"] <= row["runs"]
            assert row["median_evals"] <= 20_000
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert "summary.csv" in files
        assert len(files) == 11  # 10 run traces + summary

    def test_summary_holds_python_numbers_for_a_numpy_grid(self, tmp_path):
        # a grid given as numpy integers still yields a JSON-serializable summary
        config = ExperimentConfig(dimensions=(np.int64(3),), controllers=("tpa",), seeds=(0,),
                                  budget=200, out=str(tmp_path), timestamp=False)
        summary = run_experiment(config)
        assert type(summary[0]["n"]) is int
        assert json.loads(json.dumps(summary)) == summary

    def test_trace_csv_columns_and_values(self, tmp_path):
        config = ExperimentConfig(
            objectives=("sphere",),
            dimensions=(2,),
            controllers=("tpa",),
            seeds=(0,),
            budget=400,
            target_f=-1.0,
            out=str(tmp_path),
            timestamp=False,
        )
        run_experiment(config)
        rows = read_rows(tmp_path / "sphere_n2_tpa_seed0.csv")
        assert list(rows[0].keys()) == list(cli.TRACE_COLUMNS)
        assert [int(r["generation"]) for r in rows] == list(range(1, len(rows) + 1))
        assert int(rows[0]["evals"]) == 8  # lam(2) + 2
        best = [float(r["best_f"]) for r in rows]
        assert best == sorted(best, reverse=True)

    def test_rerun_is_byte_identical_without_timestamp(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_experiment(
                ExperimentConfig(
                    objectives=("sphere",),
                    dimensions=(3,),
                    controllers=("tpa",),
                    seeds=(4,),
                    budget=2000,
                    out=str(out),
                    timestamp=False,
                )
            )
        name = "sphere_n3_tpa_seed4.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    @pytest.mark.parametrize(
        "objective,n,controller,restarts,digests",
        [
            # csa rows carry alpha_s = nan
            ("sphere", 3, "csa", 0, ("87b977251b5e66ac", "8ede01b2dfcd4746")),
            # a numpy integer writes the same bytes as an int
            ("sphere", np.int64(3), "csa", 0, ("87b977251b5e66ac", "8ede01b2dfcd4746")),
            ("rastrigin", 3, "tpa_legacy", 2, ("5eb8e860652fdc6f", "3756da04cbbb155e")),
        ],
        ids=["csa", "csa-numpy-n", "tpa_legacy-restarts"],
    )
    def test_csv_bytes_are_pinned(self, objective, n, controller, restarts, digests, tmp_path):
        config = ExperimentConfig(
            objectives=(objective,),
            dimensions=(n,),
            controllers=(controller,),
            seeds=(2,),
            budget=3000,
            target_f=1e-8,
            restarts=restarts,
            out=str(tmp_path),
            timestamp=False,
        )
        run_experiment(config)
        names = (f"{objective}_n3_{controller}_seed2.csv", "summary.csv")
        found = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
                      for name in names)
        assert found == digests

    def test_trace_rows_are_the_reprs_of_their_fields(self, tmp_path):
        # for Python ints and floats these are the bytes of "%d,%d,%r,%r,%r,%r,%r"
        config = ExperimentConfig(objectives=("sphere",), dimensions=(2,), controllers=("tpa",),
                                  seeds=(0,), budget=200, out=str(tmp_path), timestamp=False)
        cell = cli._Cell("sphere", 2, "tpa", 0, config)
        rows = [
            RunRecord(1, 8, math.inf, 1.5, 0.0, 1.0, 2.0),
            RunRecord(2, 2**70, -math.inf, 5e-324, math.nan, 1e7, 1e300),
            RunRecord(10**30, 10**30 + 2, -0.0, 0.1, -math.nan, math.inf, -math.inf),
        ]
        result = RunResult(best_x=None, best_f=-math.inf, termination="max_evals",
                           evals=10**30 + 2, generations=10**30, trace=rows)
        cli.write_trace_csv(tmp_path / "cell.csv", cell, result, timestamp=False)
        text = (tmp_path / "cell.csv").read_bytes().decode()
        _, body = text.split("generation,evals,best_f,sigma,alpha_s,axis_ratio,trace_C\n")
        assert body == "".join("%d,%d,%r,%r,%r,%r,%r\n" % row for row in rows)
        assert body.splitlines()[1] == "2,1180591620717411303424,-inf,5e-324,nan,10000000.0,1e+300"

    def test_failed_trace_write_leaves_no_file(self, tmp_path):
        config = ExperimentConfig(objectives=("sphere",), dimensions=(2,), controllers=("tpa",),
                                  seeds=(0,), budget=200, out=str(tmp_path), timestamp=False)
        cell = cli._Cell("sphere", 2, "tpa", 0, config)
        result = cli.run(cli._run_config_for(cell))

        def rows_then_failure():
            yield from result.trace[:3]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli.write_trace_csv(tmp_path / "cell.csv", cell,
                                dataclasses.replace(result, trace=rows_then_failure()),
                                timestamp=False)
        assert list(tmp_path.iterdir()) == []
        cli.write_trace_csv(tmp_path / "cell.csv", cell, result, timestamp=False)
        assert [p.name for p in tmp_path.iterdir()] == ["cell.csv"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_trace_write_is_not_counted_as_solved(self, tmp_path, capsys):
        argv = ["--n", "2", "--controller", "tpa,csa", "--seeds", "0,1", "--budget", "3000",
                "--no-timestamp", "--out", str(tmp_path)]
        config = parse_config(argv)
        cell, other = (cli._Cell("sphere", 2, "tpa", seed, config) for seed in (0, 1))
        assert cli.run(cli._run_config_for(cell)).termination == "target_f"
        # a directory where one cell's trace CSV goes fails that write after its run
        (tmp_path / f"{cell.name}.csv").mkdir()
        assert cli.main(argv) == 0
        assert f"run {cell.name} failed: IsADirectoryError" in capsys.readouterr().err
        # the other three CSVs are written, and no temporary file is left
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            *(f"sphere_n2_{c}_seed{s}.csv" for c in ("csa", "tpa") for s in (0, 1)), "summary.csv"]
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = {row["controller"]: row for row in csv.DictReader(fh)}
        for row in rows.values():
            assert int(row["solved"]) + int(row["failed"]) <= int(row["runs"]) == 2
        assert (rows["tpa"]["solved"], rows["tpa"]["failed"]) == ("1", "1")
        # a failure counts at the budget
        evals = cli.run(cli._run_config_for(other)).evals
        assert float(rows["tpa"]["median_evals"]) == (evals + 3000) / 2

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = ExperimentConfig(out=str(blocker / "sub"), seeds=(0,))
        with pytest.raises(ConfigError, match="not writable"):
            run_experiment(config)

    def test_run_failure_recorded_not_fatal(self, tmp_path, monkeypatch, capsys):
        def explode(config):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "run", explode)
        config = ExperimentConfig(
            objectives=("sphere",),
            dimensions=(2,),
            controllers=("tpa",),
            seeds=(0, 1),
            budget=1000,
            out=str(tmp_path),
            timestamp=False,
        )
        summary = run_experiment(config)
        assert summary[0]["failed"] == 2
        assert summary[0]["solved"] == 0
        assert summary[0]["median_evals"] == 1000  # failures count at budget
        assert "synthetic failure" in capsys.readouterr().err

    def test_noise_level_reaches_objective(self, tmp_path):
        config = ExperimentConfig(
            objectives=("noisy_sphere",),
            dimensions=(2,),
            controllers=("tpa_noise",),
            seeds=(0,),
            budget=200,
            target_f=-np.inf,
            noise_level=1.0,
            out=str(tmp_path),
            timestamp=False,
        )
        summary = run_experiment(config)
        assert summary[0]["runs"] == 1

    def test_restarts_flow_through_cli(self, tmp_path):
        config = ExperimentConfig(
            objectives=("rastrigin",),
            dimensions=(5,),
            controllers=("tpa",),
            seeds=(0,),
            budget=25_000,
            target_f=1e-8,
            tol_fun=1e-12,
            restarts=8,
            out=str(tmp_path),
            timestamp=False,
        )
        summary = run_experiment(config)
        assert summary[0]["runs"] == 1
        rows = read_rows(tmp_path / "rastrigin_n5_tpa_seed0.csv")
        evals = [int(r["evals"]) for r in rows]
        assert evals == sorted(evals)


class TestMain:
    def test_main_happy_path(self, tmp_path, capsys):
        code = cli.main(
            [
                "--objective", "sphere",
                "--n", "2",
                "--controller", "tpa",
                "--seeds", "0",
                "--budget", "2000",
                "--out", str(tmp_path),
                "--no-timestamp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "median_evals" in out
        assert (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("args, problems", [
        # each owner's problems once, in the order the judges run: the criteria, each objective,
        # each dimension, then a RunConfig per controller and seed
        (["--objective", "wat,sphere", "--n", "0", "--controller", "nope,tpa", "--seeds", "0,-1,-2",
          "--lambda", "1", "--beta", "nan", "--budget", "-5", "--tol-x", "-1", "--sigma0", "0",
          "--condition", "inf", "--restarts", "-1"],
         ["max_evals must be an integer >= 0, got -5", "tol_x must be >= 0 and finite, got -1.0",
          f"objective kind must be one of {OBJECTIVE_KINDS}, got 'wat'",
          "condition must be positive and finite, got inf",
          "dimension must be an integer >= 1, got 0",
          "sigma0 must be positive and finite, got 0.0",
          f"controller must be one of {tuple(CONTROLLERS)}, got 'nope'",
          "max_restarts must be an integer >= 0, got -1", "lam must be an integer >= 2, got 1",
          "beta_bias must be >= 0 and finite, got nan", "seed must be an integer >= 0, got -1",
          "seed must be an integer >= 0, got -2"]),
        # the CLI's own rules come first
        (["--objective", "sphere,sphere", "--n", "2,3,2", "--controller", "tpa,tpa",
          "--seeds=-1,-1", "--lambda", "1", "--workers", "0"],
         ["objective grid entries must be distinct, got ('sphere', 'sphere')",
          "dimension grid entries must be distinct, got (2, 3, 2)",
          "controller grid entries must be distinct, got ('tpa', 'tpa')",
          "seed list entries must be distinct, got (-1, -1)",
          "workers must be an integer >= 1, got 0",
          "lam must be an integer >= 2, got 1", "seed must be an integer >= 0, got -1"]),
    ], ids=["owners", "grids"])
    def test_main_lists_each_problem_once_and_exits_2_before_any_run(self, args, problems,
                                                                      tmp_path, capsys):
        with pytest.raises(ConfigError) as info:
            parse_config(args)
        assert info.value.problems == problems
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: " + "; ".join(problems) + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "values, expected",
        [
            ({"dimensions": ([2],)}, ["dimension must be an integer >= 1, got [2]"]),
            ({"seeds": ([0],)}, ["seed must be an integer >= 0, got [0]"]),
            ({"controllers": (["tpa"],)},
             [f"controller must be one of {tuple(CONTROLLERS)}, got ['tpa']"]),
            ({"objectives": (["sphere"],)},
             [f"objective kind must be one of {OBJECTIVE_KINDS}, got ['sphere']"]),
            ({"seeds": ([0], [0])},
             ["seed list entries must be distinct, got ([0], [0])",
              "seed must be an integer >= 0, got [0]"]),
            ({"seeds": (1, True)},
             ["seed list entries must be distinct, got (1, True)",
              "seed must be an integer >= 0, got True"]),
            ({"dimensions": (2, 2.0)},
             ["dimension grid entries must be distinct, got (2, 2.0)",
              "dimension must be an integer >= 1, got 2.0"]),
            ({"dimensions": (), "condition": math.nan},
             ["dimension grid is empty", "condition must be positive and finite, got nan"]),
            ({"objectives": ("noisy_sphere",), "dimensions": (), "noise_level": -1},
             ["dimension grid is empty", "noise_level must be >= 0 and finite, got -1"]),
            # with no valid dimension a sequence m0 has no shape to miss; its values are judged
            ({"dimensions": (0,), "m0": (1.0, 2.0)}, ["dimension must be an integer >= 1, got 0"]),
            ({"dimensions": (), "m0": (1.0, 2.0)}, ["dimension grid is empty"]),
            ({"dimensions": (0,), "m0": (1.0, math.nan)},
             ["dimension must be an integer >= 1, got 0", "m0 must be finite"]),
            ({"target_f": None}, ["target_f must be finite or -inf, got None"]),
            ({"tol_fun": "x", "tol_x": "x"},
             ["tol_x must be >= 0 and finite, got 'x'", "tol_fun must be >= 0 and finite, got 'x'"]),
            ({"objectives": ("noisy_sphere",), "noise_level": "x", "condition": "x"},
             ["noise_level must be >= 0 and finite, got 'x'",
              "condition must be positive and finite, got 'x'"]),
            ({"beta": "x", "c_alpha": "x"},
             ["beta_bias must be >= 0 and finite, got 'x'", "c_alpha must be in (0, 1], got 'x'"]),
            ({"m0": 1 + 2j, "sigma0": "a"},
             ["m0 must be a float or a sequence of floats, got (1+2j)",
              "sigma0 must be positive and finite, got 'a'"]),
            # a grid that is no sequence was iterated, or compared, as it came
            ({"dimensions": 3}, ["dimension grid must be a sequence, got 3"]),
            ({"seeds": None, "lam": 1},
             ["seed list must be a sequence, got None", "lam must be an integer >= 2, got 1"]),
            ({"seeds": {0, 1}}, ["seed list must be a sequence, got {0, 1}"]),
            ({"objectives": "sphere"}, ["objective grid must be a sequence, got 'sphere'"]),
            ({"controllers": np.array([["tpa"]])},
             ["controller grid must be a sequence, got array([['tpa']], dtype='<U3')"]),
            ({"dimensions": np.array([2, 2])},
             [f"dimension grid entries must be distinct, got {tuple(np.array([2, 2]))}"]),
            ({"objectives": (np.array(["sphere", "x"]), np.array(["sphere", "x"]))},
             [f"objective kind must be one of {OBJECTIVE_KINDS}, got "
              "array(['sphere', 'x'], dtype='<U6')"]),
            ({"seeds": (1, np.array([0, 1]), 1)},
             ["seed list entries must be distinct, got (1, array([0, 1]), 1)",
              "seed must be an integer >= 0, got array([0, 1])"]),
            # beside an array, equal entries that are not one object are still repeats
            ({"seeds": (np.array([0, 1]), 1, 1.0)},
             ["seed list entries must be distinct, got (array([0, 1]), 1, 1.0)",
              "seed must be an integer >= 0, got array([0, 1])",
              "seed must be an integer >= 0, got 1.0"]),
            # out or timestamp of the wrong type built, and failed only once the grid ran
            ({"seeds": (), "out": None, "timestamp": "no"},
             ["seed list is empty", "out must be a str or os.PathLike, got None",
              "timestamp must be a bool, got 'no'"]),
        ],
        ids=["dimension-list", "seed-list", "controller-list", "objective-list",
             "seed-lists-repeated", "seed-bool-repeats-int", "dimension-float-repeats-int",
             "no-dimension-condition", "no-dimension-noise-level", "invalid-dimension-m0-pair",
             "no-dimension-m0-pair", "invalid-dimension-m0-nan", "target-f-none",
             "tolerance-text", "objective-text", "strategy-text", "start-not-floats",
             "dimension-int", "seed-none-lambda", "seed-set", "objective-str",
             "controller-2d-array", "dimension-array-repeated", "objective-array-entries",
             "seed-array-entry-repeats", "seed-equal-entries-beside-an-array", "output-types"],
    )
    def test_each_entry_and_setting_is_judged_with_its_own_problem(self, values, expected):
        # an unhashable entry, an empty grid or a value of the wrong type hides no problem
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**values)
        assert str(info.value).split("; ") == expected

    @pytest.mark.parametrize("grid, given, kept", [
        ("dimensions", [2, 3], (2, 3)),
        ("dimensions", np.array([2, 3]), (2, 3)),
        ("seeds", range(3), (0, 1, 2)),
        ("objectives", np.array(["sphere", "rastrigin"]), ("sphere", "rastrigin")),
    ], ids=["list", "array", "range", "text-array"])
    def test_each_grid_is_kept_as_a_tuple(self, grid, given, kept):
        config = ExperimentConfig(**{grid: given})
        assert type(getattr(config, grid)) is tuple and getattr(config, grid) == kept

    def test_a_sequence_m0_is_judged_against_every_dimension(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(dimensions=(2, 3), m0=(1.0, 2.0))
        assert str(info.value).split("; ") == ["m0 must have shape (3,), got (2,)"]

    def test_a_huge_dimension_hides_no_other_problem(self, tmp_path, capsys):
        # judging it used to build the n-vector of m0, and numpy's "array is too big" was all
        # that was listed
        argv = ["--n", str(2**62), "--lambda", "1", "--seeds", "0", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.removeprefix("error: ").rstrip("\n").split("; ") == [
            f"n must be at most {MAX_ENTRIES}, got {2**62}", "lam must be an integer >= 2, got 1"]
        assert not (tmp_path / "out").exists()

    def test_main_timestamp_header_present_by_default(self, tmp_path):
        cli.main(
            [
                "--objective", "sphere",
                "--n", "2",
                "--controller", "tpa",
                "--seeds", "0",
                "--budget", "200",
                "--target-f", "-1",
                "--out", str(tmp_path),
            ]
        )
        text = (tmp_path / "sphere_n2_tpa_seed0.csv").read_text()
        assert "# created=" in text


# each flag with a target: its text, the RunConfig setting it reaches and the value there, none
# of which a default cell holds; noise_level reaches only noisy_sphere
FLAG_TARGETS = [
    ("objective", "rastrigin", "objective.kind", "rastrigin"),
    ("n", "3", "objective.n", 3),
    ("controller", "csa", "controller", "csa"),
    ("seeds", "5", "seed", 5),
    ("lambda", "9", "lam", 9),
    ("beta", "0.25", "beta_bias", 0.25),
    ("c-alpha", "0.5", "c_alpha", 0.5),
    ("budget", "123", "criteria.max_evals", 123),
    ("target-f", "0.001", "criteria.target_f", 0.001),
    ("tol-fun", "1e-05", "criteria.tol_fun", 1e-05),
    ("tol-x", "1e-07", "criteria.tol_x", 1e-07),
    ("sigma0", "0.75", "sigma0", 0.75),
    ("m0", "-1.5", "m0", -1.5),
    ("noise-level", "0.4", "objective.noise_level", 0.4),
    ("condition", "100", "objective.condition", 100.0),
    ("restarts", "2", "max_restarts", 2),
]


class TestDeclaredSettings:
    def test_the_declared_targets_are_those_of_the_table(self):
        declared = {flags[0]: meta["target"] for _, flags, meta in cli._options()
                    if meta["target"]}
        assert declared == {flag: path for flag, _, path, _ in FLAG_TARGETS}

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("flag, text, path, value", FLAG_TARGETS,
                             ids=[row[0] for row in FLAG_TARGETS])
    def test_each_flag_reaches_its_target(self, flag, text, path, value, source, tmp_path):
        settings = {"objective": "noisy_sphere"} if flag == "noise-level" else {}
        settings[flag] = text
        if source == "flag":
            argv = [arg for key, given in settings.items() for arg in (f"--{key}", given)]
        else:
            (tmp_path / "exp.cfg").write_text("".join(f"{key}={given}\n"
                                                      for key, given in settings.items()))
            argv = ["--config", str(tmp_path / "exp.cfg")]

        def reached(config):  # in the grid's first cell
            cell = cli._Cell(config.objectives[0], config.dimensions[0], config.controllers[0],
                             config.seeds[0], config)
            return functools.reduce(getattr, path.split("."), cli._run_config_for(cell))

        assert reached(parse_config(argv)) == value
        assert reached(parse_config([])) != value

    def test_the_help_lists_every_flag_in_order(self, capsys):
        with pytest.raises(SystemExit):
            parse_config(["--help"])
        options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
        listed = [flag for line in options.splitlines() if line.startswith("  -")
                  for flag in re.findall(r"--[\w-]+", line.strip().split("  ")[0])]
        assert listed == [
            "--help", "--config", "--objective", "--n", "--controller", "--seeds", "--seed",
            "--lambda", "--beta", "--c-alpha", "--budget", "--target-f", "--tol-fun", "--tol-x",
            "--sigma0", "--m0", "--noise-level", "--condition", "--restarts", "--out", "--workers",
            "--no-timestamp"]


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


class TestConsoleScript:
    @pytest.mark.parametrize(
        "argv, problems, limited",
        [
            (["--sigma0", "nan", "--seeds", "0", "--n", "2"],
             ["sigma0 must be positive and finite, got nan"], False),
            (["--seeds", "-1", "--n", "2"], ["seed must be an integer >= 0, got -1"], False),
            (["--restarts", "-1", "--n", "2"],
             ["max_restarts must be an integer >= 0, got -1"], False),
            (["--n", "2,2", "--lambda", "1", "--seeds", "0"],
             ["dimension grid entries must be distinct, got (2, 2)",
              "lam must be an integer >= 2, got 1"], False),
            # the problems were once split back out of the library's message on "; ", which
            # listed the controller problem cut short at "got 'x"
            (["--objective", "a; b", "--controller", "x; b", "--n", "2", "--seeds", "0"],
             [f"objective kind must be one of {OBJECTIVE_KINDS}, got 'a; b'",
              f"controller must be one of {tuple(CONTROLLERS)}, got 'x; b'"], False),
            # judging 2**62 once built the n-vector of m0, and numpy's "array is too big" hid
            # the lam problem
            (["--n", str(2**62), "--lambda", "1", "--seeds", "0"],
             [f"n must be at most {MAX_ENTRIES}, got {2**62}",
              "lam must be an integer >= 2, got 1"], False),
            # judging lam once built its recombination weights, which ran out of memory under
            # a 1 GiB address space
            (["--lambda", "1000000000", "--budget", "-1", "--n", "2", "--seeds", "0"],
             ["max_evals must be an integer >= 0, got -1"], True),
        ],
        ids=["sigma0-nan", "seed-negative", "restarts-negative", "n-repeated-lambda",
             "separator", "huge-n-lambda", "lambda-billions-in-1GiB"],
    )
    def test_a_bad_setting_exits_2_listing_its_problems_before_any_run(
            self, argv, problems, limited, tmp_path):
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
                   PYTHONPATH=os.pathsep.join([str(Path(tpcma.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "tpcma.cli", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=limit_address_space if limited else None)
        assert (done.returncode, done.stderr, done.stdout) == (
            2, "error: " + "; ".join(problems) + "\n", "")
        assert not out.exists()
