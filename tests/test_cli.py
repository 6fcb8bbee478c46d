"""End-to-end runs of the command-line front end against tiny configs."""

import copy
import csv
import dataclasses
import glob
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlqw
from nlqw import (
    RotationPowerCoin,
    cli,
    delta_state,
    evolution,
    evolve,
    load_state_csv,
    lp_norm,
    soliton_amplitude,
)
from nlqw._schema import Schema, config_schema
from nlqw.cli import main

R = 1.0 / math.sqrt(2.0)
HADAMARD_COIN = {"family": "constant", "a": [R, 0.0], "b": [R, 0.0]}
QUINTIC_COIN = {
    "family": "quintic_exponential",
    "a1": [[0.0, 0.0], [0.3, 0.0], [0.3, 0.0], [0.0, 0.0]],
    "a2": [[0.2, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.2, 0.0]],
    "c0": {"a": [R, 0.0], "b": [R, 0.0]},
}
ZERO_QUINTIC_COIN = {
    "family": "quintic_exponential",
    "a1": [[0.0, 0.0]] * 4,
    "a2": [[0.0, 0.0]] * 4,
    "c0": {"a": [R, 0.0], "b": [R, 0.0]},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, tmp_path, cfg, *extra, out_name="out"):
    out = tmp_path / out_name
    code = main(
        [command, "--config", write_config(tmp_path, cfg), "--out", str(out)]
        + list(extra)
    )
    summary = None
    summary_path = out / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
    return code, out, summary


def no_walk(*args, **kwargs):
    raise AssertionError("a walk ran")


@pytest.fixture
def walks(monkeypatch):
    """One entry per evolution.walk call, the engine's one step loop."""
    calls = []
    walk = evolution.walk

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return walk(*args, **kwargs)

    monkeypatch.setattr(evolution, "walk", counted)
    return calls


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigValidation:
    def test_unknown_key_is_rejected_with_location(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "bogus": 3}
        code, _, _ = run("simulate", tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert "nlqw:" in err
        assert "at (root)" in err

    def test_dropped_decaying_tolerance_key_is_rejected(self, tmp_path, capsys):
        table1 = {"steps": 10, "decaying_tolerance": 0.1}
        cfg = {"schema_version": 1, "table1": table1}
        code, _, _ = run("table1", tmp_path, cfg)
        assert code == 2
        assert "at table1" in capsys.readouterr().err

    def test_wrong_schema_version_is_rejected(self, tmp_path, capsys):
        cfg = {"schema_version": 2, "coin": HADAMARD_COIN}
        code, _, _ = run("simulate", tmp_path, cfg)
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    def test_nested_violation_is_located(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "coin": HADAMARD_COIN,
            "record": {"lp": [-2.0]},
        }
        code, _, _ = run("simulate", tmp_path, cfg)
        assert code == 2
        assert "at record/lp/0" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_set_flag(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "coin": HADAMARD_COIN}
        code, _, _ = run("simulate", tmp_path, cfg, "--set", "steps")
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "g, sets",
        [
            (float("nan"), []),
            (float("inf"), []),
            (-0.8, ["--set", "coin.g=NaN"]),
            (-0.8, ["--set", "coin.g=-Infinity"]),
            (-0.8, ["--set", "coin.g=1e999"]),
        ],
    )
    def test_non_finite_numbers_are_rejected_before_any_step(
        self, tmp_path, capsys, g, sets
    ):
        cfg = {
            "schema_version": 1,
            "coin": {"family": "rotation_power", "theta0": 0.7, "g": g, "p": 2},
        }
        code, out, _ = run("simulate", tmp_path, cfg, *sets)
        assert code == 2
        assert "non-finite number at coin/g" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, sets",
        [
            ("coin/g", ["--set", "coin.g=1" + "0" * 400]),
            ("initial/scale", ["--set", "initial.scale=-1" + "0" * 400]),
            ("table1/cells/0/g", ["--set", 'table1.cells=[{"p": 1, "g": 1%s}]' % ("0" * 400)]),
        ],
    )
    def test_integers_beyond_the_float_range_are_rejected(
        self, tmp_path, capsys, where, sets
    ):
        cfg = {"schema_version": 1, "coin": {"family": "galton", "g": 0.5}}
        code, out, _ = run("table1" if "table1" in where else "simulate", tmp_path, cfg, *sets)
        assert code == 2
        assert capsys.readouterr().err == f"nlqw: config rejected: non-finite number at {where}\n"
        assert not out.exists()

    def test_out_naming_a_file_is_a_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        cfg = {"schema_version": 1, "coin": HADAMARD_COIN, "steps": 2}
        code = main(
            ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(blocker)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("nlqw: ") and "Traceback" not in err

    def test_out_of_memory_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        def evolve_without_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.5 TiB for an array")

        monkeypatch.setattr(cli, "evolve", evolve_without_memory)
        cfg = {"schema_version": 1, "coin": HADAMARD_COIN, "steps": 2}
        code, _, _ = run("simulate", tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "nlqw: out of memory: Unable to allocate 1.5 TiB for an array\n"

    def test_refusal_keeps_an_existing_out_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        cfg = {"schema_version": 1, "initial": {"kind": "delta", "scale": 0}}
        code, _, _ = run("decay", tmp_path, cfg)
        assert code == 2
        assert out.is_dir()

    def test_refusal_removes_every_directory_it_created(self, tmp_path, capsys):
        (tmp_path / "kept").mkdir()
        cfg = {
            "schema_version": 1,
            "decay": {
                "t_min": 3000,
                "t_max": 3000,
                "runs": [{"label": "x", "coin": HADAMARD_COIN}],
            },
        }
        for out_name in ("a/b/c", "kept/d/e"):
            code, _, _ = run("decay", tmp_path, cfg, out_name=out_name)
            assert code == 2
        assert "must be below decay.t_max" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "kept"]
        assert os.listdir(tmp_path / "kept") == []

    @pytest.mark.parametrize(
        "section, value, named",
        [
            ("coin", {"family": "galton"}, "at coin: 'g' is a required property"),
            (
                "coin",
                {"family": "rotation_power", "theta0": 0.1, "g": 0.5, "p": 0},
                "at coin/p: 0 is less than the minimum of 1",
            ),
            ("coin", {"family": "thirring", "g": 1.0, "theta": "x"}, "at coin/theta: 'x' is not"),
            (
                "coin",
                {**QUINTIC_COIN, "c0": {"a": [R, 0.0]}},
                "at coin/c0: 'b' is a required property",
            ),
            ("coin", {"family": "parrondo"}, "'family' must be one of ['constant', "),
            ("initial", {"kind": "csv"}, "at initial: 'path' is a required property"),
            ("initial", {"kind": "delta", "component": 3}, "at initial/component: 3 is not one of"),
            ("initial", {"kind": "delta", "site": 0.5}, "at initial/site: 0.5 is not of type"),
            ("initial", {"kind": "bogus"}, "'kind' must be one of ['delta', 'csv']"),
        ],
        ids=["missing", "bound", "type", "nested", "family", "csv", "enum", "site", "kind"],
    )
    def test_bad_coin_or_initial_names_the_key(
        self, tmp_path, capsys, monkeypatch, section, value, named
    ):
        monkeypatch.setattr(cli, "evolve", no_walk)
        cfg = {"schema_version": 1, "coin": HADAMARD_COIN, "steps": 2, section: value}
        code, out, _ = run("simulate", tmp_path, cfg)
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_decay_without_its_section(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "initial": {"kind": "delta", "component": 1}}
        code, _, _ = run("decay", tmp_path, cfg)
        assert code == 2
        assert "decay" in capsys.readouterr().err

    def test_shipped_configs_validate(self):
        from nlqw.cli import _load_config

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        paths = sorted(glob.glob(os.path.join(root, "*.json")))
        assert len(paths) == 8
        for path in paths:
            cfg = _load_config(path, [])
            assert cfg["schema_version"] == 1


class TestSimulate:
    def soliton_cfg(self, steps=60):
        a = soliton_amplitude(-0.8, 2)
        return {
            "schema_version": 1,
            "coin": {
                "family": "rotation_power",
                "theta0": math.pi / 4.0,
                "g": -0.8,
                "p": 2,
            },
            "initial": {
                "kind": "delta",
                "component": 1,
                "site": 0,
                "scale": [a, 0.0],
            },
            "steps": steps,
            "record": {"argmax": True, "snapshots": [0, steps // 2]},
        }

    def test_traveling_peak_series_and_files(self, tmp_path):
        code, out, summary = run("simulate", tmp_path, self.soliton_cfg())
        assert code == 0
        assert summary["ok"]
        assert summary["steps"] == 60
        for name in (
            "series_sup_norm.csv",
            "series_argmax.csv",
            "snapshot_t0.csv",
            "snapshot_t30.csv",
            "final_state.csv",
        ):
            assert name in summary["files"]
            assert (out / name).exists()
        header, rows = read_csv(out / "series_argmax.csv")
        assert header == ["t", "x"]
        assert [(int(t), int(x)) for t, x in rows] == [(t, -t) for t in range(61)]
        header, rows = read_csv(out / "series_sup_norm.csv")
        assert header == ["t", "value"]
        values = np.array([float(v) for _, v in rows])
        assert np.max(np.abs(values - values[0])) <= 1e-10

    def test_snapshot_states_round_trip(self, tmp_path):
        from nlqw import argmax_position

        _, out, _ = run("simulate", tmp_path, self.soliton_cfg())
        snap = load_state_csv(str(out / "snapshot_t30.csv"))
        assert argmax_position(snap) == -30

    def test_threshold_trace_file(self, tmp_path):
        cfg = self.soliton_cfg()
        cfg["record"] = {"threshold": {"component": 1, "gamma": 0.1}}
        code, out, summary = run("simulate", tmp_path, cfg)
        assert code == 0
        header, rows = read_csv(out / "threshold_trace.csv")
        assert header == ["t", "x"]
        assert [(int(t), int(x)) for t, x in rows] == [
            (t, -t) for t in range(61)
        ]

    def test_snapshot_beyond_the_run_is_rejected(self, tmp_path, capsys):
        cfg = self.soliton_cfg(steps=50)
        cfg["record"]["snapshots"] = [0, 70]
        code, _, summary = run("simulate", tmp_path, cfg)
        assert code == 2
        assert summary is None
        assert "snapshot time 70" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("record.lp=[2,2]", "at record/lp: [2, 2] has non-unique elements"),
            ("record.lp=[0.5]", "at record/lp/0: 0.5 is less than the minimum of 1"),
            ("record.weak_lp=[0.5]", "at record/weak_lp/0: 0.5 is less than the minimum of 1"),
            ("record.lp=[2,2.0000001]", "repeated series keys ['lp_2', 'lp_2']"),
            ("record.weak_lp=[4,4.0000001]", "repeated series keys ['weak_lp_4', 'weak_lp_4']"),
        ],
        ids=["lp-repeated", "lp-below-1", "weak-below-1", "lp-same-key", "weak-same-key"],
    )
    def test_exponents_that_cannot_be_keyed_are_rejected_before_any_walk(
        self, tmp_path, capsys, monkeypatch, assignment, message
    ):
        monkeypatch.setattr(cli, "evolve", no_walk)
        code, out, _ = run("simulate", tmp_path, self.soliton_cfg(), "--set", assignment)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_set_flag_overrides_the_file(self, tmp_path):
        code, _, summary = run(
            "simulate", tmp_path, self.soliton_cfg(), "--set", "steps=40"
        )
        assert code == 0
        assert summary["steps"] == 40

    def test_zero_steps_echoes_the_initial_state(self, tmp_path):
        from nlqw import delta_state, l2_distance, save_state_csv, scaled

        u0 = scaled(delta_state(1, 2), 0.5 + 0.25j)
        src = tmp_path / "initial.csv"
        save_state_csv(u0, str(src))
        cfg = {
            "schema_version": 1,
            "coin": HADAMARD_COIN,
            "initial": {"kind": "csv", "path": str(src)},
            "steps": 0,
        }
        code, out, _ = run("simulate", tmp_path, cfg)
        assert code == 0
        assert l2_distance(load_state_csv(str(out / "final_state.csv")), u0) == 0.0

    def test_identical_configs_write_identical_bytes(self, tmp_path):
        _, out1, _ = run("simulate", tmp_path, self.soliton_cfg(), out_name="a")
        _, out2, _ = run("simulate", tmp_path, self.soliton_cfg(), out_name="b")
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_integral_float_p_runs_as_the_integer(self, tmp_path):
        # the schema types p as an integer, which admits 2.0; the resolved
        # config hands the coin the int 2
        outs = []
        for p in ("2.0", "2"):
            out = tmp_path / f"p{p}"
            sets = [f"coin.p={p}", "steps=40", "record.snapshots=[0,40]"]
            argv = ["simulate", "--config", os.path.join(CONFIGS, "soliton.json")]
            code = main(argv + ["--out", str(out)] + [a for s in sets for a in ("--set", s)])
            assert code == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outs[0] == outs[1]

    def test_gnuplot_script_references_the_series(self, tmp_path):
        cfg = self.soliton_cfg(steps=10)
        cfg["output"] = {"gnuplot": True}
        code, out, summary = run("simulate", tmp_path, cfg)
        assert code == 0
        assert "plot.gp" in summary["files"]
        script = (out / "plot.gp").read_text()
        assert "set datafile separator ','" in script
        assert "series_sup_norm.csv" in script


class TestTable1:
    def test_small_grid_matches_and_flags_decay(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "table1": {
                "steps": 300,
                "tolerance": 0.01,
                "cells": [{"p": 1, "g": 0.8}, {"p": 2, "g": 1.0}],
            },
        }
        code, out, summary = run("table1", tmp_path, cfg)
        assert code == 0
        assert summary["ok"]
        cells = summary["cells"]
        assert cells[0]["matches_theory"]
        assert cells[0]["theory"] == pytest.approx(
            soliton_amplitude(0.8, 1), abs=1e-12
        )
        assert cells[1]["decaying"]
        assert not cells[1]["matches_theory"]
        header, rows = read_csv(out / "table1.csv")
        assert header == [
            "p",
            "g",
            "theory",
            "measured",
            "abs_error",
            "matches_theory",
            "decaying",
        ]
        assert len(rows) == 2

    def test_serial_pool_gives_the_same_answer(self, tmp_path, monkeypatch):
        cfg = {
            "schema_version": 1,
            "table1": {"steps": 200, "cells": [{"p": 1, "g": -0.8}]},
        }
        monkeypatch.setenv("NLQW_THREADS", "1")
        _, _, serial = run("table1", tmp_path, cfg, out_name="serial")
        monkeypatch.setenv("NLQW_THREADS", "4")
        _, _, pooled = run("table1", tmp_path, cfg, out_name="pooled")
        assert serial["cells"] == pooled["cells"]

    def test_output_ignores_nlqw_threads(self, tmp_path, monkeypatch):
        cfg = {
            "schema_version": 1,
            "table1": {
                "steps": 200,
                "cells": [{"p": 1, "g": -0.8}, {"p": 2, "g": 0.8}],
            },
        }
        outputs = []
        for value in (None, "1", "0", "abc"):
            if value is None:
                monkeypatch.delenv("NLQW_THREADS", raising=False)
            else:
                monkeypatch.setenv("NLQW_THREADS", value)
            code, out, _ = run("table1", tmp_path, cfg, out_name=f"out_{value}")
            outputs.append((code, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert all(o == outputs[0] for o in outputs[1:])

    def test_check_names_use_the_short_repr(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "table1": {
                "steps": 10,
                "cells": [{"p": 1, "g": 0.8}, {"p": 2, "g": -1.0}],
            },
        }
        _, out, summary = run("table1", tmp_path, cfg)
        names = [c["name"] for c in summary["checks"]]
        assert names == ["cell_p1_g0.8", "cell_p2_g-1.0"]
        _, rows = read_csv(out / "table1.csv")
        assert rows[0][1] == "0.80000000000000004"

    def test_interleaved_p_gives_the_lone_walk_bytes(self, tmp_path, walks, monkeypatch):
        cells = [(1, 0.8), (2, -0.8), (1, -1.0), (3, 0.9), (2, 1.0), (1, -0.8), (3, -1.2)]
        cfg = {
            "schema_version": 1,
            "table1": {"steps": 300, "cells": [{"p": p, "g": g} for p, g in cells]},
        }
        code, out, summary = run("table1", tmp_path, cfg, out_name="lockstep")
        assert code in (0, 1)
        assert walks == [3, 2, 2]  # one lockstep batch per p
        # a budget too small for two runs walks every cell alone
        monkeypatch.setattr(evolution, "_LOCKSTEP_BYTES", 0)
        _, lone, _ = run("table1", tmp_path, cfg, out_name="lone")
        assert walks[3:] == [1] * len(cells)
        assert {f.name: f.read_bytes() for f in out.iterdir()} == {
            f.name: f.read_bytes() for f in lone.iterdir()
        }
        for (p, g), cell in zip(cells, summary["cells"]):
            final = evolve(delta_state(1, 0), RotationPowerCoin(math.pi / 4, g, p), 300).final
            assert (cell["p"], cell["g"]) == (p, g)
            assert cell["measured"] == float(lp_norm(final, np.inf))

    def test_repeated_cell_is_rejected_before_any_walk(self, tmp_path, capsys, walks):
        cfg = {
            "schema_version": 1,
            "table1": {"steps": 10, "cells": [{"p": 1, "g": 0.8}, {"g": 0.8, "p": 1.0}]},
        }
        code, out, _ = run("table1", tmp_path, cfg)
        assert code == 2
        assert "at table1/cells: " in capsys.readouterr().err
        assert not out.exists()
        assert walks == []

    def test_zero_coupling_cell_is_rejected_before_any_walk(self, tmp_path, capsys, walks):
        cfg = {
            "schema_version": 1,
            "table1": {"steps": 10, "cells": [{"p": 1, "g": 0.8}, {"p": 2, "g": -0.0}]},
        }
        code, out, _ = run("table1", tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            "nlqw: at table1/cells/1/g: table1 cells need g != 0\n"
        )
        assert not out.exists()
        assert walks == []


class TestDecay:
    def test_linear_fit_and_artifacts(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "decay": {
                "t_min": 300,
                "t_max": 3000,
                "runs": [
                    {
                        "label": "linear",
                        "coin": HADAMARD_COIN,
                        "expect": {"slope": -1.0 / 3.0, "slope_tol": 0.1},
                    }
                ],
            },
        }
        code, out, summary = run("decay", tmp_path, cfg)
        assert code == 0
        assert summary["ok"]
        fit = json.loads((out / "fit_linear.json").read_text())
        assert set(fit) == {"slope", "intercept", "t_min", "t_max"}
        assert fit["slope"] == pytest.approx(-1.0 / 3.0, abs=0.1)
        header, rows = read_csv(out / "decay_linear.csv")
        assert header == ["t", "value"]
        assert int(rows[0][0]) == 1 and int(rows[-1][0]) == 3000

    def test_duplicate_labels_are_rejected(self, tmp_path, capsys):
        run_spec = {"label": "x", "coin": HADAMARD_COIN}
        cfg = {
            "schema_version": 1,
            "decay": {
                "t_min": 10,
                "t_max": 50,
                "runs": [run_spec, dict(run_spec)],
            },
        }
        code, _, _ = run("decay", tmp_path, cfg)
        assert code == 2
        assert "unique" in capsys.readouterr().err

    def test_removed_steps_key_is_rejected(self, tmp_path, capsys, monkeypatch):
        # a decay run is t_max steps long
        monkeypatch.setattr(cli, "evolve", no_walk)
        cfg = {
            "schema_version": 1,
            "decay": {
                "steps": 50,
                "t_min": 10,
                "t_max": 50,
                "runs": [{"label": "x", "coin": HADAMARD_COIN}],
            },
        }
        code, out, _ = run("decay", tmp_path, cfg)
        assert code == 2
        assert "at decay: Additional properties are not allowed ('steps' was unexpected)" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("t_min, t_max", [(20000, 8000), (3000, 3000)])
    def test_empty_fit_window_is_rejected_before_any_walk(
        self, tmp_path, capsys, monkeypatch, t_min, t_max
    ):
        monkeypatch.setattr(cli, "evolve", no_walk)
        cfg = {
            "schema_version": 1,
            "decay": {
                "t_min": t_min,
                "t_max": t_max,
                "runs": [{"label": "x", "coin": HADAMARD_COIN}],
            },
        }
        code, out, summary = run("decay", tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            f"nlqw: decay.t_min ({t_min}) must be below decay.t_max ({t_max})\n"
        )
        assert summary is None
        assert not out.exists()

    def test_zero_state_is_rejected_before_any_walk(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "evolve", no_walk)
        cfg = {
            "schema_version": 1,
            "initial": {"kind": "delta", "scale": 0},
            "decay": {
                "t_min": 10,
                "t_max": 50,
                "runs": [{"label": "x", "coin": HADAMARD_COIN}],
            },
        }
        code, out, summary = run("decay", tmp_path, cfg)
        assert code == 2
        assert "nlqw: initial: " in capsys.readouterr().err
        assert summary is None
        assert not out.exists()

    def test_overflowing_state_exits_two_at_the_step(self, tmp_path, capsys):
        # the nonlinear coin squares the amplitude, 1e400; no traceback, and
        # the decay run that did walk leaves no files
        cfg = {
            "schema_version": 1,
            "initial": {"kind": "delta", "scale": 1e200},
            "decay": {
                "t_min": 2,
                "t_max": 20,
                "runs": [
                    {"label": "linear", "coin": HADAMARD_COIN},
                    {
                        "label": "p1",
                        "coin": {
                            "family": "rotation_power", "theta0": math.pi / 4, "g": 0.2, "p": 1
                        },
                    },
                ],
            },
        }
        code, out, _ = run("decay", tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            "nlqw: overflow or invalid value in step 1 at site 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_linear_fit_is_scale_free(self, tmp_path, scale):
        # decay needs only ||u0|| > 0, not its square
        def fit_at(scale):
            cfg = {
                "schema_version": 1,
                "initial": {"kind": "delta", "scale": scale},
                "decay": {
                    "t_min": 20,
                    "t_max": 200,
                    "runs": [{"label": "linear", "coin": HADAMARD_COIN}],
                },
            }
            code, _, summary = run("decay", tmp_path, cfg, out_name=f"out{scale}")
            assert code == 0
            return summary["fits"]["linear"]

        unit, other = fit_at(1), fit_at(scale)
        assert other["slope"] == pytest.approx(unit["slope"], rel=1e-9)
        assert other["intercept"] - unit["intercept"] == pytest.approx(
            math.log10(scale), rel=1e-12
        )


class TestWeakLimit:
    def cfg(self, **overrides):
        base = {
            "schema_version": 1,
            "coin": HADAMARD_COIN,
            "weak_limit": {
                "time": 600,
                "grid_points": 501,
                "ks_threshold": 0.06,
                "mass_tolerance": 1e-4,
            },
        }
        base["weak_limit"].update(overrides)
        return base

    def test_empirical_law_matches_the_limit(self, tmp_path):
        code, out, summary = run("weak-limit", tmp_path, self.cfg())
        assert code == 0
        assert summary["ok"]
        assert summary["kolmogorov_distance"] <= 0.06
        assert summary["density_mass"] == pytest.approx(1.0, abs=1e-4)
        assert read_csv(out / "density.csv")[0] == ["v", "density"]
        assert read_csv(out / "empirical_cdf.csv")[0] == ["v", "cdf"]
        assert read_csv(out / "theory_cdf.csv")[0] == ["v", "cdf"]

    def test_failed_threshold_sets_exit_one(self, tmp_path, capsys):
        code, _, summary = run(
            "weak-limit", tmp_path, self.cfg(ks_threshold=1e-6)
        )
        assert code == 1
        assert not summary["ok"]
        assert "checks failed: kolmogorov" in capsys.readouterr().err

    def test_time_beyond_the_bound_is_rejected_before_any_step(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "evolve", no_walk)
        code, out, _ = run("weak-limit", tmp_path, self.cfg(time=10**6 + 1))
        assert code == 2
        assert "at weak_limit/time: 1000001 is greater than the maximum" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("scale", [3, 0.01])
    def test_checks_do_not_scale_with_the_packet_mass(self, tmp_path, scale):
        def summary_at(scale):
            cfg = self.cfg(time=1000)
            cfg["initial"] = {"kind": "delta", "scale": scale}
            _, _, summary = run("weak-limit", tmp_path, cfg, out_name=f"out{scale}")
            return summary

        unit, other = summary_at(1), summary_at(scale)
        assert other["kolmogorov_distance"] == pytest.approx(
            unit["kolmogorov_distance"], rel=1e-12
        )
        assert [c["passed"] for c in other["checks"]] == [
            c["passed"] for c in unit["checks"]
        ]

    @pytest.mark.parametrize("scale, error, passed", [(3, 5e-5, True), (0.01, 2e-4, False)])
    def test_mass_tolerance_is_relative_to_the_packet_mass(
        self, tmp_path, monkeypatch, scale, error, passed
    ):
        # the density's mass is put off by `error` relative to ||u0||^2, which
        # is 4.5e-4 absolute at scale 3 and 2e-8 at scale 0.01, against a
        # mass_tolerance of 1e-4
        real = cli.weak_limit_density

        def off(*args):
            curve = real(*args)
            return dataclasses.replace(curve, total_mass=curve.total_mass * (1 + error))

        monkeypatch.setattr(cli, "weak_limit_density", off)
        cfg = self.cfg(time=200)
        cfg["initial"] = {"kind": "delta", "scale": scale}
        _, _, summary = run("weak-limit", tmp_path, cfg)
        assert summary["checks"][1]["name"] == "density_mass"
        assert summary["checks"][1]["passed"] is passed

    @pytest.mark.parametrize("initial", ["delta", "csv"])
    def test_zero_state_is_rejected_before_any_walk(
        self, tmp_path, capsys, monkeypatch, initial
    ):
        monkeypatch.setattr(cli, "evolve", no_walk)
        cfg = self.cfg(time=1000)
        if initial == "delta":
            cfg["initial"] = {"kind": "delta", "scale": 0}
        else:
            packet = tmp_path / "packet.csv"
            packet.write_text("x,re_u1,im_u1,re_u2,im_u2\n0,0,0,0,0\n1,0,0,0,0\n")
            cfg["initial"] = {"kind": "csv", "path": str(packet)}
        code, out, summary = run("weak-limit", tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            "nlqw: initial: the initial state has zero l2 norm\n"
        )
        assert summary is None
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-170])
    def test_mass_outside_the_normal_range_is_rejected_before_any_walk(
        self, tmp_path, capsys, monkeypatch, scale
    ):
        # ||u0||^2 overflows at 1e200, is subnormal at 1e-160 and 0 at 1e-170
        monkeypatch.setattr(cli, "evolve", no_walk)
        cfg = self.cfg(time=1)
        cfg["initial"] = {"kind": "delta", "scale": scale}
        code, out, summary = run("weak-limit", tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            f"nlqw: initial: ||u0||^2 = {scale:g}^2 is not a positive normal double\n"
        )
        assert summary is None
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_checks_hold_across_the_normal_mass_range(self, tmp_path, scale):
        def summary_at(scale):
            cfg = self.cfg(time=200, ks_threshold=0.1)
            cfg["initial"] = {"kind": "delta", "scale": scale}
            code, _, summary = run("weak-limit", tmp_path, cfg, out_name=f"out{scale}")
            assert code == 0
            return summary

        unit, other = summary_at(1), summary_at(scale)
        assert abs(other["kolmogorov_distance"] - unit["kolmogorov_distance"]) <= 1e-15
        assert other["density_mass"] == pytest.approx(scale * scale, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("site,a,b,c,d\n0,1,0,0,0\n", 1, "unexpected state CSV header 'site,a,b,c,d'"),
            ("{h}\n0,1,0,0,0\n1,0,0,0\n", 3, "expected 5 fields, got 4: '1,0,0,0'"),
            ("{h}\n0,1,0,0,0\n1.5,0,0,0,0\n", 3, "site '1.5' is not an integer"),
            ("{h}\n0,1,0,0,0\n\n1,0,nan,0,0\n", 4, "im_u1 'nan' is not a finite number"),
            ("{h}\n0,0.6,0,0,0\n1,0,0,0.8,0\n3,0,0,0,0\n", 4, "site 3 does not follow site 1"),
            ("{h}\n0,1,0,0,0\n1,0,\u0663,0,0\n", 3, "im_u1 '\ufffd\ufffd' is not a finite number"),
        ],
        ids=["header", "fields", "site", "finite", "gap", "ascii"],
    )
    def test_bad_packet_csv_names_the_file_and_line(
        self, tmp_path, capsys, text, line, reason
    ):
        packet = tmp_path / "packet.csv"
        packet.write_text(text.format(h="x,re_u1,im_u1,re_u2,im_u2"), encoding="utf-8")
        cfg = self.cfg()
        cfg["initial"] = {"kind": "csv", "path": str(packet)}
        code, out, _ = run("weak-limit", tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"nlqw: {packet}:{line}: {reason}")
        assert not out.exists()

    def test_needs_a_constant_coin(self, tmp_path, capsys):
        cfg = self.cfg()
        cfg["coin"] = {"family": "galton", "g": 0.5}
        code, _, _ = run("weak-limit", tmp_path, cfg)
        assert code == 2
        assert "constant coin" in capsys.readouterr().err


class TestScatter:
    def cfg(self):
        return {
            "schema_version": 1,
            "coin": QUINTIC_COIN,
            "initial": {
                "kind": "delta",
                "component": 1,
                "site": 0,
                "scale": [0.1, 0.0],
            },
            "scatter": {
                "horizon": 200,
                "tolerance": 1e-3,
                "defect_times": [50, 150],
            },
        }

    def test_converged_report_and_csv(self, tmp_path):
        code, out, summary = run("scatter", tmp_path, self.cfg())
        assert code == 0
        assert summary["converged"]
        assert set(summary["defects"]) == {"50", "150"}
        assert summary["defects"]["150"] < summary["defects"]["50"]
        header, rows = read_csv(out / "scattering.csv")
        assert header == ["t", "tail_norm", "defect"]
        assert len(rows) == 201
        assert rows[50][2] != "" and rows[51][2] == ""
        assert load_state_csv(str(out / "u_plus.csv")) is not None

    def test_unreachable_tolerance_sets_exit_one(self, tmp_path, capsys):
        cfg = self.cfg()
        cfg["scatter"]["tolerance"] = 1e-15
        code, _, summary = run("scatter", tmp_path, cfg)
        assert code == 1
        assert not summary["converged"]
        assert "checks failed: converged" in capsys.readouterr().err


class TestRecover:
    def test_ladder_report_structure(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "coin": QUINTIC_COIN,
            "recover": {
                "lambdas": [0.2, 0.1],
                "t_max": 256,
                "order_threshold": 1.5,
                "ratio_bounds": [3.0, 30.0],
            },
        }
        code, out, summary = run("recover", tmp_path, cfg)
        assert code == 0
        assert summary["ok"]
        assert not summary["errors_all_zero"]
        rec = json.loads((out / "recovery.json").read_text())
        assert rec["lambdas"] == [0.2, 0.1]
        assert rec["fitted_order"] >= 1.5
        rung = rec["rungs"][0]
        assert len(rung["m1"]) == 2 and len(rung["m1"][0]) == 2
        assert len(rung["m1"][0][0]) == 2
        assert rung["error"] >= max(rung["error1"], rung["error2"]) - 1e-15
        header, rows = read_csv(out / "recovery_errors.csv")
        assert header == ["lambda", "error"]
        assert len(rows) == 2

    def test_zero_nonlinearity_reports_null_order(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "coin": ZERO_QUINTIC_COIN,
            "recover": {
                "lambdas": [0.2, 0.1],
                "t_max": 64,
                "order_threshold": 2.5,
            },
        }
        code, out, summary = run("recover", tmp_path, cfg)
        assert code == 0
        assert summary["errors_all_zero"]
        rec = json.loads((out / "recovery.json").read_text())
        assert rec["fitted_order"] is None
        assert all(e == 0.0 for e in summary["errors"])

    def test_rejects_families_without_recoverable_derivatives(
        self, tmp_path, capsys
    ):
        cfg = {
            "schema_version": 1,
            "coin": {"family": "galton", "g": 0.5},
            "recover": {"lambdas": [0.2, 0.1], "t_max": 64},
        }
        code, out, _ = run("recover", tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            "nlqw: squared-intensity derivatives exist only for the quintic "
            "exponential family\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("lambdas", ["[0.5,0.25]", "[0.2]"])
    def test_rejects_ladders_the_probes_cannot_run(self, tmp_path, capsys, lambdas):
        # 2*0.5 leaves the probe domain; one rung fits no error order
        cfg = {"schema_version": 1, "coin": QUINTIC_COIN}
        code, out, _ = run("recover", tmp_path, cfg, "--set", f"recover.lambdas={lambdas}")
        assert code == 2
        assert "at recover/lambdas" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_rungs_are_rejected_before_any_walk(self, tmp_path, capsys):
        # a line fitted through two coincident points has no order
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "recover.json")
        out = tmp_path / "out"
        argv = ["recover", "--config", config, "--out", str(out)]
        argv += ["--set", "recover.lambdas=[0.2,0.2]", "--set", "recover.t_max=16"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "at recover/lambdas: [0.2, 0.2] has non-unique elements" in err
        assert "Warning" not in err
        assert caught == []
        assert not out.exists()

    def test_inverted_ratio_bounds_are_rejected_before_any_walk(
        self, tmp_path, capsys, monkeypatch
    ):
        # no error ratio lies in [9, 1]
        monkeypatch.setattr(cli, "recovery_ladder", no_walk)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "recover.json")
        out = tmp_path / "out"
        argv = ["recover", "--config", config, "--out", str(out)]
        code = main(argv + ["--set", "recover.ratio_bounds=[9,1]"])
        assert code == 2
        assert capsys.readouterr().err == (
            "nlqw: recover.ratio_bounds: lower bound 9 exceeds upper bound 1\n"
        )
        assert not out.exists()

    def test_removed_exponent_variant_key_is_rejected(self, tmp_path, capsys):
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "recover.json")
        out = tmp_path / "out"
        argv = ["recover", "--config", config, "--out", str(out)]
        code = main(argv + ["--set", 'recover.exponent_variant="theorem"'])
        assert code == 2
        assert (
            "at recover: Additional properties are not allowed "
            "('exponent_variant' was unexpected)"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_schema_bounds_lambda_by_half_the_probe_domain(self):
        lambdas = config_schema().root["properties"]["recover"]["properties"]["lambdas"]
        assert lambdas["items"]["maximum"] == nlqw.scattering._PROBE_LAMBDA_MAX / 2


class TestNonFiniteGuard:
    """An overflowing walk stops at the step where it happens, with a clean
    error and without numpy's warnings."""

    def run_shipped(self, command, config, tmp_path, *sets):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", config)
        argv = [command, "--config", path, "--out", str(tmp_path / "out")]
        for s in sets:
            argv += ["--set", s]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv)

    def test_simulate_names_the_step(self, tmp_path, capsys):
        code = self.run_shipped(
            "simulate", "soliton.json", tmp_path, "initial.scale=1e200", "steps=3000"
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "in step 1 at site 0" in err
        assert "RuntimeWarning" not in err

    def test_quintic_series_names_the_step(self, tmp_path, capsys):
        code = self.run_shipped("scatter", "scatter.json", tmp_path, "initial.scale=1e200")
        err = capsys.readouterr().err
        assert code == 2
        assert "in step 1 at site 0" in err
        assert "RuntimeWarning" not in err


# ---------------------------------------------------------------------------
# the package's schema walker against jsonschema

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def shipped_configs():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.json")))
    configs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            configs.append(json.load(fh))
    return configs


def overlapping_schema():
    """The shipped schema with oneOf branches that overlap: a second galton
    branch for coins and an integer branch for initial.scale."""
    schema = copy.deepcopy(config_schema().root)
    coins = schema["$defs"]["coin"]["oneOf"]
    coins.append(copy.deepcopy(coins[1]))
    scale = schema["$defs"]["initial"]["oneOf"][0]["properties"]["scale"]
    scale["oneOf"].append({"type": "integer"})
    return schema


BAD_CONFIGS = [
    {"schema_version": 1, "bogus": 3},
    {"schema_version": 1, "table1": {"steps": 10, "decaying_tolerance": 0.1}},
    {"schema_version": 2, "coin": HADAMARD_COIN},
    {"schema_version": True},
    {"schema_version": 1, "initial": {"kind": "delta", "component": True}},
    {"schema_version": 1, "coin": HADAMARD_COIN, "record": {"lp": [-2.0]}},
    {"schema_version": 1, "record": {"lp": [0]}},
    {"schema_version": 1, "record": {"lp": [0.5], "weak_lp": [2, 2.0]}},
    {"schema_version": 1, "decay": {"steps": 10, "runs": []}},
    {"schema_version": 1, "steps": True},
    {"schema_version": 1, "steps": -1},
    {"schema_version": 1, "steps": -1.5},
    {"schema_version": 1, "coin": {"family": "bogus", "g": 1.0}},
    {"schema_version": 1, "coin": {"family": "thirring", "g": 1.0}},
    {"schema_version": 1, "coin": {"family": "galton", "g": 1, "theta": 0}},
    {"schema_version": 1, "initial": {"kind": "delta", "scale": [1, 2, 3]}},
    {"schema_version": 1, "initial": {"kind": "csv", "path": ""}},
    {"schema_version": 1, "decay": {"runs": [{"label": "a b", "coin": 3}]}},
    {"schema_version": 1, "recover": {"ratio_bounds": [1], "t_max": 10**5 + 1}},
    {"schema_version": 1, "recover": {"lambdas": [0.2, 0.1, 0.2]}},
    {"schema_version": 1, "recover": {"lambdas": [0.2, 0.2], "ratio_bounds": [3, 3]}},
    {"schema_version": 1, "weak_limit": {"time": 10**6 + 1}},
    [],
    "config",
]
# integral floats are integers, and equal the integers const and enum name
GOOD_CONFIGS = [
    {"schema_version": 1.0, "steps": 2.0, "weak_limit": {"time": 1e6}},
    {"schema_version": 1, "initial": {"kind": "delta", "component": 2.0}},
]
# valid, but each matches two branches of overlapping_schema's oneOf
OVERLAPPING_CONFIGS = [
    {"schema_version": 1, "coin": {"family": "galton", "g": 0.5}},
    {"schema_version": 1, "initial": {"kind": "delta", "scale": 2.0}},
]
KEYS = ["steps", "coin", "record", "family", "g", "p", "time", "lp", "kind", "bogus"]
VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, 2.0, -0.5, 2.5, 1e300, 10**5 + 1, 10**6 + 1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from(["constant", "galton", "delta", "csv", "theorem"]),
    st.lists(st.integers(0, 3), max_size=3),
    st.just({}),
    st.sampled_from([HADAMARD_COIN, QUINTIC_COIN, {"family": "galton", "g": 1}]),
)


def node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from node_paths(value, path + (key,))


def mutate(data, cfg):
    """One drawn change to cfg: a node replaced or deleted, or a key added."""
    path = data.draw(st.sampled_from(list(node_paths(cfg))))
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    parent, node = None, cfg
    for key in path:
        parent, node = node, node[key]
    if action == "replace":
        value = copy.deepcopy(data.draw(VALUES))
        if parent is None:
            return value
        parent[path[-1]] = value
    elif action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = copy.deepcopy(data.draw(VALUES))
    return cfg


def error_paths(schema, cfg):
    """Sorted error paths of cfg under schema from both validators."""
    jsonschema = pytest.importorskip("jsonschema")
    theirs = jsonschema.Draft202012Validator(schema).iter_errors(cfg)
    ours = [path for path, _ in Schema(schema).errors(cfg)]
    return ours, sorted(tuple(e.absolute_path) for e in theirs)


class TestSchemaWalker:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_shipped_and_bad_configs_agree_with_jsonschema(self, overlap):
        schema = overlapping_schema() if overlap else config_schema().root
        for cfg in shipped_configs() + GOOD_CONFIGS:
            ours, theirs = error_paths(schema, cfg)
            assert ours == theirs
            assert overlap or ours == []
        for cfg in BAD_CONFIGS:
            ours, theirs = error_paths(schema, cfg)
            assert ours == theirs and ours, cfg
        for cfg in OVERLAPPING_CONFIGS:
            ours, theirs = error_paths(schema, cfg)
            assert ours == theirs and bool(ours) == overlap, cfg

    @pytest.mark.parametrize("overlap", [False, True])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_configs_agree_with_jsonschema(self, overlap, data):
        schema = overlapping_schema() if overlap else config_schema().root
        cfg = copy.deepcopy(data.draw(st.sampled_from(shipped_configs())))
        for _ in range(data.draw(st.integers(1, 3))):
            cfg = mutate(data, cfg)
        ours, theirs = error_paths(schema, cfg)
        assert ours == theirs

    @pytest.mark.parametrize(
        "items",
        [
            [0.2, 0.2],
            [1, 1.0],
            [True, 1],
            [False, 0, None],
            [[1, [2]], [1.0, [2.0]]],
            [[True], [1]],
            [{"a": 1, "b": [0]}, {"b": [0.0], "a": 1}],
            [{"a": 1}, {"a": 1, "b": 2}],
            ["x", "y", "x"],
            [],
        ],
    )
    def test_unique_items_agrees_with_jsonschema(self, items):
        jsonschema = pytest.importorskip("jsonschema")
        schema = {"type": "array", "uniqueItems": True}
        theirs = [e.message for e in jsonschema.Draft202012Validator(schema).iter_errors(items)]
        ours = [message for _, message in Schema(schema).errors(items)]
        assert ours == theirs

    @pytest.mark.parametrize(
        "where, keyword, value",
        [
            (("properties", "recover", "properties", "ratio_bounds"), "contains", {}),
            (("$defs", "complex_pair"), "prefixItems", [{"type": "number"}]),
            (("properties", "record"), "additionalProperties", {"type": "number"}),
            (("properties", "steps"), "$ref", "other.json#/$defs/walk_steps"),
            (("properties", "output", "properties", "gnuplot"), "type", "null"),
            # a default must pass its own subschema
            (("properties", "weak_limit", "properties", "time"), "default", 0),
            (("$defs", "initial", "oneOf", 0, "properties", "component"), "default", 3),
            (("properties", "record"), "default", {"argmax": 1}),
            (("properties", "initial"), "default", {"kind": "delta", "site": 0.5}),
            (("properties", "table1", "properties", "cells"), "default", []),
        ],
    )
    def test_unimplemented_schema_keywords_are_refused(self, where, keyword, value):
        schema = copy.deepcopy(config_schema().root)
        node = schema
        for key in where:
            node = node[key]
        node[keyword] = value
        with pytest.raises(ValueError, match="config schema"):
            Schema(schema)

    def test_defaults_of_an_empty_config(self):
        # every default a command reads, in one place
        assert config_schema().resolve({"schema_version": 1}) == {
            "schema_version": 1,
            "initial": {"kind": "delta", "component": 1, "site": 0},
            "steps": 100,
            "record": {
                "sup_norm": True,
                "lp": [],
                "weak_lp": [],
                "argmax": False,
                "snapshots": [],
                "final_state": True,
            },
            "output": {"gnuplot": False},
            "table1": {
                "steps": 10000,
                "tolerance": 5e-4,
                "cells": [
                    {"p": p, "g": g} for p in (1, 2) for g in (0.8, -0.8, 1.0, -1.0)
                ],
            },
            "weak_limit": {
                "time": 5000,
                "grid_points": 2001,
                "ks_threshold": 0.02,
                "mass_tolerance": 1e-5,
            },
            "scatter": {"horizon": 1024, "tolerance": 1e-5},
            "recover": {"lambdas": [0.2, 0.1, 0.05], "t_max": 2048},
        }
        assert config_schema().resolve({}) == config_schema().resolve({"schema_version": 1})

    def test_defaults_inside_branches_and_items(self):
        schema = config_schema()
        cfg = schema.resolve(
            {
                "initial": {"kind": "delta", "scale": [1, 0]},
                "decay": {"runs": [{"label": "a", "coin": HADAMARD_COIN}]},
            }
        )
        assert cfg["initial"] == {"kind": "delta", "component": 1, "site": 0, "scale": [1.0, 0.0]}
        assert cfg["decay"] == {
            "t_min": 1000,
            "t_max": 10000,
            "runs": [
                {
                    "label": "a",
                    "coin": HADAMARD_COIN,
                    "expect": {"slope_tol": 0.05, "intercept_tol": 0.05},
                }
            ],
        }
        csv_start = {"kind": "csv", "path": "u0.csv"}
        assert schema.resolve({"initial": csv_start})["initial"] == csv_start

    def test_integral_floats_resolve_to_int(self):
        first, second = (config_schema().resolve(c) for c in GOOD_CONFIGS)
        coin = config_schema().resolve(
            {"coin": {"family": "rotation_power", "theta0": 0, "g": -1, "p": 3.0}}
        )["coin"]
        got = [
            first["schema_version"],
            first["steps"],
            first["weak_limit"]["time"],
            second["initial"]["component"],
            coin["p"],
        ]
        assert got == [1, 2, 10**6, 2, 3]
        assert all(type(v) is int for v in got)
        assert type(coin["theta0"]) is type(coin["g"]) is float

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_resolved_configs_are_valid_and_resolve_to_themselves(self, data):
        cfg = copy.deepcopy(data.draw(st.sampled_from(shipped_configs() + GOOD_CONFIGS)))
        for _ in range(data.draw(st.integers(1, 3))):
            cfg = mutate(data, cfg)
        schema = config_schema()
        if schema.errors(cfg):
            return
        before = copy.deepcopy(cfg)
        resolved = schema.resolve(cfg)
        assert cfg == before
        assert schema.errors(resolved) == []
        assert schema.resolve(resolved) == resolved

    def test_loading_a_config_does_not_import_jsonschema(self):
        src = os.path.dirname(os.path.dirname(nlqw.__file__))
        code = (
            "import sys, nlqw.cli; nlqw.cli._load_config(sys.argv[1], []); "
            "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", code, os.path.join(CONFIGS, "recover.json")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"
