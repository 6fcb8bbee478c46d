"""Tests of the benchmark's own machinery.

Run from the checkout root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nlqw import cli  # noqa: E402


def test_closed_forms_at_benchmark_sizes():
    assert workloads.window_sum(1, 4500) == 20_250_000
    assert 8 * workloads.window_sum(1, 2500) == 50_000_000
    assert workloads.recover_sites(512) == 4_202_496
    assert workloads.window_sum(193, 5000) == 25_960_000
    evolve = workloads.expected_kernel_sites("evolve")
    assert evolve["simulate"]["rotation_power"] == 20_250_000
    assert evolve["table1"]["rotation_power"] == 50_000_000
    series = workloads.expected_kernel_sites("series")
    assert series["recover"]["quintic"] == 4_202_496
    assert series["weak-limit"]["constant"] == 25_960_000


def _traced_sites(argv_list, tmp_path):
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        for i, argv in enumerate(argv_list):
            t.call("cli.main", cli.main, (argv + ["--out", str(tmp_path / f"o{i}")],),
                   attrs={"command": argv[0]}, root=True)
    finally:
        undo()
    return t, tracer.kernel_sites_by_command(t.spans)


def test_traced_kernel_sites_equal_closed_forms(tmp_path):
    """At small sizes the hooks see every kernel call of every command."""
    cfg = lambda f: os.path.join(ROOT, "configs", f)  # noqa: E731
    packet = str(tmp_path / "packet.csv")
    workloads.write_packet(packet, seed=3)
    initial = json.dumps({"kind": "csv", "path": packet})
    t, sites = _traced_sites(
        [
            ["simulate", "--config", cfg("snapshots.json"), "--set", "steps=60",
             "--set", "record.snapshots=[0,30]"],
            ["table1", "--config", cfg("table1.json"), "--set", "table1.steps=40"],
            ["scatter", "--config", cfg("scatter.json"), "--set", "scatter.horizon=64"],
            ["recover", "--config", cfg("recover.json"), "--set", "recover.t_max=32"],
            ["weak-limit", "--config", cfg("weak_limit.json"), "--set", f"initial={initial}",
             "--set", "weak_limit.time=50"],
        ],
        tmp_path,
    )
    assert sites["simulate"] == {"rotation_power": workloads.window_sum(1, 60)}
    assert sites["table1"] == {"rotation_power": 8 * workloads.window_sum(1, 40)}
    assert sites["scatter"]["quintic"] == workloads.window_sum(1, 64)
    assert sites["recover"]["quintic"] == workloads.recover_sites(32)
    assert sites["weak-limit"] == {"constant": workloads.window_sum(193, 50)}

    m = tracer.layer_metrics(t.spans)
    assert m["evolution.site_steps"] == (
        workloads.window_sum(1, 60) + 8 * workloads.window_sum(1, 40)
        + workloads.window_sum(193, 50)
    )
    assert m["scattering.series_runs"] == 1 + 16
    assert m["scattering.terms"] == 64 + 16 * 32
    assert m["state.csv_bytes"] > 0
    assert 0 < m["evolution.self_s"] < m["evolution.evolve_s"]
    # the undo restored every original
    assert cli.evolve.__module__ == "nlqw.evolution"


def test_self_time_subtracts_union_of_children():
    spans = [
        {"id": 1, "parent": None, "name": "a", "start": 0.0, "end": 10.0, "attrs": {}},
        {"id": 2, "parent": 1, "name": "b", "start": 1.0, "end": 4.0, "attrs": {}},
        {"id": 3, "parent": 1, "name": "b", "start": 3.0, "end": 5.0, "attrs": {}},
        {"id": 4, "parent": 1, "name": "b", "start": 8.0, "end": 9.0, "attrs": {}},
        {"id": 5, "parent": 2, "name": "c", "start": 1.0, "end": 2.0, "attrs": {}},
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(1.0)


def test_gate_flags_the_run_whose_outputs_differ(tmp_path):
    bench = run.Bench("evolve", 1, str(tmp_path), 1)
    bench.runs = [{"tag": f"run{i}", "digest": d, "errors": []} for i, d in enumerate("aaba")]
    bench.runs.append({"tag": "setup", "errors": []})
    bench.gate_identical()
    assert [bool(r["errors"]) for r in bench.runs] == [False, False, True, False, False]


def test_packet_is_seeded_and_normalised(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert workloads.write_packet(a, 7) == workloads.write_packet(b, 7)
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()
    from nlqw.state import load_state_csv, lp_norm

    u = load_state_csv(a)
    assert len(u) == 193
    assert lp_norm(u, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert workloads.write_packet(b, 8) != workloads.write_packet(a, 7)
