"""The benchmark's tracer still sees every coin-kernel call of every command.

bench/tracer.py wraps named functions of the nlqw modules, among them each
module's `coin_kernel`, and bench/workloads.py states the exact kernel
sites a run must hand over.  A renamed hook or a kernel built past those
names would make a traced benchmark run report wrong counts, so this
checks both at small sizes.  The bench modules are loaded from their files
and not modified.
"""

import importlib.util
import json
import os
import sys

import pytest

import nlqw.cli as cli
import nlqw.evolution as evolution
import nlqw.scattering as scattering

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"nlqw_bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = load("tracer")
workloads = load("workloads")


class DtypeTracer(tracer.Tracer):
    """The benchmark's tracer, with each coin-kernel span also noting the
    dtype of the arrays the kernel receives."""

    def call(self, name, fn, args=(), kwargs=None, attrs=None, root=False):
        if name.startswith("coins.kernel."):
            attrs = {**attrs, "dtype": args[0].dtype.name}
        return super().call(name, fn, args, kwargs, attrs, root)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The five benchmark commands at small sizes under the tracer."""
    tmp = tmp_path_factory.mktemp("traced")
    packet = str(tmp / "packet.csv")
    workloads.write_packet(packet, seed=3)
    initial = json.dumps({"kind": "csv", "path": packet})
    cfg = lambda name: os.path.join(CONFIGS, name)  # noqa: E731
    commands = [
        ["simulate", "--config", cfg("snapshots.json"), "--set", "steps=60",
         "--set", "record.snapshots=[0,30]"],
        ["table1", "--config", cfg("table1.json"), "--set", "table1.steps=40"],
        ["scatter", "--config", cfg("scatter.json"), "--set", "scatter.horizon=64"],
        ["recover", "--config", cfg("recover.json"), "--set", "recover.t_max=32"],
        ["weak-limit", "--config", cfg("weak_limit.json"), "--set", f"initial={initial}",
         "--set", "weak_limit.time=50"],
    ]
    t = DtypeTracer()
    undo = tracer.install(t)
    try:
        for i, argv in enumerate(commands):
            t.call("cli.main", cli.main, (argv + ["--out", str(tmp / f"o{i}")],),
                   attrs={"command": argv[0]}, root=True)
    finally:
        undo()
    return t


def test_kernel_sites_per_command_equal_the_closed_forms(traced):
    sites = tracer.kernel_sites_by_command(traced.spans)
    window_sum = workloads.window_sum
    assert sites["simulate"] == {"rotation_power": window_sum(1, 60)}
    assert sites["table1"] == {"rotation_power": 8 * window_sum(1, 40)}
    assert sites["scatter"]["quintic"] == window_sum(1, 64)
    assert sites["recover"]["quintic"] == workloads.recover_sites(32)
    assert sites["weak-limit"] == {"constant": window_sum(193, 50)}


def test_kernel_dtypes_per_command(traced):
    # rotation_power walks real data on float buffers; the quintic series
    # and the packet's complex polarisation stay complex
    by_id = {s["id"]: s for s in traced.spans}
    dtypes = {}
    for s in traced.spans:
        if s["name"].startswith("coins.kernel."):
            top = s
            while top["parent"] is not None:
                top = by_id[top["parent"]]
            dtypes.setdefault(top["attrs"]["command"], set()).add(s["attrs"]["dtype"])
    assert dtypes == {
        "simulate": {"float64"},
        "table1": {"float64"},
        "scatter": {"complex128"},
        "recover": {"complex128"},
        "weak-limit": {"complex128"},
    }


def test_evolve_site_steps_equal_the_closed_forms(traced):
    # simulate's and weak-limit's walks run through cli.evolve; table1's
    # cells walk in lockstep batches outside it, so only the per-command
    # kernel sites above count them
    m = tracer.layer_metrics(traced.spans)
    window_sum = workloads.window_sum
    assert m["evolution.site_steps"] == window_sum(1, 60) + window_sum(193, 50)


def test_undo_restores_every_hook(traced):
    assert cli.evolve.__module__ == "nlqw.evolution"
    assert cli.evolve.__name__ == "evolve"
    for module in (evolution, scattering):
        assert module.coin_kernel.__module__ == "nlqw.coins"


def test_install_wraps_every_boundary_and_undo_restores_it():
    modules = (cli, evolution, scattering)
    before = [dict(vars(m)) for m in modules]
    undo = tracer.install(tracer.Tracer())  # a missing boundary raises
    try:
        wrapped = {
            f"{m.__name__}.{name}"
            for m, old in zip(modules, before)
            for name, value in vars(m).items()
            if old.get(name) is not value
        }
    finally:
        undo()
    assert wrapped == {
        *(f"nlqw.cli.{name}" for name in (
            "_load_config", "evolve", "scattering_series", "recovery_ladder",
            "weak_limit_density", "weak_limit_cdf", "save_state_csv",
            "_write_csv", "_series_csv", "_write_summary", "_write_gnuplot",
        )),
        "nlqw.scattering.nonlinear_residual",
        "nlqw.scattering.linear_step",
        "nlqw.scattering.coin_kernel",
        "nlqw.evolution.coin_kernel",
    }
    for m, old in zip(modules, before):
        assert all(vars(m)[name] is value for name, value in old.items())


def test_every_command_boundary_is_reached(traced):
    # of the wrapped names only scattering.nonlinear_residual, a library
    # entry point, is called by none of the five commands
    names = {s["name"] for s in traced.spans}
    assert names == {
        "cli.main", "cli.config", "cli.write", "evolution.evolve",
        "scattering.scattering_series", "scattering.recovery_ladder",
        "scattering.linear_step",
        "spectral.density", "spectral.cdf", "state.save_state_csv",
        "coins.kernel.rotation_power", "coins.kernel.quintic", "coins.kernel.constant",
    }
