"""The benchmark's workloads: the nlqw commands each one runs, the inputs it
generates from the seed, and the exact coin-kernel site counts a traced run
must reproduce.

Every workload goes through the public entry point nlqw.cli.main with a
shipped config.  Why each one is in the benchmark, and which layers it
stresses or bypasses, is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import random

# Gaussian packet for weak-limit: sigma = 24 sites, cut at 4 sigma (193
# sites), zero mean momentum.  Wider packets, random amplitudes or moving
# packets converge too slowly at time 5000 for the run's own KS check.
PACKET_SIGMA = 24
PACKET_HALF_WIDTH = 4 * PACKET_SIGMA

# On a shared host the CPU's speed can wander by a fifth over tens of
# seconds, so steadiness comes from long measurements, and the time budget
# for those allows only two workloads.  Each one therefore chains the
# commands whose layers it stands for; the traced run still splits the
# time by command and layer.  Sizes keep one run near 4 s, so a
# measurement holds a dozen runs.
TRAJECTORY_STEPS = 4500
TRAJECTORY_SNAPSHOTS = [0, 1500, 3000, 4500]
ENSEMBLE_STEPS = 2500
ENSEMBLE_CELLS = 8
SCATTER_HORIZON = 1024
RECOVER_T_MAX = 512
RECOVER_AMPLITUDES = 4  # lambdas 0.2, 0.1, 0.05 and their doubles share rungs
WEAK_LIMIT_TIME = 5000

NAMES = ("evolve", "series")


def window_sum(n0: int, steps: int) -> int:
    """Sites handed to the coin kernel by `steps` steps from an n0-site
    window: the window widens by one site per side each step."""
    return steps * n0 + steps * (steps - 1)


def recover_sites(t_max: int) -> int:
    """Kernel sites of `nlqw recover`: per probe amplitude and row, one
    series from the one-site seed w0 and one from U0 w0 (three sites)."""
    return RECOVER_AMPLITUDES * 2 * (window_sum(1, t_max) + window_sum(3, t_max))


def expected_kernel_sites(name: str) -> dict[str, dict[str, int]]:
    """Command -> coin family -> exact kernel sites of one run.  Families
    not listed for a command are not checked."""
    none = {"rotation_power": 0, "quintic": 0, "constant": 0}
    if name == "evolve":
        return {
            "simulate": {**none, "rotation_power": window_sum(1, TRAJECTORY_STEPS)},
            "table1": {**none, "rotation_power": ENSEMBLE_CELLS * window_sum(1, ENSEMBLE_STEPS)},
        }
    if name == "series":
        return {
            "scatter": {"rotation_power": 0, "quintic": window_sum(1, SCATTER_HORIZON)},
            "recover": {"rotation_power": 0, "quintic": recover_sites(RECOVER_T_MAX)},
            "weak-limit": {
                **none,
                "constant": window_sum(2 * PACKET_HALF_WIDTH + 1, WEAK_LIMIT_TIME),
            },
        }
    raise KeyError(name)


def write_packet(path: str, seed: int) -> dict:
    """Write the weak_limit initial state as a state CSV; return its
    seeded polarisation.  The packet has unit l2 norm."""
    rng = random.Random(seed)
    alpha = rng.uniform(0.0, math.pi)
    beta = rng.uniform(0.0, 2.0 * math.pi)
    xs = range(-PACKET_HALF_WIDTH, PACKET_HALF_WIDTH + 1)
    env = [math.exp(-x * x / (4.0 * PACKET_SIGMA * PACKET_SIGMA)) for x in xs]
    norm = math.sqrt(sum(e * e for e in env))
    p1 = complex(math.cos(alpha), 0.0)
    p2 = complex(math.cos(beta), math.sin(beta)) * math.sin(alpha)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,re_u1,im_u1,re_u2,im_u2\n")
        for x, e in zip(xs, env):
            a, b = p1 * (e / norm), p2 * (e / norm)
            fh.write(f"{x},{a.real:.17g},{a.imag:.17g},{b.real:.17g},{b.imag:.17g}\n")
    return {"alpha": alpha, "beta": beta}


def commands(name: str, root: str, seed: int, work: str) -> tuple[list[dict], dict]:
    """The workload's commands as child specs, plus a record of the inputs
    generated from the seed.  Generated files go under `work`."""

    def cmd(command, config, *sets):
        path = os.path.join(root, "configs", config)
        return {"command": command, "config": path, "sets": list(sets)}

    if name == "evolve":
        return [
            cmd(
                "simulate",
                "snapshots.json",
                f"steps={TRAJECTORY_STEPS}",
                f"record.snapshots={json.dumps(TRAJECTORY_SNAPSHOTS)}",
            ),
            cmd("table1", "table1.json", f"table1.steps={ENSEMBLE_STEPS}"),
        ], {}
    if name == "series":
        path = os.path.join(work, "packet.csv")
        polarisation = write_packet(path, seed)
        initial = json.dumps({"kind": "csv", "path": path})
        return [
            cmd("scatter", "scatter.json", f"scatter.horizon={SCATTER_HORIZON}"),
            cmd("recover", "recover.json", f"recover.t_max={RECOVER_T_MAX}"),
            cmd(
                "weak-limit",
                "weak_limit.json",
                f"initial={initial}",
                f"weak_limit.time={WEAK_LIMIT_TIME}",
            ),
        ], {"packet_sites": 2 * PACKET_HALF_WIDTH + 1, "sigma": PACKET_SIGMA, **polarisation}
    raise KeyError(name)
