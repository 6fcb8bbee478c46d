"""Outside-in span tracer for the nlqw benchmark.

Spans are recorded from the benchmark's own code: `install` replaces
functions in the nlqw modules (as each caller sees them) with timed
wrappers and returns an undo callable.  Nothing inside the package is
edited.  Each span carries a name, start, end, the span that caused it and
a few counts taken at the same boundary (sites handed to a coin kernel,
bytes of a state CSV, nonzero sites of an evolved state).

`layer_metrics` turns the recorded spans into the per-layer metrics that
BENCHMARK.json lists.  A span's self time is its duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import time
from typing import Callable

import numpy as np

FAMILIES = ("rotation_power", "quintic", "constant")

_SERIES = ("scattering.scattering_series", "scattering.nonlinear_residual")
_WRITES = ("cli.write", "state.save_state_csv")
_TINY = np.finfo(np.float64).tiny


class Tracer:
    """Keeps spans in memory; parents come from a per-thread stack.

    Spans opened on a pool thread with an empty stack take `root` (the
    current command span) as parent, so work fanned out by the CLI still
    hangs under the command that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None, root=False):
        """Run fn(*args, **kwargs) inside a span; return (result, span).

        With root set, the span is the fallback parent while it is open.
        The span is complete when this returns, so callers may add counts
        to span["attrs"] without their work being timed."""
        stack = self._stack()
        sid = next(self._ids)
        span = {
            "id": sid,
            "parent": stack[-1] if stack else self.root,
            "name": name,
            "attrs": dict(attrs or {}),
        }
        stack.append(sid)
        if root:
            self.root = sid
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            span["start"], span["end"] = start, end
            self.spans.append(span)
        return result, span

    def wrap(self, name: str, fn, after=None):
        """fn traced as `name`; after(span, result, args) may add counts."""

        def traced(*args, **kwargs):
            result, span = self.call(name, fn, args, kwargs)
            if after is not None:
                after(span, result, args)
            return result

        return traced


def coin_family(spec) -> str:
    """Family label of a coin spec; a composed coin reports its inner coin."""
    inner = getattr(spec, "inner", None)
    if inner is not None:
        return coin_family(inner)
    name = type(spec).__name__
    return {
        "ConstantCoin": "constant",
        "RotationPowerCoin": "rotation_power",
        "QuinticExponentialCoin": "quintic",
    }.get(name, name)


def _kernel_factory(tracer: Tracer, coin_kernel):
    def traced_coin_kernel(spec):
        kern = coin_kernel(spec)
        name = "coins.kernel." + coin_family(spec)

        def traced_kern(u1, u2):
            result, _ = tracer.call(name, kern, (u1, u2), attrs={"sites": len(u1)})
            return result

        return traced_kern

    return traced_coin_kernel


def _state_stats(span: dict, traj, _args) -> None:
    amp = traj.final.amplitudes
    nonzero = amp != 0
    parts = np.abs(np.stack([amp.real, amp.imag]))
    subnormal = ((parts > 0) & (parts < _TINY)).any(axis=0)
    span["attrs"].update(
        window_sites=int(amp.shape[0]),
        nonzero_sites=int(nonzero.any(axis=1).sum()),
        nonzero_entries=int(nonzero.sum()),
        subnormal_entries=int(subnormal.sum()),
    )


def _csv_bytes(span: dict, _result, args) -> None:
    span["attrs"]["bytes"] = os.path.getsize(args[1])


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer boundaries of an imported nlqw; return an undo callable.

    A missing attribute raises, so a renamed boundary fails the traced run
    instead of reading as a layer that did no work."""
    cli = sys.modules["nlqw.cli"]
    evolution = sys.modules["nlqw.evolution"]
    scattering = sys.modules["nlqw.scattering"]
    plan = [
        (cli, "_load_config", "cli.config", None),
        (cli, "evolve", "evolution.evolve", _state_stats),
        (cli, "scattering_series", "scattering.scattering_series", None),
        (cli, "recovery_ladder", "scattering.recovery_ladder", None),
        (scattering, "nonlinear_residual", "scattering.nonlinear_residual", None),
        (scattering, "linear_step", "scattering.linear_step", None),
        (cli, "weak_limit_density", "spectral.density", None),
        (cli, "weak_limit_cdf", "spectral.cdf", None),
        (cli, "save_state_csv", "state.save_state_csv", _csv_bytes),
        (cli, "_write_csv", "cli.write", None),
        (cli, "_series_csv", "cli.write", None),
        (cli, "_write_summary", "cli.write", None),
        (cli, "_write_gnuplot", "cli.write", None),
    ]
    saved = []
    for module, attr, name, after in plan:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, after))
    for module in (evolution, scattering):
        original = getattr(module, "coin_kernel")
        saved.append((module, "coin_kernel", original))
        module.coin_kernel = _kernel_factory(tracer, original)

    def undo() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def kernel_sites_by_command(spans: list[dict]) -> dict[str, dict[str, int]]:
    """Coin-kernel sites per CLI command and family, for the exact-count
    cross-check.  Command spans are named "cli.main" with a command attr."""
    by_id = {s["id"]: s for s in spans}
    out: dict[str, dict[str, int]] = {}
    for s in spans:
        if not s["name"].startswith("coins.kernel."):
            continue
        top = s
        while top["parent"] is not None:
            top = by_id[top["parent"]]
        command = top["attrs"].get("command", "?")
        fam = s["name"][len("coins.kernel."):]
        per = out.setdefault(command, {})
        per[fam] = per.get(fam, 0) + s["attrs"]["sites"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced run.  Times are summed busy time,
    so spans on parallel pool threads can add up to more than wall time."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    m: dict[str, float] = {}
    for fam in FAMILIES:
        ks = named("coins.kernel." + fam)
        secs = math.fsum(_dur(s) for s in ks)
        sites = sum(s["attrs"]["sites"] for s in ks)
        m[f"coins.kernel_s.{fam}"] = secs
        m[f"coins.sites.{fam}"] = sites
        m[f"coins.ns_per_site.{fam}"] = secs / sites * 1e9 if sites else 0.0

    evolves = named("evolution.evolve")
    evolve_s = math.fsum(_dur(s) for s in evolves)
    site_steps = sum(
        s["attrs"]["sites"]
        for s in spans
        if s["name"].startswith("coins.kernel.") and parent_name(s) == "evolution.evolve"
    )
    window = sum(s["attrs"]["window_sites"] for s in evolves)
    nonzero_entries = sum(s["attrs"]["nonzero_entries"] for s in evolves)
    m["evolution.evolve_s"] = evolve_s
    m["evolution.self_s"] = math.fsum(selfs[s["id"]] for s in evolves)
    m["evolution.site_steps"] = site_steps
    m["evolution.ns_per_site_step"] = evolve_s / site_steps * 1e9 if site_steps else 0.0
    m["evolution.useful_site_share"] = (
        sum(s["attrs"]["nonzero_sites"] for s in evolves) / window if window else 0.0
    )
    m["evolution.subnormal_share"] = (
        sum(s["attrs"]["subnormal_entries"] for s in evolves) / nonzero_entries
        if nonzero_entries
        else 0.0
    )

    series = named(*_SERIES)
    m["scattering.series_s"] = math.fsum(_dur(s) for s in series)
    m["scattering.self_s"] = math.fsum(selfs[s["id"]] for s in series)
    m["scattering.series_runs"] = len(series)
    m["scattering.terms"] = sum(
        1
        for s in spans
        if s["name"].startswith("coins.kernel.") and parent_name(s) in _SERIES
    )
    m["scattering.defect_s"] = math.fsum(_dur(s) for s in named("scattering.linear_step"))

    m["spectral.density_s"] = math.fsum(_dur(s) for s in named("spectral.density"))
    m["spectral.cdf_s"] = math.fsum(_dur(s) for s in named("spectral.cdf"))

    saves = named("state.save_state_csv")
    m["state.save_csv_s"] = math.fsum(_dur(s) for s in saves)
    m["state.csv_bytes"] = sum(s["attrs"]["bytes"] for s in saves)

    m["cli.config_s"] = math.fsum(_dur(s) for s in named("cli.config"))
    m["cli.write_s"] = math.fsum(
        _dur(s) for s in named(*_WRITES) if parent_name(s) not in _WRITES
    )
    m["trace.spans"] = len(spans)
    return m
