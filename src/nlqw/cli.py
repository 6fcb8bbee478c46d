"""Command-line experiment runner.

One binary with subcommands, each wiring a JSON config to one experiment:
trajectory simulation with recorded observables, the eight-cell edge-value
table, log-log decay fits, weak-limit comparisons, scattering series
diagnostics, and derivative recovery ladders.

Configs are validated against the JSON schema shipped with the package
(by the package's own walker, nlqw._schema) before anything runs; unknown
keys are rejected. Precedence is command-line --set overrides, then the
config file, then the schema's default annotations, which the walker fills
in after validation along with each number's Python type, so the commands
read cfg[...] directly. Every command is deterministic and
writes a machine-readable summary.json; the exit code is 0 exactly when all
configured checks pass.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from typing import Iterable

import numpy as np

from ._schema import config_schema
from .coins import (
    CoinSpec,
    ConstantCoin,
    RotationPowerCoin,
    coin_from_json,
    linear_part,
)
from .evolution import Recorder, evolve, soliton_amplitude
from .scattering import recovery_ladder, scattering_series
from .spectral import (
    decay_fit,
    empirical_scaled_cdf,
    kolmogorov_distance,
    weak_limit_cdf,
    weak_limit_density,
)
from .state import (
    LatticeState,
    delta_state,
    load_state_csv,
    lp_norm,
    save_state_csv,
    scaled,
)

__all__ = ["main"]


class ConfigError(Exception):
    """Configuration rejected before any experiment ran."""


# ---------------------------------------------------------------------------
# config plumbing


def _apply_set(cfg: dict, assignment: str) -> None:
    """Apply one --set KEY=VALUE override, creating nested objects as
    needed. VALUE is parsed as JSON when possible, else kept as a string."""
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _non_finite_paths(node, path: tuple = ()) -> list[tuple]:
    """Key paths of the NaN and infinite numbers in a parsed config, and of
    the integers beyond the float range; Python's json reads NaN, Infinity,
    overflowing literals such as 1e999 and integers of any size."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [] if abs(node) <= sys.float_info.max else [path]
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [bad for k, v in items for bad in _non_finite_paths(v, path + (k,))]
    return []


def _load_config(path: str | None, sets: list[str]) -> dict:
    """The config file with the --set overrides applied, validated, and
    resolved against the schema: defaults filled in, numbers typed."""
    cfg: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    for assignment in sets:
        _apply_set(cfg, assignment)
    bad = ["/".join(str(k) for k in p) for p in _non_finite_paths(cfg)]
    if bad:
        raise ConfigError("config rejected: non-finite number at " + ", ".join(bad))
    schema = config_schema()
    errors = schema.errors(cfg)
    if errors:
        lines = []
        for path, message in errors:
            where = "/".join(str(p) for p in path) or "(root)"
            lines.append(f"  at {where}: {message}")
        raise ConfigError("config rejected by schema:\n" + "\n".join(lines))
    return schema.resolve(cfg)


def _initial_state(cfg: dict) -> LatticeState:
    init = cfg["initial"]
    if init["kind"] == "csv":
        return load_state_csv(init["path"])
    u = delta_state(init["component"], init["site"])
    if "scale" in init:
        scale = init["scale"]
        c = complex(scale[0], scale[1]) if isinstance(scale, list) else complex(scale)
        u = scaled(u, c)
    return u


def _initial_mass(cfg: dict) -> tuple[LatticeState, float]:
    """The initial state and its mass ||u0||^2, refused when zero: a zero
    state has no law to compare and no decay to fit."""
    u0 = _initial_state(cfg)
    mass = float(lp_norm(u0, 2.0)) ** 2
    if mass == 0.0:
        raise ConfigError("initial: the initial state has zero l2 norm")
    return u0, mass


def _coin_of(cfg: dict) -> CoinSpec:
    if "coin" not in cfg:
        raise ConfigError("this command needs a 'coin' section")
    return coin_from_json(cfg["coin"])


def _recorder_of(cfg: dict) -> Recorder:
    rec = cfg["record"]
    thr = rec.get("threshold")
    return Recorder(
        sup_norm=rec["sup_norm"],
        lp=tuple(rec["lp"]),
        weak_lp=tuple(rec["weak_lp"]),
        argmax=rec["argmax"],
        snapshot_times=tuple(rec["snapshots"]),
        **({"threshold": thr["gamma"], "threshold_component": thr["component"]} if thr else {}),
    )


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, header: str, rows: Iterable[str]) -> None:
    """Write header and rows; rows may be a generator, formatted as written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _series_csv(out: str, name: str, values: np.ndarray, header: str) -> str:
    path = os.path.join(out, f"series_{name}.csv")
    if np.issubdtype(values.dtype, np.integer):
        rows = (f"{t},{int(v)}" for t, v in enumerate(values))
    else:
        rows = (f"{t},{_fmt(float(v))}" for t, v in enumerate(values))
    _write_csv(path, header, rows)
    return f"series_{name}.csv"


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_summary(out: str, summary: dict) -> None:
    _write_json(os.path.join(out, "summary.json"), summary)


def _write_gnuplot(out: str, lines: list[str]) -> str:
    path = os.path.join(out, "plot.gp")
    body = ["# generated by nlqw; run from this directory", "set datafile separator ','"]
    body.extend(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(body) + "\n")
    return "plot.gp"


def _complex_matrix_json(m: np.ndarray) -> list:
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)
    ]


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _check(name: str, passed: bool, **extra) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(extra)
    return entry


def _finish(
    cfg: dict,
    out: str,
    command: str,
    files: list[str],
    checks: list[dict],
    plot: list[str] | None,
    **fields,
) -> dict:
    """A command's common ending: plot.gp from the gnuplot lines `plot`
    when output.gnuplot is set and there is a plot, then summary.json with
    the command's own fields; returns the summary."""
    if plot and cfg["output"]["gnuplot"]:
        files.append(_write_gnuplot(out, plot))
    summary = {
        "command": command,
        "schema_version": cfg["schema_version"],
        **fields,
        "files": files,
        "checks": checks,
        "ok": all(c["passed"] for c in checks),
    }
    _write_summary(out, summary)
    return summary


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(cfg: dict, out: str) -> dict:
    spec = _coin_of(cfg)
    u0 = _initial_state(cfg)
    steps = cfg["steps"]
    rec = _recorder_of(cfg)

    traj = evolve(u0, spec, steps, rec)
    _release_free_heap()

    files: list[str] = []
    for name, series in traj.series.items():
        header = "t,x" if name == "argmax" else "t,value"
        files.append(_series_csv(out, name, series, header))
    if rec.threshold is not None:
        rows = (f"{t},{int(x)}" for t, sites in traj.threshold_trace for x in sites)
        _write_csv(os.path.join(out, "threshold_trace.csv"), "t,x", rows)
        files.append("threshold_trace.csv")
    for t in sorted(traj.snapshots):
        name = f"snapshot_t{t}.csv"
        save_state_csv(traj.snapshots[t], os.path.join(out, name))
        files.append(name)
    if cfg["record"]["final_state"]:
        save_state_csv(traj.final, os.path.join(out, "final_state.csv"))
        files.append("final_state.csv")

    terms = [
        f"'{f}' using 1:2 with lines title '{f[7:-4]}'"
        for f in files
        if f.startswith("series_")
    ]
    return _finish(
        cfg,
        out,
        "simulate",
        files,
        [],
        ["set xlabel 't'", "plot " + ", ".join(terms)] if terms else None,
        steps=steps,
        norm_initial=float(lp_norm(u0, 2.0)),
        norm_final=float(lp_norm(traj.final, 2.0)),
        sup_norm_final=float(lp_norm(traj.final, np.inf)),
    )


def _cmd_table1(cfg: dict, out: str) -> dict:
    sec = cfg["table1"]
    steps = sec["steps"]
    tol = sec["tolerance"]
    cells = [(c["p"], c["g"]) for c in sec["cells"]]
    for p, g in cells:
        if g == 0.0:
            raise ConfigError("table1 cells need g != 0")

    def run_cell(cell: tuple[int, float]) -> dict:
        p, g = cell
        spec = RotationPowerCoin(math.pi / 4.0, g, p)
        traj = evolve(delta_state(1, 0), spec, steps)
        measured = float(lp_norm(traj.final, np.inf))
        theory = float(soliton_amplitude(g, p))
        err = abs(measured - theory)
        matches = err <= tol
        decaying = (not matches) and measured < 0.5 * theory
        return {
            "p": p,
            "g": g,
            "theory": theory,
            "measured": measured,
            "abs_error": err,
            "matches_theory": matches,
            "decaying": decaying,
        }

    results = [run_cell(cell) for cell in cells]
    _release_free_heap()

    rows = (
        ",".join(
            [str(r["p"])]
            + [_fmt(r[k]) for k in ("g", "theory", "measured", "abs_error")]
            + ["true" if r[k] else "false" for k in ("matches_theory", "decaying")]
        )
        for r in results
    )
    _write_csv(
        os.path.join(out, "table1.csv"),
        "p,g,theory,measured,abs_error,matches_theory,decaying",
        rows,
    )
    checks = [
        _check(
            f"cell_p{r['p']}_g{r['g']!r}",
            r["matches_theory"] or r["decaying"],
            value=r["measured"],
            theory=r["theory"],
            tolerance=tol,
        )
        for r in results
    ]
    plot = [
        "set xlabel 'cell'",
        "set ylabel 'edge amplitude'",
        "plot 'table1.csv' using 0:3 with points title 'theory', "
        "'table1.csv' using 0:4 with points title 'measured'",
    ]
    return _finish(
        cfg,
        out,
        "table1",
        ["table1.csv"],
        checks,
        plot,
        steps=steps,
        tolerance=tol,
        cells=results,
    )


def _cmd_decay(cfg: dict, out: str) -> dict:
    if "decay" not in cfg:
        raise ConfigError("this command needs a 'decay' section")
    sec = cfg["decay"]
    t_min = sec["t_min"]
    t_max = sec["t_max"]
    if t_min >= t_max:
        raise ConfigError(
            f"decay.t_min ({t_min}) must be below decay.t_max ({t_max})"
        )
    steps = sec.get("steps", t_max)
    if steps < t_max:
        raise ConfigError("decay.steps must reach decay.t_max")
    u0, _ = _initial_mass(cfg)

    def run_one(run: dict) -> tuple[str, np.ndarray, object]:
        spec = coin_from_json(run["coin"])
        traj = evolve(u0, spec, steps, Recorder(sup_norm=True))
        series = traj.series["sup_norm"]
        ts = np.arange(steps + 1)
        fit = decay_fit(ts, series, t_min, t_max)
        return run["label"], series, fit

    runs = sec["runs"]
    labels = [r["label"] for r in runs]
    if len(set(labels)) != len(labels):
        raise ConfigError("decay run labels must be unique")
    outputs = [run_one(run) for run in runs]
    _release_free_heap()

    files: list[str] = []
    checks: list[dict] = []
    fits: dict[str, dict] = {}
    plot_terms: list[str] = []
    for run, (label, series, fit) in zip(runs, outputs):
        csv_name = f"decay_{label}.csv"
        _write_csv(
            os.path.join(out, csv_name),
            "t,value",
            (f"{t},{_fmt(float(series[t]))}" for t in range(1, steps + 1)),
        )
        files.append(csv_name)
        fit_name = f"fit_{label}.json"
        _write_json(os.path.join(out, fit_name), fit.to_json())
        files.append(fit_name)
        fits[label] = {**fit.to_json(), "residual_rms": fit.residual_rms}
        expect = run["expect"]
        for key in ("slope", "intercept"):
            if key in expect:
                value, tol = getattr(fit, key), expect[f"{key}_tol"]
                checks.append(
                    _check(
                        f"{label}_{key}",
                        abs(value - expect[key]) <= tol,
                        value=value,
                        expected=expect[key],
                        tolerance=tol,
                    )
                )
        plot_terms.append(f"'{csv_name}' using 1:2 with lines title '{label}'")
        plot_terms.append(
            f"10**({_fmt(fit.intercept)}) * x**({_fmt(fit.slope)}) "
            f"title '{label} fit'"
        )

    plot = ["set logscale xy", "set xlabel 't'", "plot " + ", ".join(plot_terms)]
    return _finish(
        cfg,
        out,
        "decay",
        files,
        checks,
        plot,
        t_min=t_min,
        t_max=t_max,
        steps=steps,
        fits=fits,
    )


def _cmd_weak_limit(cfg: dict, out: str) -> dict:
    spec = _coin_of(cfg)
    if not isinstance(spec, ConstantCoin):
        raise ConfigError("weak-limit needs a constant coin")
    a = complex(spec.matrix[0, 0])
    b = complex(spec.matrix[0, 1])
    sec = cfg["weak_limit"]
    time = sec["time"]
    grid_points = sec["grid_points"]
    ks_threshold = sec["ks_threshold"]
    mass_tolerance = sec["mass_tolerance"]

    u0, mass_target = _initial_mass(cfg)
    traj = evolve(u0, spec, time)
    _release_free_heap()
    v_grid = np.linspace(-1.0, 1.0, grid_points)

    curve = weak_limit_density(u0, a, b, v_grid)
    theory = weak_limit_cdf(u0, a, b, v_grid)
    empirical = empirical_scaled_cdf(traj.final, time, v_grid)
    # both CDFs rise to the packet's mass; the checks compare them as laws
    ks = kolmogorov_distance(empirical / mass_target, theory / mass_target)
    mass = float(curve.total_mass)

    for name, header, values in (
        ("density.csv", "v,density", curve.density),
        ("empirical_cdf.csv", "v,cdf", empirical),
        ("theory_cdf.csv", "v,cdf", theory),
    ):
        rows = (f"{_fmt(float(v))},{_fmt(float(y))}" for v, y in zip(v_grid, values))
        _write_csv(os.path.join(out, name), header, rows)
    checks = [
        _check("kolmogorov", ks <= ks_threshold, value=ks, threshold=ks_threshold),
        _check(
            "density_mass",
            abs(mass - mass_target) <= mass_tolerance * mass_target,
            value=mass,
            expected=mass_target,
            tolerance=mass_tolerance,
        ),
    ]
    plot = [
        "set xlabel 'v'",
        "plot 'density.csv' using 1:2 with lines title 'density', "
        "'empirical_cdf.csv' using 1:2 with lines title 'empirical cdf', "
        "'theory_cdf.csv' using 1:2 with lines title 'limit cdf'",
    ]
    return _finish(
        cfg,
        out,
        "weak-limit",
        ["density.csv", "empirical_cdf.csv", "theory_cdf.csv"],
        checks,
        plot,
        time=time,
        kolmogorov_distance=float(ks),
        density_mass=mass,
    )


def _cmd_scatter(cfg: dict, out: str) -> dict:
    spec = _coin_of(cfg)
    c0 = linear_part(spec)
    sec = cfg["scatter"]
    horizon = sec["horizon"]
    tol = sec["tolerance"]
    u0 = _initial_state(cfg)

    report = scattering_series(u0, spec, c0, horizon, sec.get("defect_times"), tol)
    _release_free_heap()

    sampled = {int(t): float(d) for t, d in zip(report.defect_times, report.defect_series)}

    def rows():
        for t in range(horizon + 1):
            tail = _fmt(float(report.tail_norms[t])) if t < report.tail_norms.size else ""
            defect = _fmt(sampled[t]) if t in sampled else ""
            yield f"{t},{tail},{defect}"

    _write_csv(os.path.join(out, "scattering.csv"), "t,tail_norm,defect", rows())
    save_state_csv(report.u_plus, os.path.join(out, "u_plus.csv"))

    plot = [
        "set logscale y",
        "set xlabel 't'",
        "plot 'scattering.csv' using 1:2 with lines title 'tail norm', "
        "'scattering.csv' using 1:3 with points title 'defect'",
    ]
    return _finish(
        cfg,
        out,
        "scatter",
        ["scattering.csv", "u_plus.csv"],
        [_check("converged", report.converged, tolerance=tol)],
        plot,
        horizon=horizon,
        tolerance=tol,
        converged=bool(report.converged),
        defects={str(t): sampled[t] for t in sorted(sampled)},
    )


def _cmd_recover(cfg: dict, out: str) -> dict:
    spec = _coin_of(cfg)
    c0 = linear_part(spec)
    sec = cfg["recover"]
    lams = tuple(sec["lambdas"])
    t_max = sec["t_max"]

    report = recovery_ladder(spec, c0, lams, t_max)
    _release_free_heap()

    rungs = []
    for res in report.results:
        rungs.append(
            {
                "lambda": float(res.lam),
                "probes_lambda": _complex_matrix_json(res.probes_lam),
                "probes_two_lambda": _complex_matrix_json(res.probes_2lam),
                "m1": _complex_matrix_json(res.m1),
                "m2": _complex_matrix_json(res.m2),
                "truth1": _complex_matrix_json(res.truth1),
                "truth2": _complex_matrix_json(res.truth2),
                "error1": float(res.error1),
                "error2": float(res.error2),
                "error": float(res.error),
            }
        )
    errors = [float(e) for e in report.errors]
    all_zero = all(e == 0.0 for e in errors)
    recovery = {
        "schema_version": cfg["schema_version"],
        "lambdas": [float(x) for x in report.lams],
        "t_max": report.t_max,
        "fitted_order": _finite_or_none(report.fitted_order),
        "fit_residual_rms": _finite_or_none(report.fit_residual_rms),
        "errors_all_zero": all_zero,
        "rungs": rungs,
    }
    _write_json(os.path.join(out, "recovery.json"), recovery)
    _write_csv(
        os.path.join(out, "recovery_errors.csv"),
        "lambda,error",
        (f"{_fmt(lam)},{_fmt(err)}" for lam, err in zip(report.lams, errors)),
    )

    checks = []
    if "order_threshold" in sec:
        thr = sec["order_threshold"]
        checks.append(
            _check(
                "fitted_order",
                all_zero or report.fitted_order >= thr,
                value=_finite_or_none(report.fitted_order),
                threshold=thr,
            )
        )
    if "ratio_bounds" in sec:
        lo, hi = sec["ratio_bounds"]
        ratio = None if all_zero else errors[0] / errors[1]
        checks.append(
            _check(
                "error_ratio",
                all_zero or (lo <= ratio <= hi),
                value=ratio,
                bounds=[lo, hi],
            )
        )
    plot = [
        "set logscale xy",
        "set xlabel 'lambda'",
        "plot 'recovery_errors.csv' using 1:2 with linespoints "
        "title 'recovery error'",
    ]
    return _finish(
        cfg,
        out,
        "recover",
        ["recovery.json", "recovery_errors.csv"],
        checks,
        plot,
        lambdas=[float(x) for x in report.lams],
        errors=errors,
        fitted_order=_finite_or_none(report.fitted_order),
        errors_all_zero=all_zero,
    )


_COMMANDS = {
    "simulate": _cmd_simulate,
    "table1": _cmd_table1,
    "decay": _cmd_decay,
    "weak-limit": _cmd_weak_limit,
    "scatter": _cmd_scatter,
    "recover": _cmd_recover,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlqw",
        description="Nonlinear quantum walk experiments: simulation, decay "
        "fits, weak-limit comparison, scattering and derivative recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted path, JSON value)",
        )
    return parser


# glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD.  At their 128 KiB defaults
# the step loops' per-step numpy temporaries are mapped, or trimmed back to
# the system, and faulted in afresh on every step; glibc raises both on its
# own only after it frees a block it had mapped, which a command may or may
# not do before its step loop starts.
_MALLOPT = ((-3, 1 << 20), (-1, 2 << 20))


def _glibc(name: str, argtypes: tuple) -> object | None:
    """The C library's function `name` with its argument types declared, or
    None where the library cannot be loaded or has no such function."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError):
        return None
    fn.argtypes = argtypes
    fn.restype = ctypes.c_int
    return fn


def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 2 MiB,
    so blocks up to 1 MiB are reused from the heap.  Setting them again
    changes nothing; without glibc's mallopt this does nothing."""
    mallopt = _glibc("mallopt", (ctypes.c_int, ctypes.c_int))
    if mallopt is not None:
        for param, value in _MALLOPT:
            mallopt(param, value)


def _release_free_heap() -> None:
    """Return the heap a finished step loop has freed to the system.

    Under the 2 MiB trim threshold that much stays resident, while the
    output writers' Python objects live in separately mapped arenas, so
    without this the writers would lift the peak RSS above the loop's own.
    Without glibc's malloc_trim this does nothing."""
    trim = _glibc("malloc_trim", (ctypes.c_size_t,))
    if trim is not None:
        trim(0)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _set_malloc_thresholds()
    try:
        cfg = _load_config(args.config, args.sets)
        os.makedirs(args.out, exist_ok=True)
        summary = _COMMANDS[args.command](cfg, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"nlqw: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"nlqw: out of memory: {exc}", file=sys.stderr)
        return 2
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    if failed:
        print(f"nlqw: checks failed: {', '.join(failed)}", file=sys.stderr)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
