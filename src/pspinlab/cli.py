"""Batch command-line front end with reproducible CSV output.

Every output file starts with one JSON header line (``#``-prefixed) holding
the resolved configuration (with the seed where a command takes one) and the
version; replaying it through ``--config`` reproduces the body byte for byte.
Precedence is defaults < JSON file < flags; unknown JSON keys are rejected.

Subcommands: phase, parisi, fp, shatter-scan, simulate, chaos.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, franz_parisi, mixtures, parisi, phase
from .lab import LangevinConfig
from .lab.observables import chaos_scan, correlation_curve, map_parallel
from .lab.disorder import _check_budget, sample_disorder
from .lab.samplers import _check_at_least

# keys besides "command" and "version" (out=None is stdout); each command
# reads all of its keys but shatter-scan's seed, kept while the benchmark's
# command line (perfbench/workloads.py, Shatter.argv) passes --seed
COMMON = {"out": None}
DEFAULTS = {
    "phase": {"p_min": 3, "p_max": 10, "threads": 1},
    "parisi": {"p": 3, "band_q": 0.0, "beta": 1.0, "m": parisi.DEFAULT_M},
    "fp": {"p": 3, "beta": 1.0, "q_min": 0.0, "q_max": 0.99, "n_q": 50,
           "m": parisi.DEFAULT_M, "threads": 1},
    "shatter-scan": {"p_list": "128,256,512,1024,2048",
                     "beta_fracs": "0.85,0.9,0.95", "n_q": 48,
                     "n_q_half": franz_parisi.MIN_GRID_POINTS,
                     "m": parisi.DEFAULT_M, "threads": 1, "seed": 0},
    "simulate": {"n": 16, "p": 3, "beta": 1.0, "step": 0.01, "n_steps": 1000,
                 "record_every": 10, "n_traj": 8, "seed": 0, "threads": 1},
    "chaos": {"n": 16, "p": 3, "beta": 1.0, "epsilons": "0,0.25,0.5,1",
              "n_samples": 16, "n_disorders": 4, "burn_in": 300, "thin": 15,
              "seed": 0, "threads": 1},
}

COLUMNS = {
    "phase": ["p", "beta_d", "beta_c", "argmin_q_c", "error"],
    "parisi": ["location", "weight", "value", "kkt_residual", "converged"],
    "fp": ["q", "value", "rs_bound", "derivative", "band_free_energy",
           "error"],
    "shatter-scan": ["p", "beta", "beta_c", "q_under", "q_bar", "passes_fp",
                     "n_points", "hb_q_under", "hb_q_bar", "hb_window",
                     "hb_n_points", "error"],
    "simulate": ["t", "corr", "stderr"],
    "chaos": ["epsilon", "overlap_sq", "overlap_sq_stderr", "w2",
              "w2_stderr"],
}


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        config = _resolve_config(args)
        rows, n_errors = _run_command(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(config, rows)
    return 1 if n_errors else 0


# --------------------------
# config plumbing
# --------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pspinlab",
        description="Phase scans, Franz-Parisi curves, shattering-window "
                    "scans, dynamics and chaos experiments for spherical "
                    "p-spin models.")
    sub = parser.add_subparsers(dest="command")
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (a '#'-prefixed header line "
                            "from a previous run also works)")
        for key, value in {**COMMON, **defaults}.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=_key_type(value), default=None,
                           help="output CSV path (default: stdout)"
                           if key == "out" else None)
    return parser


def _key_type(default) -> type:
    """The type a config key takes: that of its default, str for out."""
    return str if default is None else type(default)


def _resolve_config(args: argparse.Namespace) -> dict:
    command = args.command
    keys = {**COMMON, **DEFAULTS[command]}
    resolved = {**keys, "command": command, "version": __version__}
    if args.config is not None:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}; "
                             f"known keys are {sorted(resolved)}")
        if file_cfg.get("command", command) != command:
            raise ValueError(f"config is for command "
                             f"{file_cfg['command']!r}, not {command!r}")
        file_cfg.pop("version", None)
        _check_types(file_cfg, keys)
        resolved.update(file_cfg)
    flags = {key: getattr(args, key) for key in keys}
    resolved.update({k: v for k, v in flags.items() if v is not None})
    for key, value in resolved.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config key {key!r} must be finite, got {value}")
    if "threads" in resolved:
        _check_at_least("threads", resolved["threads"], 1)
    out = resolved["out"]
    if out == "":
        raise ValueError("config key 'out' must name a file, got ''")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"config key 'out' names a file in a missing "
                         f"directory: {out!r}")
    if out is not None and os.path.isdir(out):
        raise ValueError(f"config key 'out' names a directory: {out!r}")
    # a replayed header carries the out of the run that wrote it
    if (args.config is not None and out is not None and os.path.exists(out)
            and os.path.samefile(out, args.config)):
        raise ValueError(f"config key 'out' names the config file "
                         f"{args.config!r}; give --out another path")
    return resolved


def _check_types(file_cfg: dict, keys: dict) -> None:
    """Each value must have the type of its default in ``keys``; a float
    field also takes an int, bool never passes for a number, and a key
    whose default is None (out) also takes None."""
    for key, value in file_cfg.items():
        if key not in keys or (value is None and keys[key] is None):
            continue
        want = _key_type(keys[key])
        allowed = (int, float) if want is float else (want,)
        if type(value) not in allowed:
            raise ValueError(f"config key {key!r} must be of type "
                             f"{want.__name__}, got {value!r}")


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if text.startswith("#"):
        text = text.lstrip("#").strip().splitlines()[0]
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _write_output(config: dict, rows: list[dict]) -> None:
    buf = io.StringIO()
    buf.write("# " + json.dumps(config, sort_keys=True) + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    cols = COLUMNS[config["command"]]
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in cols])
    text = buf.getvalue()
    if config["out"] is None:
        sys.stdout.write(text)
    else:
        with open(config["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --------------------------
# command execution
# --------------------------

def _comma_list(config: dict, key: str, cast) -> list:
    """The comma-separated values of ``config[key]``; none, one that
    ``cast`` rejects or that is not finite, or one equal to another after
    parsing (``0.9,0.90``) is an error naming the key: a repeat would
    solve and write the same row twice."""
    try:
        values = [cast(s) for s in str(config[key]).split(",") if s]
    except ValueError:
        values = []
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"config key {key!r} needs one or more finite "
                         f"comma-separated values, got {config[key]!r}")
    if len(set(values)) < len(values):
        raise ValueError(f"config key {key!r} repeats a value, "
                         f"got {config[key]!r}")
    return values


def _check_key(key: str, check, *args) -> None:
    """Run the check that owns the rule for ``config[key]`` before any work
    starts; its ValueError becomes an error that names the key."""
    try:
        check(*args)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def _check_solver(config: dict, *q_keys: str) -> None:
    """beta, m, p, then each overlap in ``q_keys``, by their owners' rules;
    a bad ``p`` is not reported against an overlap key."""
    _check_key("beta", parisi._check_beta, config["beta"])
    _check_key("m", parisi.make_grid, config["m"])
    _check_key("p", mixtures.band_mixture, config["p"], 0.0)
    for key in q_keys:
        _check_key(key, mixtures.band_mixture, config["p"], config[key])


def _point_rows(fn, config: dict, points: list[dict]) -> list[dict]:
    """Each point dict as ``fn(config, row)`` fills it in, in order, on
    ``config["threads"]`` workers; a point that raises keeps the fields
    filled so far and gets the message in its ``error`` column."""
    return map_parallel(functools.partial(_point_row, fn, config), points,
                        config["threads"])


def _point_row(fn, config: dict, row: dict) -> dict:
    row["error"] = ""
    try:
        fn(config, row)
    except Exception as exc:
        row["error"] = str(exc)
    return row


def _run_command(config: dict) -> tuple[list[dict], int]:
    runner = {
        "phase": _run_phase,
        "parisi": _run_parisi,
        "fp": _run_fp,
        "shatter-scan": _run_shatter,
        "simulate": _run_simulate,
        "chaos": _run_chaos,
    }[config["command"]]
    rows = runner(config)
    # a parisi row has no error column: it failed when its solve did not
    # converge
    n_errors = sum(1 for r in rows
                   if r.get("error") or r.get("converged") is False)
    return rows, n_errors


def _run_phase(config: dict) -> list[dict]:
    _check_key("p_min", phase._check_p, config["p_min"])
    if config["p_max"] < config["p_min"]:
        raise ValueError(f"config key 'p_max' must be >= p_min "
                         f"{config['p_min']}, got {config['p_max']}")
    points = [{"p": p} for p in range(config["p_min"], config["p_max"] + 1)]
    return _point_rows(_phase_row, config, points)


def _phase_row(config: dict, row: dict) -> None:
    bc, q = phase.beta_c(row["p"])
    row.update({"beta_d": phase.beta_d_pure(row["p"]), "beta_c": bc,
                "argmin_q_c": q})


def _run_parisi(config: dict) -> list[dict]:
    """One row per atom of the minimizing measure. An atom's location is
    resolved only to the solver grid: at 1RSB-like points one atom's mass
    can split across neighbouring grid nodes (at the default m = 512,
    the pure p = 3 model at beta = 1.5 has atoms at 0.72997 and 0.7329, with
    weights 0.024 and 0.310)."""
    _check_solver(config, "band_q")
    xi = mixtures.band_mixture(config["p"], config["band_q"])
    res = parisi.minimize_cs(xi, config["beta"], config["m"])
    return [{"location": t, "weight": w, "value": res.value,
             "kkt_residual": res.kkt_residual, "converged": res.converged}
            for t, w in zip(res.measure.locations.tolist(),
                            res.measure.weights.tolist())]


def _run_fp(config: dict) -> list[dict]:
    _check_at_least("n_q", config["n_q"], 1)
    _check_solver(config, "q_min", "q_max")
    q_min, q_max = config["q_min"], config["q_max"]
    if q_max < q_min or (q_max == q_min and config["n_q"] > 1):
        raise ValueError(f"config key 'q_max' must be above q_min {q_min} "
                         f"(or equal to it when n_q is 1), got {q_max}")
    qs = np.linspace(q_min, q_max, config["n_q"])
    return _point_rows(_fp_row, config, [{"q": q} for q in qs.tolist()])


def _fp_row(config: dict, row: dict) -> None:
    pt = franz_parisi.fp_value(config["p"], config["beta"], row["q"],
                               config["m"])
    row.update({"value": pt.value, "rs_bound": pt.rs_bound,
                "derivative": pt.derivative,
                "band_free_energy": pt.band_free_energy,
                "error": "" if pt.converged else "solver did not converge"})


def _run_shatter(config: dict) -> list[dict]:
    for key in ("n_q", "n_q_half"):
        _check_at_least(key, config[key], franz_parisi.MIN_GRID_POINTS)
    _check_key("m", parisi.make_grid, config["m"])
    fracs = _comma_list(config, "beta_fracs", float)
    for frac in fracs:  # beta = frac * beta_c has the sign of frac
        _check_key("beta_fracs", parisi._check_beta, frac)
    p_list = _comma_list(config, "p_list", int)
    for p in p_list:
        _check_key("p_list", phase._check_p, p)
    bcs = [phase.beta_c(p)[0] for p in p_list]
    points = [{"p": p, "beta": frac * bc, "beta_c": bc}
              for p, bc in zip(p_list, bcs) for frac in fracs]
    return _point_rows(_shatter_row, config, points)


def _shatter_row(config: dict, row: dict) -> None:
    p, beta, m = row["p"], row["beta"], config["m"]
    win = franz_parisi.find_window(
        p, beta, franz_parisi.window_grid(p, n=config["n_q"]), m)
    row.update({"q_under": win.q_under, "q_bar": win.q_bar,
                "passes_fp": win.passes_fp, "n_points": win.n_points})
    hb = franz_parisi.find_window(
        p, beta, franz_parisi.half_band_grid(p, n=config["n_q_half"]), m)
    row.update({"hb_q_under": hb.q_under, "hb_q_bar": hb.q_bar,
                "hb_window": hb.exists, "hb_n_points": hb.n_points})


def _run_simulate(config: dict) -> list[dict]:
    _check_budget(config["n"], config["p"])
    cfg = LangevinConfig(config["beta"], config["step"], config["n_steps"],
                         config["record_every"])
    _check_at_least("n_traj", config["n_traj"], 1)
    _check_at_least("seed", config["seed"], 0)
    d = sample_disorder(config["n"], config["p"], seed=config["seed"])
    curve = correlation_curve(d, cfg, config["n_traj"], seed=config["seed"],
                              threads=config["threads"])
    return [{"t": t, "corr": c, "stderr": s} for t, c, s in curve]


def _run_chaos(config: dict) -> list[dict]:
    eps = _comma_list(config, "epsilons", float)
    return chaos_scan(config["n"], config["p"], config["beta"], eps,
                      config["n_samples"], config["n_disorders"],
                      seed=config["seed"], burn_in=config["burn_in"],
                      thin=config["thin"], threads=config["threads"])


if __name__ == "__main__":
    entry()
