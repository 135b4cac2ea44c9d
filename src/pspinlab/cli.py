"""Batch command-line front end with reproducible CSV output.

Every output file starts with one JSON header line (``#``-prefixed) holding
the resolved configuration (with the seed where a command takes one) and the
version; replaying it through ``--config`` reproduces the body byte for byte.
Precedence is defaults < JSON file < flags; unknown JSON keys are rejected.

Subcommands: phase, parisi, fp, shatter-scan, simulate, chaos.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, franz_parisi, mixtures, parisi, phase
from .lab import LangevinConfig
from .lab.observables import chaos_scan, correlation_curve, map_parallel
from .lab.disorder import _check_budget, sample_disorder
from .lab.samplers import _check_range

# keys besides "command" and "version" (out=None is stdout); each command
# reads all of its keys but shatter-scan's seed, kept while the benchmark's
# command line (perfbench/workloads.py, Shatter.argv) passes --seed
COMMON = {"out": None}
DEFAULTS = {
    "phase": {"p_min": 3, "p_max": 10},
    "parisi": {"p": 3, "band_q": 0.0, "beta": 1.0},
    "fp": {"p": 3, "beta": 1.0, "q_min": 0.0, "q_max": 0.99, "n_q": 50,
           "threads": 1},
    "shatter-scan": {"p_list": "128,256,512,1024,2048",
                     "beta_fracs": "0.85,0.9,0.95", "n_q": 48,
                     "n_q_half": franz_parisi.MIN_GRID_POINTS,
                     "threads": 1, "seed": 0},
    "simulate": {"n": 16, "p": 3, "beta": 1.0, "step": 0.01, "n_steps": 1000,
                 "record_every": 10, "n_traj": 8, "seed": 0, "threads": 1},
    "chaos": {"n": 16, "p": 3, "beta": 1.0, "epsilons": "0,0.25,0.5,1",
              "n_samples": 16, "n_disorders": 4, "burn_in": 300, "thin": 15,
              "seed": 0, "threads": 1},
}

COLUMNS = {
    "phase": ["p", "beta_d", "beta_c", "one_minus_q_c"],
    "parisi": ["location", "weight", "value", "gap", "error"],
    "fp": ["q", "value", "rs_bound", "derivative", "band_free_energy", "gap",
           "error"],
    "shatter-scan": ["p", "beta", "beta_c", "q_under", "q_bar", "n_points",
                     "hb_q_under", "hb_q_bar", "hb_window", "hb_n_points",
                     "error"],
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
        # the runner has checked its keys by the time out opens
        n_errors = _write_output(config, _run_command(config))
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
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
        _check_range("threads", resolved["threads"], 1)
    out = resolved["out"]
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
        text = text.lstrip("#").strip().partition("\n")[0]
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


def _write_output(config: dict, rows) -> int:
    """Write the header, then each row as ``rows`` yields it, to ``out``
    (an error naming the key where it cannot be opened) or to stdout (left
    open); return the number of rows with an error. Where a row or the
    close raises, the error stays the run's, and a regular file at out
    (through a link, the file it names) is removed, so a failed run leaves
    none; a device such as /dev/null stays."""
    out = config["out"]
    try:
        fh = (sys.stdout if out is None
              else open(out, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        raise ValueError(f"config key 'out': {exc}") from None
    try:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\r\n")
        writer = csv.writer(fh, lineterminator="\r\n")
        cols = COLUMNS[config["command"]]
        writer.writerow(cols)
        n_errors = 0
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in cols])
            n_errors += bool(row.get("error"))
        if out is not None:
            fh.close()
    except BaseException:
        if out is not None:
            with contextlib.suppress(OSError):
                fh.close()
            if os.path.isfile(out):
                with contextlib.suppress(OSError):
                    os.remove(os.path.realpath(out))
        raise
    return n_errors


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
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
    """beta, p, then each overlap in ``q_keys``, by their owners' rules;
    a bad ``p`` is not reported against an overlap key."""
    _check_key("beta", parisi._check_beta, config["beta"])
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


def _run_command(config: dict):
    rows = {
        "phase": _run_phase,
        "parisi": _run_parisi,
        "fp": _run_fp,
        "shatter-scan": _run_shatter,
        "simulate": _run_simulate,
        "chaos": _run_chaos,
    }[config["command"]](config)
    # a runner checks its keys, then stops at a bare yield before its work
    first = next(rows)
    assert first is None, "a runner yields None once its keys are checked"
    return rows


def _run_phase(config: dict):
    _check_key("p_min", phase._check_p, config["p_min"])
    if config["p_max"] < config["p_min"]:
        raise ValueError(f"config key 'p_max' must be >= p_min "
                         f"{config['p_min']}, got {config['p_max']}")
    _check_key("p_max", phase._check_p, config["p_max"])
    yield
    # both ends pass the p rule, so no row can fail; each is made as it is
    # written, so memory does not grow with the range
    yield from map(_phase_row, range(config["p_min"], config["p_max"] + 1))


def _phase_row(p: int) -> dict:
    bc, one_minus_q = phase.beta_c(p)
    return {"p": p, "beta_d": phase.beta_d_pure(p), "beta_c": bc,
            "one_minus_q_c": one_minus_q}


def _run_parisi(config: dict):
    """One row per atom of the minimizing measure, each with the solve's
    value and Frank-Wolfe gap."""
    _check_solver(config, "band_q")
    yield
    xi = mixtures.band_mixture(config["p"], config["band_q"])
    res = parisi.minimize_cs(xi, config["beta"])
    yield from ({"location": t, "weight": w, "value": res.value,
                 "gap": res.gap, "error": parisi._solve_error(res)}
                for t, w in zip(res.measure.locations.tolist(),
                                res.measure.weights.tolist()))


def _run_fp(config: dict):
    _check_range("n_q", config["n_q"], 1)
    _check_solver(config, "q_min", "q_max")
    q_min, q_max = config["q_min"], config["q_max"]
    if q_max < q_min or (q_max == q_min and config["n_q"] > 1):
        raise ValueError(f"config key 'q_max' must be above q_min {q_min} "
                         f"(or equal to it when n_q is 1), got {q_max}")
    yield
    qs = np.linspace(q_min, q_max, config["n_q"])
    yield from _point_rows(_fp_row, config, [{"q": q} for q in qs.tolist()])


def _fp_row(config: dict, row: dict) -> None:
    pt = franz_parisi.fp_value(config["p"], config["beta"], row["q"])
    row.update({"value": pt.value, "rs_bound": pt.rs_bound,
                "derivative": pt.derivative,
                "band_free_energy": pt.band_free_energy, "gap": pt.gap,
                "error": parisi._solve_error(pt)})


def _run_shatter(config: dict):
    for key in ("n_q", "n_q_half"):
        _check_range(key, config[key], franz_parisi.MIN_GRID_POINTS)
    fracs = _comma_list(config, "beta_fracs", float)
    for frac in fracs:  # beta = frac * beta_c has the sign of frac
        _check_key("beta_fracs", parisi._check_beta, frac)
    p_list = _comma_list(config, "p_list", int)
    for p in p_list:
        _check_key("p_list", phase._check_p, p)
    yield
    bcs = [phase.beta_c(p)[0] for p in p_list]
    points = [{"p": p, "beta": frac * bc, "beta_c": bc}
              for p, bc in zip(p_list, bcs) for frac in fracs]
    yield from _point_rows(_shatter_row, config, points)


def _shatter_row(config: dict, row: dict) -> None:
    p, beta = row["p"], row["beta"]
    win = franz_parisi.find_window(
        p, beta, franz_parisi.window_grid(p, n=config["n_q"]))
    row.update({"q_under": win.q_under, "q_bar": win.q_bar,
                "n_points": win.n_points})
    hb = franz_parisi.find_window(
        p, beta, franz_parisi.half_band_grid(p, n=config["n_q_half"]))
    row.update({"hb_q_under": hb.q_under, "hb_q_bar": hb.q_bar,
                "hb_window": hb.exists, "hb_n_points": hb.n_points})


def _run_simulate(config: dict):
    _check_budget(config["n"], config["p"])
    cfg = LangevinConfig(config["beta"], config["step"], config["n_steps"],
                         config["record_every"])
    _check_range("n_traj", config["n_traj"], 1)
    _check_range("seed", config["seed"], 0)
    yield
    d = sample_disorder(config["n"], config["p"], seed=config["seed"])
    curve = correlation_curve(d, cfg, config["n_traj"], seed=config["seed"],
                              threads=config["threads"])
    yield from ({"t": t, "corr": c, "stderr": s} for t, c, s in curve)


def _run_chaos(config: dict):
    # chaos_scan checks every key, warns once and returns its rows as one
    # list, so they are made before out opens
    rows = chaos_scan(config["n"], config["p"], config["beta"],
                      _comma_list(config, "epsilons", float),
                      config["n_samples"], config["n_disorders"],
                      seed=config["seed"], burn_in=config["burn_in"],
                      thin=config["thin"], threads=config["threads"])
    yield
    yield from rows


if __name__ == "__main__":
    entry()
