"""The benchmark's workloads: command lines made from a seed, checks on the
CSV they produce, and the layer counts their configuration implies.

Every check is an invariant or a reference with a stated tolerance, never
byte equality with a stored output, so a faster path that gives the same
numbers to rounding still passes.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import random

from pspinlab.lab import samplers

ROUNDING = 1e-12  # slack for quantities that are exact up to float rounding


class Workload:
    name = ""
    # per-layer counts that must not be 0: a layer the wrappers missed
    # fails the run instead of reading as zero time
    nonzero: tuple[str, ...] = ()

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, config: dict, rows: list[dict]) -> tuple[int, list[str]]:
        """(checks attempted, failure messages) for one run's CSV rows."""
        raise NotImplementedError

    def expected_counts(self, config: dict) -> dict[str, int]:
        """Per-layer counts one run must produce exactly."""
        raise NotImplementedError

    def tensor(self, config: dict) -> tuple[int, int]:
        """(n^p, p) of the disorder tensors the run builds; (0, 0) if none."""
        return 0, 0


class Shatter(Workload):
    """Window scans at p = 128, 1024, 2048 with beta/beta_c drawn from
    [0.85, 0.95]. Nearly all time is in parisi.minimize_cs on band mixtures
    of degree p, none in lab, so solver changes show here and nowhere else."""

    name = "shatter"
    nonzero = ("mixtures.band_mixture.calls", "mixtures.evaluate.calls")
    P_LIST = "128,1024,2048"

    def argv(self, seed):
        frac = round(random.Random(seed).uniform(0.85, 0.95), 4)
        return ["shatter-scan", "--p-list", self.P_LIST,
                "--beta-fracs", repr(frac), "--seed", str(seed),
                "--threads", "1"]

    def check(self, config, rows):
        fails = []
        n_rows = len(_ints(config["p_list"])) * len(_floats(config["beta_fracs"]))
        if len(rows) != n_rows:
            fails.append(f"{len(rows)} rows, expected {n_rows}")
        fails += [f"row p={r['p']} beta={r['beta']}: {r['error']}"
                  for r in rows if r["error"]]
        # acceptance criterion 06: a witness window inside [1 - 1/(2p), 1);
        # the grid's first point is 1 - 1/(2p) up to exp/log rounding
        witnesses = [r for r in rows if r["hb_window"] == "true"]
        if not witnesses:
            fails.append("no row has an increasing window in [1-1/(2p), 1)")
        for r in witnesses:
            p, lo, hi = int(r["p"]), float(r["hb_q_under"]), float(r["hb_q_bar"])
            if not (lo >= 1.0 - 1.0 / (2 * p) - ROUNDING and lo < hi < 1.0):
                fails.append(f"p={p}: window [{lo}, {hi}] is not inside "
                             "[1-1/(2p), 1)")
        return 2 + len(rows) + len(witnesses), fails

    def expected_counts(self, config):
        rows = len(_ints(config["p_list"])) * len(_floats(config["beta_fracs"]))
        return {
            "parisi.minimize_cs.calls":
                rows * (config["n_q"] + config["n_q_half"]),
            "franz_parisi.find_window.calls": 2 * rows,
            "phase.beta_c.calls": len(_ints(config["p_list"])),
            "lab.energy.gradient.calls": 0,
            "lab.samplers.sweeps": 0,
        }


class Dynamics(Workload):
    """Correlation curve at n=32, p=3, the top of the p=3 envelope, so that
    tensor contraction rather than Python call overhead dominates. The
    Langevin length puts about 70% of the time in lab.energy.gradient and
    most of the rest in replica-exchange burn-in."""

    name = "dynamics"
    nonzero = ("lab.energy.gradient.calls", "lab.energy.hamiltonian.calls")

    def argv(self, seed):
        return ["simulate", "--n", "32", "--p", "3", "--n-steps", "2000",
                "--n-traj", "4", "--seed", str(seed), "--threads", "1"]

    def check(self, config, rows):
        fails = []
        stride = config["record_every"] * config["step"]
        n_rows = config["n_steps"] // config["record_every"] + 1
        if len(rows) != n_rows:
            fails.append(f"{len(rows)} rows, expected {n_rows}")
        if rows and abs(float(rows[0]["corr"]) - 1.0) > ROUNDING:
            fails.append(f"C(0) = {rows[0]['corr']}, expected 1")
        for k, r in enumerate(rows):
            t, c, err = float(r["t"]), float(r["corr"]), float(r["stderr"])
            if abs(t - k * stride) > ROUNDING * max(1.0, k * stride):
                fails.append(f"row {k}: t = {t}, expected {k * stride}")
            if not abs(c) <= 1.0 + ROUNDING:
                fails.append(f"row {k}: |C| = {abs(c)} > 1")
            if not (math.isfinite(err) and err >= 0.0):
                fails.append(f"row {k}: stderr = {err}")
        return 2 + len(rows), fails

    def expected_counts(self, config):
        return {
            "lab.langevin.steps": config["n_traj"] * config["n_steps"],
            "lab.samplers.sweeps": config["n_traj"] * (_re_burn_in() + 1),
            "lab.disorder.build.calls": 1,
            "parisi.minimize_cs.calls": 0,
        }

    def tensor(self, config):
        return config["n"] ** config["p"], config["p"]


class Chaos(Workload):
    """The chaos defaults (n=16, p=3): replica-exchange sweeps and their
    hamiltonian calls, no gradient calls, and 20 fresh disorder tensors per
    run, so a per-disorder cache pays its build cost here with the fewest
    evaluations to pay it back."""

    name = "chaos"
    nonzero = ("lab.energy.hamiltonian.calls",)

    def argv(self, seed):
        return ["chaos", "--seed", str(seed), "--threads", "1"]

    def check(self, config, rows):
        fails = []
        eps = sorted(_floats(config["epsilons"]))
        if [float(r["epsilon"]) for r in rows] != eps:
            fails.append(f"epsilon column {[r['epsilon'] for r in rows]}, "
                         f"expected {eps}")
        for r in rows:
            ovl, w2 = float(r["overlap_sq"]), float(r["w2"])
            errs = float(r["overlap_sq_stderr"]), float(r["w2_stderr"])
            if not -ROUNDING <= ovl <= 1.0 + ROUNDING:
                fails.append(f"eps={r['epsilon']}: overlap_sq = {ovl}")
            if not w2 >= 0.0:
                fails.append(f"eps={r['epsilon']}: w2 = {w2}")
            if not all(math.isfinite(e) and e >= 0.0 for e in errs):
                fails.append(f"eps={r['epsilon']}: stderr {errs}")
        return 1 + len(rows), fails

    def expected_counts(self, config):
        n_eps = len(_floats(config["epsilons"]))
        per_chain = config["burn_in"] + config["n_samples"] * config["thin"]
        return {
            "lab.samplers.sweeps":
                config["n_disorders"] * (1 + n_eps) * per_chain,
            "lab.energy.gradient.calls": 0,
            "lab.disorder.build.calls": config["n_disorders"] * (1 + n_eps),
            "lab.observables.w2.calls": config["n_disorders"] * n_eps,
            "parisi.minimize_cs.calls": 0,
        }

    def tensor(self, config):
        return config["n"] ** config["p"], config["p"]


WORKLOADS = {w.name: w for w in (Shatter(), Dynamics(), Chaos())}


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """(resolved config from the '#' header line, data rows)."""
    header, _, body = text.partition("\r\n")
    if not header.startswith("#"):
        raise ValueError("CSV output has no '#' config header")
    return json.loads(header[1:]), list(csv.DictReader(body.splitlines()))


def _re_burn_in() -> int:
    # simulate draws each trajectory's start with equilibrium_sample's
    # default burn-in, then one more sweep
    return inspect.signature(samplers.equilibrium_sample) \
        .parameters["burn_in"].default


def _ints(text) -> list[int]:
    return [int(s) for s in str(text).split(",") if s]


def _floats(text) -> list[float]:
    return [float(s) for s in str(text).split(",") if s]
