"""Golden bodies of the phase and variational commands.

Each file under ``tests/golden`` is the CSV a command wrote, with ``--out``
set to the file's name. A rerun must give the same header (less ``out``
and ``version``, which describe the file, not the computation), the same
columns and rows, and the same structural fields exactly. Floats are
compared to tolerances set by how each is computed, since SIMD ``log`` and
``exp`` may round differently on another CPU.
"""

import json
from pathlib import Path

import pytest

from pspinlab import cli
from pspinlab.parisi import TOL_KKT

GOLDEN = Path(__file__).parent / "golden"

# grid points and closed forms: numpy arithmetic on fixed inputs, which
# another CPU may round differently in the last bits only
CLOSED_REL = 1e-12
# beta_c is the plateau function at a root bisected to adjacent floats,
# within 4e-15 relative of a 60-digit reference; the golden-section search
# to 1e-10 on beta_c^2 that it replaced agreed with it to 1e-15 on these
# bodies. The bound (on beta = frac * beta_c too) keeps that search's
# TOL / (2 beta_c) < 1e-10 with room, far above any last-bit rounding
BETA_REL = 1e-9
# one_minus_q_c = e^{-u} at that root: a last-bit difference in expm1 or
# exp can move the bisected u by a few of its ulps, which moves e^{-u} by
# as much relative (below 1e-15 at these p), so the closed-form bound holds
# with room
# solver values: the stopping rule (objective stagnation below 1e-10
# relative, KKT violation below TOL_KKT = 1e-7) admits any iterate near the
# minimum; a run to 1e-13 stagnation and 1e-10 KKT moves these bodies'
# values by 1.1e-12, and a change of solver moved window values by 1.1e-8,
# so TOL_KKT bounds the spread with room to spare
VALUE_ABS = TOL_KKT
# atom weights and the envelope derivative read the minimizer itself,
# which is flatter than its value: the same tighter run moves weights by
# 1.8e-10 and derivatives by 3.1e-7, so 30 times the larger
MEASURE_ABS = 1e-5

EXACT = {"p", "n_points", "hb_window", "hb_n_points", "error"}
TOLERANCE = {
    "q": ("rel", CLOSED_REL), "location": ("rel", CLOSED_REL),
    "rs_bound": ("rel", CLOSED_REL),
    "q_under": ("rel", CLOSED_REL), "q_bar": ("rel", CLOSED_REL),
    "hb_q_under": ("rel", CLOSED_REL), "hb_q_bar": ("rel", CLOSED_REL),
    "beta": ("rel", BETA_REL), "beta_c": ("rel", BETA_REL),
    "beta_d": ("rel", CLOSED_REL), "one_minus_q_c": ("rel", CLOSED_REL),
    "value": ("abs", VALUE_ABS), "band_free_energy": ("abs", VALUE_ABS),
    "kkt_residual": ("abs", TOL_KKT),
    "weight": ("abs", MEASURE_ABS), "derivative": ("abs", MEASURE_ABS),
}

CASES = [
    ("phase_defaults", ["phase"]),
    ("parisi_defaults", ["parisi"]),
    ("parisi_beta1.5_m64", ["parisi", "--beta", "1.5", "--m", "64"]),
    # a band solve that pools in its projection and backtracks in its line
    # search: 54 iterations, 9 backtracking trials, 4 atoms
    ("parisi_band_p128_m64",
     ["parisi", "--p", "128", "--band-q", "0.9901", "--beta", "2.45299",
      "--m", "64"]),
    ("fp_defaults", ["fp"]),
    ("shatter_scan_p128_1024",
     ["shatter-scan", "--p-list", "128,1024", "--beta-fracs", "0.9",
      "--n-q", "32", "--n-q-half", "32"]),
]


def _read(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0].lstrip("#").strip())
    for key in ("out", "version"):
        header.pop(key)
    return header, lines[1].split(","), [line.split(",") for line in lines[2:]]


def _matches(col, got, want):
    if col in EXACT or want in ("", "nan"):
        return got == want
    kind, tol = TOLERANCE[col]
    g, w = float(got), float(want)
    return abs(g - w) <= (tol * abs(w) if kind == "rel" else tol)


@pytest.mark.parametrize("name, args", CASES, ids=[c[0] for c in CASES])
def test_variational_body_matches_golden(tmp_path, name, args):
    out = tmp_path / f"{name}.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    header, cols, rows = _read(out)
    want_header, want_cols, want_rows = _read(GOLDEN / f"{name}.csv")
    assert header == want_header
    assert cols == want_cols
    assert set(cols) <= EXACT | set(TOLERANCE)
    assert len(rows) == len(want_rows)
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        bad = [(col, g, w) for col, g, w in zip(cols, row, want)
               if not _matches(col, g, w)]
        assert not bad, f"row {i}: {bad}"
