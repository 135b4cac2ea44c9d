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
from pspinlab.parisi import GAP_TOL

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
# solver values: every solve here is certified, its gap at most GAP_TOL,
# and no measure's value lies below the minimum, so two certified runs'
# values differ by at most GAP_TOL
VALUE_ABS = GAP_TOL
# atom locations and weights and the envelope derivative read the minimizer
# itself, which the gap bounds only through its value; the Newton solve
# converges far past that bound (moving beta by 1 to 5 ulps moves these
# bodies' locations and weights by at most 2.4e-14 and their derivatives
# by 1.8e-15), so a hundredth of GAP_TOL leaves four orders of margin
MEASURE_ABS = GAP_TOL / 100

EXACT = {"p", "n_points", "hb_window", "hb_n_points", "error"}
TOLERANCE = {
    "q": ("rel", CLOSED_REL), "location": ("abs", MEASURE_ABS),
    "rs_bound": ("rel", CLOSED_REL),
    "q_under": ("rel", CLOSED_REL), "q_bar": ("rel", CLOSED_REL),
    "hb_q_under": ("rel", CLOSED_REL), "hb_q_bar": ("rel", CLOSED_REL),
    "beta": ("rel", BETA_REL), "beta_c": ("rel", BETA_REL),
    "beta_d": ("rel", CLOSED_REL), "one_minus_q_c": ("rel", CLOSED_REL),
    "value": ("abs", VALUE_ABS), "band_free_energy": ("abs", VALUE_ABS),
    # the gap, at most GAP_TOL
    "gap": ("abs", GAP_TOL),
    "weight": ("abs", MEASURE_ABS), "derivative": ("abs", MEASURE_ABS),
}

CASES = [
    ("phase_defaults", ["phase"]),
    ("parisi_defaults", ["parisi"]),
    ("parisi_beta1.5", ["parisi", "--beta", "1.5"]),
    # a 1RSB-like band solve: two atoms
    ("parisi_band_p128",
     ["parisi", "--p", "128", "--band-q", "0.9901", "--beta", "2.45299"]),
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
