import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pspinlab
from pspinlab import cli
from pspinlab.lab import observables


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0].lstrip("#").strip())
    cols = lines[1].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[2:] if line]
    return header, cols, rows


def test_phase_command(tmp_path):
    out = tmp_path / "phase.csv"
    assert run_cli(["phase", "--p-min", "3", "--p-max", "5",
                    "--out", str(out)]) == 0
    header, cols, rows = read_csv(out)
    assert header["command"] == "phase"
    assert header["seed"] == 0 and "version" in header
    assert cols == ["p", "beta_d", "beta_c", "argmin_q_c", "error"]
    assert len(rows) == 3
    assert float(rows[0]["beta_d"]) == pytest.approx(1.15470054, abs=1e-8)
    for row in rows:
        assert float(row["beta_d"]) < float(row["beta_c"])
        assert 1.0 < float(row["beta_d"]) < 2.0
        assert row["error"] == ""


def test_rerun_header_reproduces_body(tmp_path):
    out1 = tmp_path / "a.csv"
    assert run_cli(["simulate", "--n", "8", "--n-steps", "60",
                    "--record-every", "20", "--n-traj", "2", "--seed", "9",
                    "--out", str(out1)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(out1.read_text().splitlines()[0] + "\n")
    out2 = tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(out2)]) == 0
    body1 = out1.read_bytes().split(b"\r\n", 1)[1]
    body2 = out2.read_bytes().split(b"\r\n", 1)[1]
    assert body1 == body2


def test_full_csv_accepted_as_config(tmp_path):
    out1 = tmp_path / "a.csv"
    run_cli(["phase", "--p-max", "4", "--out", str(out1)])
    out2 = tmp_path / "b.csv"
    assert run_cli(["phase", "--config", str(out1),
                    "--out", str(out2)]) == 0
    assert out1.read_bytes().split(b"\r\n", 1)[1] \
        == out2.read_bytes().split(b"\r\n", 1)[1]


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "phase", "p_mn": 4}))
    assert run_cli(["phase", "--config", str(cfg)]) == 2


def test_config_for_wrong_command_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "phase"}))
    assert run_cli(["fp", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, cfg, key, want", [
    ("phase", {"p_max": "5"}, "p_max", "int"),
    ("simulate", {"n": 8.5}, "n", "int"),
    ("simulate", {"n_traj": True}, "n_traj", "int"),
    ("fp", {"beta": False}, "beta", "float"),
])
def test_config_value_types_checked(tmp_path, capsys, command, cfg, key,
                                    want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    assert run_cli([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and want in err
    assert not out.exists()


def test_int_accepted_for_float_config_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p_max": 3, "tol": 1}))
    assert run_cli(["phase", "--config", str(cfg)]) == 0


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "phase", "p_min": 3, "p_max": 8}))
    out = tmp_path / "o.csv"
    assert run_cli(["phase", "--config", str(cfg), "--p-max", "4",
                    "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header["p_max"] == 4
    assert len(rows) == 2


def test_fp_command_rows(tmp_path):
    out = tmp_path / "fp.csv"
    assert run_cli(["fp", "--p", "3", "--beta", "1.0", "--q-min", "0",
                    "--q-max", "0.6", "--n-q", "4", "--m", "128",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0]["value"]) == pytest.approx(0.5, abs=1e-5)
    for row in rows:
        assert float(row["value"]) <= float(row["rs_bound"]) + 1e-8


def test_fp_row_error_sets_exit_code(tmp_path, monkeypatch):
    # every config value is checked before work starts, so the failing row
    # comes from a solve that raises at one overlap
    fp_value = cli.franz_parisi.fp_value

    def fails_at_top(p, beta, q, grid_spec):
        if q > 0.8:
            raise RuntimeError("solve failed")
        return fp_value(p, beta, q, grid_spec)

    monkeypatch.setattr(cli.franz_parisi, "fp_value", fails_at_top)
    out = tmp_path / "fp.csv"
    assert run_cli(["fp", "--p", "3", "--q-min", "0.5", "--q-max", "0.9",
                    "--n-q", "3", "--m", "128", "--out", str(out)]) == 1
    _, _, rows = read_csv(out)
    assert rows[-1]["error"] == "solve failed"
    for row in rows[:-1]:  # run continued despite the bad point
        assert row["error"] == "" and row["value"] != ""


def test_parisi_command(tmp_path):
    # one row per atom of the minimizing measure: delta_0 in the replica
    # symmetric phase, two atoms (1RSB) at beta = 1.5
    for beta, locations, weights in [("0.8", [0.0], [1.0]),
                                     ("1.5", [0.0, 0.734], [0.6675, 0.3325])]:
        out = tmp_path / f"parisi_{beta}.csv"
        assert run_cli(["parisi", "--p", "3", "--beta", beta, "--m", "64",
                        "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols == ["location", "weight", "value", "kkt_residual",
                        "converged"]
        got_loc = [float(r["location"]) for r in rows]
        got_w = [float(r["weight"]) for r in rows]
        assert got_loc == pytest.approx(locations, abs=1e-3)
        assert got_w == pytest.approx(weights, abs=1e-4)
        assert sum(got_w) == pytest.approx(1.0, abs=1e-12)
        assert all(r["converged"] == "true" for r in rows)
    _, _, rows = read_csv(tmp_path / "parisi_0.8.csv")
    assert [(r["location"], r["weight"]) for r in rows] == [("0.0", "1.0")]
    assert float(rows[0]["value"]) == pytest.approx(0.32, abs=1e-5)


def test_chaos_command(tmp_path):
    out = tmp_path / "chaos.csv"
    assert run_cli(["chaos", "--n", "6", "--epsilons", "0,1",
                    "--n-samples", "3", "--n-disorders", "2",
                    "--burn-in", "40", "--thin", "3",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [float(r["epsilon"]) for r in rows] == [0.0, 1.0]
    for row in rows:
        assert 0.0 <= float(row["overlap_sq"]) <= 1.0
        assert float(row["w2"]) >= 0.0


@pytest.mark.parametrize("flag, value", [("--n-disorders", "0"),
                                         ("--n-samples", "0"),
                                         ("--thin", "0"),
                                         ("--burn-in", "-1"),
                                         ("--n-samples", "1025")])
def test_chaos_rejects_bad_run_lengths(tmp_path, capsys, flag, value):
    out = tmp_path / "chaos.csv"
    assert run_cli(["chaos", "--n", "6", "--epsilons", "0,1",
                    "--n-samples", "3", "--n-disorders", "2",
                    "--burn-in", "40", "--thin", "3", flag, value,
                    "--out", str(out)]) == 2
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilons", [",", "0,2", "-0.5,0", "0.5,0.5,1",
                                      "0.5,0.5000000001"])
def test_chaos_rejects_bad_epsilons(tmp_path, capsys, monkeypatch, epsilons):
    sampled = []

    def no_sampling(item):
        sampled.append(item)
        raise RuntimeError("stop")

    monkeypatch.setattr(observables, "_one_disorder", no_sampling)
    out = tmp_path / "chaos.csv"
    assert run_cli(["chaos", "--n", "6", f"--epsilons={epsilons}",
                    "--n-samples", "3", "--n-disorders", "2",
                    "--burn-in", "40", "--thin", "3",
                    "--out", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not sampled
    assert not out.exists()


def test_fp_rows_negative_near_one(tmp_path):
    out = tmp_path / "fp.csv"
    assert run_cli(["fp", "--p", "3", "--beta", "1.0", "--q-min", "0.995",
                    "--q-max", "0.999", "--n-q", "3", "--m", "128",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert all(float(r["value"]) < 0.0 for r in rows)


def test_shatter_scan_deep_rs_has_no_window(tmp_path):
    out = tmp_path / "scan.csv"
    # beta = 0.414 * beta_c(3) ~ 0.5, far inside the RS phase
    assert run_cli(["shatter-scan", "--p-list", "3", "--beta-fracs", "0.414",
                    "--n-q", "32", "--m", "128", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert rows[0]["passes_fp"] == "false"
    assert rows[0]["n_points"] == "0"
    # p = 3 cannot host a half-band grid inside (0.99, 1): no window, no error
    assert rows[0]["hb_window"] == "false"
    assert rows[0]["error"] == ""


def test_threads_do_not_change_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["phase", "--p-max", "6", "--out", str(a), "--threads", "1"])
    run_cli(["phase", "--p-max", "6", "--out", str(b), "--threads", "3"])
    assert a.read_bytes().split(b"\r\n", 1)[1] \
        == b.read_bytes().split(b"\r\n", 1)[1]


@pytest.mark.parametrize("args", [
    ["chaos", "--n", "6", "--epsilons", "0,0.5", "--n-samples", "3",
     "--n-disorders", "2", "--burn-in", "30", "--thin", "2"],
    ["simulate", "--n", "8", "--n-steps", "60", "--record-every", "20",
     "--n-traj", "3"],
])
def test_lab_threads_do_not_change_output(tmp_path, args):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a), "--threads", "1"]) == 0
    assert run_cli(args + ["--out", str(b), "--threads", "2"]) == 0
    assert a.read_bytes().split(b"\r\n", 1)[1] \
        == b.read_bytes().split(b"\r\n", 1)[1]


@pytest.mark.parametrize("args, text", [
    # q_max below the minimizer support triggers a truncation warning
    (["parisi", "--p", "3", "--beta", "1.5", "--solver-q-max", "0.5",
      "--m", "64"], "q_max"),
    (["chaos", "--n", "4", "--beta", "1.5", "--epsilons", "0,1",
      "--n-samples", "2", "--n-disorders", "1", "--burn-in", "10",
      "--thin", "1"], "static boundary"),
])
def test_warnings_do_not_change_exit_status(tmp_path, recwarn, args, text):
    # every command lets its warnings through, and none affects the exit
    # status
    out = tmp_path / "o.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert any(text in str(w.message) for w in recwarn.list)


def test_stdout_output(capsys):
    assert run_cli(["phase", "--p-max", "3"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# {")
    assert "beta_d" in text


@pytest.mark.parametrize("args, key", [
    (["chaos", "--n", "4", "--beta", "nan", "--epsilons", "0,1",
      "--n-samples", "2", "--n-disorders", "2", "--burn-in", "10",
      "--thin", "1"], "beta"),
    (["phase", "--p-max", "3", "--tol", "inf"], "tol"),
    (["fp", "--beta", "nan", "--n-q", "2", "--m", "64"], "beta"),
    (["simulate", "--n", "4", "--beta", "nan", "--n-steps", "10",
      "--n-traj", "2"], "beta"),
    (["shatter-scan", "--p-list", "3", "--beta-fracs", "nan",
      "--n-q", "32", "--m", "64"], "beta_fracs"),
])
def test_non_finite_flags_rejected(tmp_path, capsys, args, key):
    out = tmp_path / "o.csv"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [('{"beta": NaN}', "beta"),
                                       ('{"q_max": -Infinity}', "q_max")])
def test_non_finite_json_values_rejected(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    assert run_cli(["fp", "--config", str(cfg), "--n-q", "2", "--m", "64",
                    "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["shatter-scan", "--p-list", ",", "--beta-fracs", "0.5"], "p_list"),
    (["shatter-scan", "--p-list", "3", "--beta-fracs", ","], "beta_fracs"),
    (["fp", "--n-q", "0"], "n_q"),
    (["shatter-scan", "--p-list", "3", "--beta-fracs", "0.5", "--n-q", "5"],
     "n_q"),
    (["shatter-scan", "--p-list", "3", "--beta-fracs", "0.5",
      "--n-q-half", "5"], "n_q_half"),
    (["phase", "--p-max", "3", "--threads", "0"], "threads"),
    (["phase", "--p-max", "3", "--threads", "-2"], "threads"),
    (["shatter-scan", "--p-list", "2.5", "--beta-fracs", "0.5"], "p_list"),
    (["shatter-scan", "--p-list", "3", "--beta-fracs", "0.9,x"],
     "beta_fracs"),
    (["chaos", "--n", "4", "--epsilons", "a"], "epsilons"),
])
def test_empty_inputs_rejected(tmp_path, capsys, args, key):
    out = tmp_path / "o.csv"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["fp", "--n-q", "2", "--m", "8"], "m"),
    (["fp", "--n-q", "2", "--solver-q-max", "1.5"], "solver_q_max"),
    (["fp", "--n-q", "2", "--m", "8", "--solver-q-max", "0"],
     "solver_q_max"),
    (["parisi", "--m", "8"], "m"),
    (["shatter-scan", "--p-list", "128", "--beta-fracs", "0.9",
      "--solver-q-max", "1.5"], "solver_q_max"),
    (["phase", "--p-max", "3", "--tol", "0"], "tol"),
    (["phase", "--p-max", "3", "--tol", "-1"], "tol"),
    (["fp", "--beta", "0"], "beta"),
    (["fp", "--beta", "-1"], "beta"),
    (["parisi", "--beta", "0"], "beta"),
    (["shatter-scan", "--p-list", "128", "--beta-fracs", "0"], "beta_fracs"),
    (["shatter-scan", "--p-list", "128", "--beta-fracs", "0.9,-0.5"],
     "beta_fracs"),
    (["fp", "--q-max", "1.0"], "q_max"),
    (["fp", "--q-min", "-1.5"], "q_min"),
    (["fp", "--p", "1"], "p"),
    (["parisi", "--p", "1"], "p"),
    (["parisi", "--band-q", "1.0"], "band_q"),
    (["phase", "--p-min", "2"], "p_min"),
    (["phase", "--p-min", "5", "--p-max", "4"], "p_max"),
    (["shatter-scan", "--p-list", "2"], "p_list"),
    (["shatter-scan", "--p-list", "128,2"], "p_list"),
])
def test_bad_solver_keys_rejected_before_work(tmp_path, capsys, monkeypatch,
                                              args, key):
    calls = []

    def record(*a, **k):
        calls.append(a)
        raise RuntimeError("work started")

    for owner, name in [(cli, "map_parallel"), (cli.phase, "beta_c"),
                        (cli.parisi, "minimize_cs")]:
        monkeypatch.setattr(owner, name, record)
    out = tmp_path / "o.csv"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--step", "0", "step"),
    ("--n-steps", "0", "n_steps"),
    ("--beta", "-1", "beta"),
    ("--record-every", "0", "record_every"),
    ("--n-traj", "0", "n_traj"),
])
def test_bad_simulate_keys_rejected_before_disorder(tmp_path, capsys,
                                                    monkeypatch, flag, value,
                                                    key):
    # the disorder tensor holds up to 2^31 entries: a bad key must not
    # wait for it to be drawn
    calls = []

    def record(*a, **k):
        calls.append(a)
        raise RuntimeError("work started")

    monkeypatch.setattr(cli, "sample_disorder", record)
    out = tmp_path / "o.csv"
    assert run_cli(["simulate", "--n", "6", flag, value,
                    "--out", str(out)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["simulate", "--n", "0"], "n"),
    (["simulate", "--p", "1"], "p"),
    (["simulate", "--n", "64", "--p", "6"], "p"),
    (["chaos", "--n", "0"], "n"),
    (["chaos", "--p", "1", "--n", "4"], "p"),
])
def test_bad_tensor_keys_rejected_before_work(tmp_path, capsys, monkeypatch,
                                              args, key):
    calls = []

    def record(*a, **k):
        calls.append(a)
        raise RuntimeError("work started")

    for owner, name in [(cli, "sample_disorder"),
                        (observables, "sample_disorder"),
                        (cli.phase, "beta_c")]:
        monkeypatch.setattr(owner, name, record)
    out = tmp_path / "o.csv"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# runs in a fresh interpreter, since this test process has scipy loaded;
# prints one [step, exit status, scipy modules loaded] triple per step
STARTUP_SCRIPT = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from pspinlab import cli, mixtures
out = sys.argv[1]
steps = [("import", None, scipy_modules())]
mixtures.evaluate(mixtures.band_mixture(1024, 0.999), [0.0, 0.5, 1.0])
steps.append(("band mixture", None, scipy_modules()))
runs = [
    ("phase", ["phase", "--p-max", "3"]),
    ("simulate", ["simulate", "--n", "6", "--n-steps", "20",
                  "--record-every", "10", "--n-traj", "2"]),
    ("help", ["--help"]),
    ("config error", ["fp", "--m", "8"]),
    ("parisi", ["parisi", "--m", "64"]),
    ("chaos", ["chaos", "--n", "4", "--beta", "1.5", "--epsilons", "0,1",
               "--n-samples", "2", "--n-disorders", "2", "--burn-in", "10",
               "--thin", "1"]),
]
for name, argv in runs:
    try:
        status = cli.main(argv + ["--out", out])
    except SystemExit as exc:
        status = exc.code
    steps.append((name, status, scipy_modules()))
print(json.dumps(steps))
"""


def test_startup_does_not_load_scipy(tmp_path):
    src = str(Path(pspinlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path / "o.csv")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = {name: (status, loaded) for name, status, loaded
             in json.loads(proc.stdout.splitlines()[-1])}
    for name in ("import", "band mixture", "phase", "simulate", "help",
                 "config error"):
        assert steps[name][1] == [], f"{name} loaded scipy"
    assert [steps[name][0] for name in ("phase", "simulate", "help",
                                        "config error")] == [0, 0, 0, 2]
    # the commands that need scipy load it on first use
    status, loaded = steps["parisi"]
    assert status == 0 and "scipy.optimize" in loaded
    status, loaded = steps["chaos"]
    assert status == 0 and "scipy.spatial.distance" in loaded


def test_out_in_missing_directory_rejected(tmp_path, capsys):
    out = tmp_path / "missing" / "o.csv"
    assert run_cli(["fp", "--n-q", "2", "--m", "64", "--out", str(out)]) == 2
    assert "'out'" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("use_config", [False, True])
def test_empty_out_rejected_before_work(tmp_path, capsys, monkeypatch,
                                        use_config):
    calls = []

    def record(*a, **k):
        calls.append(a)
        raise RuntimeError("work started")

    monkeypatch.setattr(cli, "map_parallel", record)
    args = ["phase", "--p-max", "3"]
    if use_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": ""}))
        args += ["--config", str(cfg)]
    else:
        args += ["--out", ""]
    assert run_cli(args) == 2
    assert "config key 'out'" in capsys.readouterr().err
    assert calls == []


def test_export_lists_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # "from module import *" only when someone runs it
    from pspinlab import lab

    for package in (pspinlab, lab):
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            missing = [name for name in getattr(module, "__all__", ())
                       if not hasattr(module, name)]
            assert missing == [], module.__name__
    assert [name for name in lab.__all__ if not hasattr(lab, name)] == []


def test_out_naming_a_directory_rejected(tmp_path, capsys):
    assert run_cli(["phase", "--p-max", "3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'out'" in err and "directory" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_header_with_method_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "simulate",
                               "method": "replica-exchange"}))
    assert run_cli(["simulate", "--config", str(cfg)]) == 2
    assert "method" in capsys.readouterr().err


@pytest.mark.parametrize("config, status", [(None, 0), ({"p_mn": 4}, 2)])
def test_console_entry_exits_with_main_status(tmp_path, monkeypatch, capsys,
                                              config, status):
    argv = ["pspinlab", "phase", "--p-max", "4"]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    monkeypatch.setattr("sys.argv", argv)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == status
