import csv
import importlib
import json
import os
import pkgutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pspinlab
from pspinlab import cli
from pspinlab.lab import observables


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    # rows are parsed as CSV: an error message holds a comma, and is quoted
    lines = path.read_text().splitlines()
    header = json.loads(lines[0].lstrip("#").strip())
    reader = csv.DictReader(lines[1:])
    rows = list(reader)
    return header, reader.fieldnames, rows


def test_phase_command(tmp_path):
    out = tmp_path / "phase.csv"
    assert run_cli(["phase", "--p-min", "3", "--p-max", "5",
                    "--out", str(out)]) == 0
    header, cols, rows = read_csv(out)
    assert header["command"] == "phase"
    # phase draws nothing at random, so it takes no seed
    assert "seed" not in header and "version" in header
    # no phase row can fail once both ends pass the p rule: no error column
    assert cols == ["p", "beta_d", "beta_c", "one_minus_q_c"]
    assert len(rows) == 3
    assert float(rows[0]["beta_d"]) == pytest.approx(1.15470054, abs=1e-8)
    for row in rows:
        assert float(row["beta_d"]) < float(row["beta_c"])
        assert 1.0 < float(row["beta_d"]) < 2.0


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


def test_replay_refuses_to_overwrite_its_config(tmp_path, capsys,
                                                 monkeypatch):
    # the header keeps the relative out "a.csv"; the replay names the same
    # file by its absolute path and would write to it without --out
    monkeypatch.chdir(tmp_path)
    assert run_cli(["phase", "--p-max", "4", "--out", "a.csv"]) == 0
    source = tmp_path / "a.csv"
    before = source.read_bytes()
    capsys.readouterr()
    assert run_cli(["phase", "--config", str(source), "--p-max", "6"]) == 2
    assert "config key 'out'" in capsys.readouterr().err
    assert source.read_bytes() == before


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "phase", "p_mn": 4}))
    assert run_cli(["phase", "--config", str(cfg)]) == 2


def test_config_for_wrong_command_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "phase"}))
    assert run_cli(["fp", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text, want", [
    (b"#\n", "not valid JSON"), (b"# \r\n", "not valid JSON"),
    (b"{", "not valid JSON"), (b"[]", "JSON object"),
], ids=["empty-header", "empty-crlf-header", "truncated", "list"])
def test_bad_config_file_rejected(tmp_path, capsys, text, want):
    # a header line holding no JSON reaches the same error as a broken file
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    out = tmp_path / "o.csv"
    assert run_cli(["phase", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert want in captured.err and str(cfg) in captured.err
    assert captured.out == "" and not out.exists()


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
    cfg.write_text(json.dumps({"q_min": 0, "n_q": 2}))
    assert run_cli(["fp", "--config", str(cfg)]) == 0


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
                    "--q-max", "0.6", "--n-q", "4",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0]["value"]) == pytest.approx(0.5, abs=1e-5)
    for row in rows:
        assert float(row["value"]) <= float(row["rs_bound"]) + 1e-8


def test_fp_row_error_sets_exit_code(tmp_path, monkeypatch):
    # every config value is checked before work starts, so the failing row
    # comes from a solve that raises at one overlap
    fp_value = cli.franz_parisi.fp_value

    def fails_at_top(p, beta, q):
        if q > 0.8:
            raise RuntimeError("solve failed")
        return fp_value(p, beta, q)

    monkeypatch.setattr(cli.franz_parisi, "fp_value", fails_at_top)
    out = tmp_path / "fp.csv"
    assert run_cli(["fp", "--p", "3", "--q-min", "0.5", "--q-max", "0.9",
                    "--n-q", "3", "--out", str(out)]) == 1
    _, _, rows = read_csv(out)
    assert rows[-1]["error"] == "solve failed"
    for row in rows[:-1]:  # run continued despite the bad point
        assert row["error"] == "" and row["value"] != ""


def test_parisi_solve_that_does_not_converge_sets_exit_code(tmp_path,
                                                           monkeypatch):
    # with certification made impossible the solve does not converge; the
    # rows of its last measure are still written, each with the error the
    # fp rows of an unconverged solve carry
    monkeypatch.setattr(cli.parisi, "GAP_TOL", -1.0)
    out = tmp_path / "parisi.csv"
    assert run_cli(["parisi", "--beta", "1.5", "--out", str(out)]) == 1
    _, cols, rows = read_csv(out)
    assert cols[-1] == "error" and "converged" not in cols
    assert rows
    for row in rows:
        assert row["error"] == "solver did not converge"
        assert row["location"] != "" and row["value"] != ""


def test_window_scan_that_does_not_converge_sets_exit_code(tmp_path,
                                                           monkeypatch):
    # with certification made impossible no solve converges, so every point
    # of the main scan fails; the row names the count and the first failed q
    monkeypatch.setattr(cli.parisi, "GAP_TOL", -1.0)
    out = tmp_path / "shatter.csv"
    assert run_cli(["shatter-scan", "--p-list", "6", "--beta-fracs", "0.9",
                    "--n-q", "32", "--n-q-half", "32",
                    "--out", str(out)]) == 1
    _, _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["error"] == ("32 of 32 window grid points did not "
                                "converge, first at q = 0.5")
    assert rows[0]["q_under"] == "" and rows[0]["hb_window"] == ""


def test_parisi_command(tmp_path):
    # one row per atom of the certified minimizing measure
    for args, locations, weights in [
            # delta_0 in the replica symmetric phase
            (["--beta", "0.8"], [0.0], [1.0]),
            # two atoms (1RSB) at beta = 1.5
            (["--beta", "1.5"], [0.0, 0.731949], [0.665399, 0.334601]),
            # a 1RSB-like band point
            (["--p", "128", "--band-q", "0.9901", "--beta", "2.45299"],
             [0.375028, 0.794825], [0.333710, 0.666290]),
            # low temperature, well inside the fixed endpoint
            (["--beta", "300"], [0.0, 0.998853], [0.002087, 0.997913])]:
        out = tmp_path / "parisi.csv"
        assert run_cli(["parisi", *args, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols == ["location", "weight", "value", "gap", "error"]
        got_loc = [float(r["location"]) for r in rows]
        got_w = [float(r["weight"]) for r in rows]
        assert got_loc == pytest.approx(locations, abs=1e-6)
        assert got_w == pytest.approx(weights, abs=1e-6)
        assert sum(got_w) == pytest.approx(1.0, abs=1e-12)
        for r in rows:
            assert r["error"] == ""
            assert 0.0 <= float(r["gap"]) <= cli.parisi.GAP_TOL
    out = tmp_path / "parisi_rs.csv"
    assert run_cli(["parisi", "--beta", "0.8", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [(r["location"], r["weight"]) for r in rows] == [("0.0", "1.0")]
    assert float(rows[0]["value"]) == pytest.approx(0.32, abs=1e-15)


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
    key = flag.lstrip("-").replace("-", "_")
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_chaos_rejects_negative_beta_before_drawing(tmp_path, capsys,
                                                    monkeypatch):
    drawn = []

    def no_draw(*args, **kwargs):
        drawn.append(args)
        raise RuntimeError("drew a disorder")

    monkeypatch.setattr(observables, "sample_disorder", no_draw)
    out = tmp_path / "chaos.csv"
    assert run_cli(["chaos", "--n", "6", "--beta", "-1", "--epsilons", "0,1",
                    "--n-samples", "3", "--n-disorders", "2",
                    "--burn-in", "40", "--thin", "3",
                    "--out", str(out)]) == 2
    assert "config key 'beta'" in capsys.readouterr().err
    assert not drawn
    assert not out.exists()


@pytest.mark.parametrize("epsilons", [",", "0,2", "-0.5,0", "0.5,0.5,1",
                                      "0.5,0.5000000001"])
def test_chaos_rejects_bad_epsilons(tmp_path, capsys, monkeypatch, epsilons):
    sampled = []

    def no_sampling(*args):
        sampled.append(args)
        raise RuntimeError("stop")

    monkeypatch.setattr(observables, "_one_disorder", no_sampling)
    out = tmp_path / "chaos.csv"
    assert run_cli(["chaos", "--n", "6", f"--epsilons={epsilons}",
                    "--n-samples", "3", "--n-disorders", "2",
                    "--burn-in", "40", "--thin", "3",
                    "--out", str(out)]) == 2
    assert "config key 'epsilons'" in capsys.readouterr().err
    assert not sampled
    assert not out.exists()


def test_fp_rows_negative_near_one(tmp_path):
    out = tmp_path / "fp.csv"
    assert run_cli(["fp", "--p", "3", "--beta", "1.0", "--q-min", "0.995",
                    "--q-max", "0.999", "--n-q", "3",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert all(float(r["value"]) < 0.0 for r in rows)


def test_shatter_scan_deep_rs_has_no_window(tmp_path):
    out = tmp_path / "scan.csv"
    # beta = 0.414 * beta_c(3) ~ 0.5, far inside the RS phase
    assert run_cli(["shatter-scan", "--p-list", "3", "--beta-fracs", "0.414",
                    "--n-q", "32", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert rows[0]["n_points"] == "0"
    # the half-band scan runs at every p; deep in the RS phase it finds none
    assert rows[0]["hb_window"] == "false"
    assert rows[0]["error"] == ""


def test_shatter_scan_small_p_half_band_window(tmp_path):
    # the half-band scan runs at every p: at p = 20, 0.9 beta_c it finds a
    # window inside [1 - 1/40, 1)
    out = tmp_path / "scan.csv"
    assert run_cli(["shatter-scan", "--p-list", "20", "--beta-fracs", "0.9",
                    "--n-q", "32", "--n-q-half", "32",
                    "--out", str(out)]) == 0
    _, _, [row] = read_csv(out)
    assert row["error"] == ""
    assert row["hb_window"] == "true"
    assert float(row["hb_q_under"]) >= 1.0 - 1.0 / 40


@pytest.mark.parametrize("args", [
    ["fp", "--n-q", "4"],
    ["shatter-scan", "--p-list", "6,20", "--beta-fracs", "0.9",
     "--n-q", "32", "--n-q-half", "32"],
], ids=["fp", "shatter-scan"])
def test_threads_do_not_change_output(tmp_path, args):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a), "--threads", "1"]) == 0
    assert run_cli(args + ["--out", str(b), "--threads", "2"]) == 0
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
    # minimizer support at the solver's fixed endpoint triggers a
    # truncation warning
    (["parisi", "--p", "3", "--beta", "10000"], "endpoint"),
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


def test_chaos_command_checks_and_warns_once(tmp_path, monkeypatch):
    # one static-boundary check, so one beta_c call and one warning,
    # however many disorders the run draws
    calls = []
    beta_c = cli.phase.beta_c

    def counted(*args, **kwargs):
        calls.append(args)
        return beta_c(*args, **kwargs)

    monkeypatch.setattr(cli.phase, "beta_c", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["chaos", "--n", "4", "--beta", "1.5",
                        "--epsilons", "0,1", "--n-samples", "2",
                        "--n-disorders", "3", "--burn-in", "10",
                        "--thin", "1", "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 1
    assert sum("static boundary" in str(w.message) for w in caught) == 1


@pytest.mark.parametrize("p, warned", [("3", 1), ("2", 0)])
def test_chaos_at_p_2_has_no_static_boundary(tmp_path, p, warned):
    # beta_c refuses p = 2, which the lab takes; the boundary check then
    # gives no warning, where at p = 3 this beta is beyond beta_c. The run
    # makes 49 sweeps a chain, below the 50 the mixing check needs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["chaos", "--n", "6", "--p", p, "--beta", "5",
                        "--epsilons", "0,1", "--n-samples", "3",
                        "--n-disorders", "2", "--burn-in", "40",
                        "--thin", "3", "--out", str(tmp_path / "o.csv")]) == 0
    assert len(caught) == warned
    assert all("static boundary" in str(w.message) for w in caught)


def test_no_subcommand_prints_help(capsys):
    assert run_cli([]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: pspinlab")
    for command in cli.DEFAULTS:
        assert command in captured.out


def test_phase_row_above_the_expm1_range(tmp_path):
    # p = 1e210 is past where a sign test through expm1 would overflow
    out = tmp_path / "phase.csv"
    p = str(10**210)
    assert run_cli(["phase", "--p-min", p, "--p-max", p,
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [row["p"] for row in rows] == [p]
    assert float(rows[0]["beta_c"]) == pytest.approx(22.12997318257317,
                                                     rel=1e-13)
    # an mpmath value; q_c itself would read 1.0
    assert float(rows[0]["one_minus_q_c"]) == pytest.approx(
        2.046099902188166615121e-213, rel=1e-13)


def test_stdout_output(capsys):
    assert run_cli(["phase", "--p-max", "3"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# {")
    assert "beta_d" in text


def test_phase_makes_each_row_as_it_is_written(monkeypatch):
    # the rows of p = 3..1000 are not made up front: the key checks cost no
    # beta_c call, and the first row costs one
    calls = []
    beta_c = cli.phase.beta_c

    def counted(p):
        calls.append(p)
        return beta_c(p)

    monkeypatch.setattr(cli.phase, "beta_c", counted)
    rows = cli._run_command({"command": "phase", "p_min": 3, "p_max": 1000})
    assert calls == []
    first = next(rows)
    assert calls == [3]
    assert first == cli._phase_row(3)


def test_a_runner_without_its_bare_yield_fails_loudly(monkeypatch):
    # a runner stops at a bare yield once its keys are checked; one that
    # yields a row there would lose it to the priming, so it is refused
    def run(config):
        yield {"p": 3}

    monkeypatch.setattr(cli, "_run_phase", run)
    with pytest.raises(AssertionError):
        cli._run_command({"command": "phase"})


def test_empty_exception_message_names_its_type(monkeypatch, capsys):
    def run(config):
        raise MemoryError()

    monkeypatch.setattr(cli, "_run_phase", run)
    assert run_cli(["phase"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_out_that_cannot_be_opened_exits_2(tmp_path, capsys):
    # a dangling symlink into a missing directory passes the config checks,
    # and opening it fails
    out = tmp_path / "o.csv"
    out.symlink_to(tmp_path / "missing" / "target.csv")
    assert run_cli(["phase", "--p-max", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_out_is_opened_before_the_scan_solves(tmp_path, capsys, monkeypatch):
    # the key checks pass, so the scan would solve its row; out opens first
    # and fails, so no solve starts
    calls = []
    minimize_cs = cli.franz_parisi.minimize_cs

    def counted(*args, **kwargs):
        calls.append(args)
        return minimize_cs(*args, **kwargs)

    monkeypatch.setattr(cli.franz_parisi, "minimize_cs", counted)
    out = tmp_path / "o.csv"
    out.symlink_to(tmp_path / "missing" / "target.csv")
    assert run_cli(["shatter-scan", "--p-list", "128", "--beta-fracs", "0.9",
                    "--out", str(out)]) == 2
    assert "config key 'out'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("args, key", [
    (["phase", "--p-min", "2"], "p_min"),
    (["parisi", "--band-q", "1.5"], "band_q"),
    (["fp", "--n-q", "0"], "n_q"),
    (["shatter-scan", "--p-list", "2"], "p_list"),
    (["simulate", "--n-traj", "0"], "n_traj"),
    (["chaos", "--n-samples", "0"], "n_samples"),
])
def test_rejected_key_leaves_an_existing_out(tmp_path, capsys, args, key):
    # every command checks its keys before out opens, so a bad key leaves
    # the file that was there
    out = tmp_path / "old.csv"
    out.write_text("old\n")
    assert run_cli(args + ["--out", str(out)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert out.read_text() == "old\n"


SIMULATE = ["simulate", "--n", "6", "--n-steps", "20", "--record-every",
            "10", "--n-traj", "2"]


@pytest.fixture
def failing_work(monkeypatch):
    # simulate's work raises once out is open, where out is a regular file
    def fails(*args, **kwargs):
        raise RuntimeError("work failed")

    monkeypatch.setattr(cli, "correlation_curve", fails)


def test_work_that_raises_leaves_no_file(tmp_path, capsys, monkeypatch):
    # out opens before the work starts; the work then raises, and the file
    # goes with it
    def fails(*args, **kwargs):
        assert out.exists()
        raise RuntimeError("work failed")

    monkeypatch.setattr(cli, "correlation_curve", fails)
    out = tmp_path / "o.csv"
    assert run_cli(SIMULATE + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: work failed\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_run_through_a_link_removes_the_file_it_names(
        tmp_path, capsys, failing_work):
    # the run wrote the link's target, so the target goes; the link stays
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    out = tmp_path / "o.csv"
    out.symlink_to(target)
    assert run_cli(SIMULATE + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: work failed\n"
    assert out.is_symlink() and not target.exists()


def test_failed_run_leaves_an_out_that_is_not_a_regular_file(
        tmp_path, capsys, failing_work):
    # a named pipe, like /dev/null, is written to but never removed
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(SIMULATE + ["--out", str(pipe)]) == 2
        assert os.read(reader, 2) == b"# "
    finally:
        os.close(reader)
    assert capsys.readouterr().err == "error: work failed\n"
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


def test_clean_up_error_does_not_replace_the_run_error(
        tmp_path, capsys, monkeypatch, failing_work):
    def refused(path):
        raise PermissionError(f"cannot remove {path}")

    monkeypatch.setattr(cli.os, "remove", refused)
    out = tmp_path / "o.csv"
    assert run_cli(SIMULATE + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: work failed\n"
    assert out.exists()


@pytest.mark.parametrize("args, key", [
    (["chaos", "--n", "4", "--beta", "nan", "--epsilons", "0,1",
      "--n-samples", "2", "--n-disorders", "2", "--burn-in", "10",
      "--thin", "1"], "beta"),
    (["fp", "--q-max", "inf", "--n-q", "2"], "q_max"),
    (["fp", "--beta", "nan", "--n-q", "2"], "beta"),
    (["simulate", "--n", "4", "--beta", "nan", "--n-steps", "10",
      "--n-traj", "2"], "beta"),
    (["shatter-scan", "--p-list", "3", "--beta-fracs", "nan",
      "--n-q", "32"], "beta_fracs"),
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
    assert run_cli(["fp", "--config", str(cfg), "--n-q", "2",
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
    (["fp", "--n-q", "2", "--threads", "0"], "threads"),
    (["fp", "--n-q", "2", "--threads", "-2"], "threads"),
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
    (["fp", "--n-q", "2", "--beta", "-0.5"], "beta"),
    (["fp", "--n-q", "2", "--q-min", "-1.0"], "q_min"),
    (["parisi", "--band-q", "-1.0"], "band_q"),
    (["fp", "--n-q", "2", "--p", "0"], "p"),
    (["shatter-scan", "--p-list", "128", "--beta-fracs", "-0.9"],
     "beta_fracs"),
    (["parisi", "--beta", "-1"], "beta"),
    (["fp", "--q-min", "1.0"], "q_min"),
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
    # a repeated entry would solve and write the same row again
    (["shatter-scan", "--p-list", "6,6", "--beta-fracs", "0.9"], "p_list"),
    (["shatter-scan", "--p-list", "6,20,6", "--beta-fracs", "0.9"],
     "p_list"),
    (["shatter-scan", "--p-list", "6", "--beta-fracs", "0.9,0.9"],
     "beta_fracs"),
    (["shatter-scan", "--p-list", "6", "--beta-fracs", "0.9,0.90"],
     "beta_fracs"),  # equal once parsed
    # one q written n_q times, and q descending
    (["fp", "--q-min", "0.5", "--q-max", "0.5", "--n-q", "3"],
     "q_max"),
    (["fp", "--q-min", "0.5", "--q-max", "0.1"], "q_max"),
    # beyond phase.P_MAX = 1e300, checked before any row is made
    (["phase", "--p-min", str(10**320), "--p-max", str(10**320)], "p_min"),
    (["phase", "--p-min", str(10**300), "--p-max", str(10**300 + 1)],
     "p_max"),
    (["shatter-scan", "--p-list", f"128,{10**300 + 1}"], "p_list"),
])
def test_bad_solver_keys_rejected_before_work(tmp_path, capsys, monkeypatch,
                                              args, key):
    calls = []

    def record(*a, **k):
        calls.append(a)
        raise RuntimeError("work started")

    for owner, name in [(cli, "map_parallel"), (cli.phase, "beta_c"),
                        (cli.franz_parisi, "find_window"),
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
    # above n_steps (default 1000): no step after t = 0 would be recorded
    ("--record-every", "1001", "record_every"),
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
    (["simulate", "--n", "4", "--seed", "-1"], "seed"),
    # beta inside (beta_d, beta_c) at p = 3: checked before beta_c is
    (["chaos", "--n", "4", "--beta", "1.18", "--seed", "-1"], "seed"),
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


# runs in a fresh interpreter, since this test process may have scipy
# loaded; prints one [step, exit status, scipy modules loaded so far]
# triple per step
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
    ("config error", ["fp", "--beta", "0"]),
    ("chaos", ["chaos", "--n", "4", "--beta", "1.5", "--epsilons", "0,1",
               "--n-samples", "2", "--n-disorders", "2", "--burn-in", "10",
               "--thin", "1"]),
    # inside (beta_d, beta_c) at p = 3, so the run computes beta_c
    ("chaos in the window", ["chaos", "--n", "4", "--p", "3", "--beta",
                             "1.18", "--epsilons", "0,1", "--n-samples", "8",
                             "--n-disorders", "1", "--burn-in", "10",
                             "--thin", "1"]),
    ("parisi", ["parisi"]),
    ("fp", ["fp", "--n-q", "2"]),
]
for name, argv in runs:
    try:
        status = cli.main(argv + ["--out", out])
    except SystemExit as exc:
        status = exc.code
    steps.append((name, status, scipy_modules()))
print(json.dumps(steps))
"""


def _run_fresh(script, *args):
    """The last stdout line of ``script`` run in a fresh interpreter on
    this checkout's package, parsed as JSON."""
    src = str(Path(pspinlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_startup_does_not_load_scipy(tmp_path):
    steps = {name: (status, loaded) for name, status, loaded
             in _run_fresh(STARTUP_SCRIPT, str(tmp_path / "o.csv"))}
    for name, (status, loaded) in steps.items():
        assert loaded == [], f"{name} loaded scipy"
    assert [steps[name][0] for name in (
        "phase", "simulate", "help", "config error", "chaos",
        "chaos in the window", "parisi", "fp")] == [0, 0, 0, 2, 0, 0, 0, 0]


# runs in a fresh interpreter in which importing scipy fails (a None entry
# in sys.modules makes ``import scipy`` raise ImportError), set before
# pspinlab is imported; prints the exit status of each solver command
NO_SCIPY_SCRIPT = r"""
import json, sys

sys.modules["scipy"] = None
from pspinlab import cli

runs = [["parisi"], ["fp", "--n-q", "2"],
        ["shatter-scan", "--p-list", "6", "--beta-fracs", "0.9",
         "--n-q", "32", "--n-q-half", "32"]]
print(json.dumps([cli.main(argv + ["--out", sys.argv[1]]) for argv in runs]))
"""


def test_solver_commands_run_without_scipy(tmp_path):
    assert _run_fresh(NO_SCIPY_SCRIPT, str(tmp_path / "o.csv")) == [0, 0, 0]


def test_out_in_missing_directory_rejected(tmp_path, capsys):
    out = tmp_path / "missing" / "o.csv"
    assert run_cli(["fp", "--n-q", "2", "--out", str(out)]) == 2
    assert "'out'" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("use_config", [False, True])
def test_empty_out_rejected_before_work(tmp_path, capsys, monkeypatch,
                                        use_config):
    calls = []

    def record(*a, **k):
        calls.append(a)
        raise RuntimeError("work started")

    # phase rows call beta_c, with no worker pool
    for owner, name in [(cli, "map_parallel"), (cli.phase, "beta_c")]:
        monkeypatch.setattr(owner, name, record)
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


def test_phase_header_with_tol_key_rejected(tmp_path, capsys):
    # beta_c bisects down to adjacent floats and takes no tolerance
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "phase", "tol": 1e-10}))
    assert run_cli(["phase", "--config", str(cfg)]) == 2
    assert "'tol'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parisi", "fp", "shatter-scan"])
def test_solver_q_max_key_rejected(tmp_path, capsys, command):
    # the band solve's endpoint is the constant parisi.Q_TOP: a JSON
    # config or an old header holding the key is rejected by name, and
    # the flag is unknown
    header = {"command": command, "solver_q_max": 0.9999}
    for text in (json.dumps(header), "# " + json.dumps(header) + "\r\nx\r\n"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg)]) == 2
        assert "'solver_q_max'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--solver-q-max", "0.9999"])
    assert exc.value.code == 2
    assert "--solver-q-max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parisi", "fp", "shatter-scan"])
def test_grid_size_key_rejected(tmp_path, capsys, command):
    # the band solve has no grid: a JSON config or an old header holding
    # its size m is rejected by name, and the flag is unknown
    header = {"command": command, "m": 512}
    for text in (json.dumps(header), "# " + json.dumps(header) + "\r\nx\r\n"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg)]) == 2
        assert "unknown config keys ['m']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--m", "512"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err


def test_fp_single_point_may_set_q_max_to_q_min(tmp_path):
    out = tmp_path / "o.csv"
    assert run_cli(["fp", "--q-min", "0.5", "--q-max", "0.5", "--n-q", "1",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [row["q"] for row in rows] == ["0.5"]


@pytest.mark.parametrize("command, key", [
    ("phase", "seed"), ("parisi", "seed"), ("fp", "seed"),
    ("phase", "threads"), ("parisi", "threads"),
])
def test_unread_seed_and_threads_keys_rejected(tmp_path, capsys, command,
                                               key):
    # the command never reads the key (phase, parisi and fp draw nothing at
    # random, a phase row costs less than starting a worker, and parisi
    # makes one solve): a JSON config or an old header holding it is
    # rejected by name, and the flag is unknown
    header = {"command": command, key: 1}
    for text in (json.dumps(header), "# " + json.dumps(header) + "\r\nx\r\n"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg)]) == 2
        assert f"unknown config keys [{key!r}]" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--" + key, "1"])
    assert exc.value.code == 2
    assert f"--{key}" in capsys.readouterr().err


# shatter-scan takes a seed it never reads, for one reason only: the
# benchmark's command line (perfbench/workloads.py, Shatter.argv) passes
# --seed; a change to the benchmark that stops passing it can drop the key
UNREAD = {"shatter-scan": {"seed"}}


# one small run of each command
SMALL_RUNS = [
    ["phase", "--p-max", "3"],
    ["parisi"],
    ["fp", "--n-q", "2"],
    ["shatter-scan", "--p-list", "6", "--beta-fracs", "0.9", "--n-q", "32",
     "--n-q-half", "32"],
    ["simulate", "--n", "8", "--n-steps", "60", "--record-every", "20",
     "--n-traj", "3"],
    ["chaos", "--n", "6", "--epsilons", "0,0.5", "--n-samples", "3",
     "--n-disorders", "2", "--burn-in", "30", "--thin", "2"],
]


@pytest.mark.parametrize("args", SMALL_RUNS, ids=lambda args: args[0])
def test_every_config_key_is_read(tmp_path, monkeypatch, args):
    # the resolved config records every key the run looks up; threads is 1,
    # so every lookup happens in this process
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    resolve = cli._resolve_config
    monkeypatch.setattr(cli, "_resolve_config",
                        lambda a: Recording(resolve(a)))
    assert run_cli(args + ["--out", str(tmp_path / "o.csv")]) == 0
    command = args[0]
    keys = set(cli.COMMON) | set(cli.DEFAULTS[command])
    assert keys - read == UNREAD.get(command, set())


@pytest.mark.parametrize("args", SMALL_RUNS, ids=lambda args: args[0])
def test_stdout_body_matches_out_body(tmp_path, capsys, args):
    out = tmp_path / "o.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert run_cli(args) == 0
    header, body = capsys.readouterr().out.split("\r\n", 1)
    assert json.loads(header.lstrip("#"))["out"] is None
    assert body.encode() == out.read_bytes().split(b"\r\n", 1)[1]


@pytest.mark.parametrize("args", SMALL_RUNS, ids=lambda args: args[0])
def test_every_row_fills_exactly_its_columns(tmp_path, monkeypatch, args):
    # the writer looks up each listed column in a row, so a listed column
    # that no row fills would be written empty, and a filled key that is not
    # listed would be dropped; neither raises
    written = []
    monkeypatch.setattr(cli, "_write_output",
                        lambda config, rows: written.extend(rows))
    assert run_cli(args + ["--out", str(tmp_path / "o.csv")]) == 0
    ok = [row for row in written if not row.get("error")]
    assert ok
    for row in ok:
        assert set(row) == set(cli.COLUMNS[args[0]])


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
