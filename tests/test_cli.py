import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from friedrichs import survival_probability
from friedrichs.cli import main, parse_config_file
from friedrichs.errors import ConvergenceError
from friedrichs.presets import preset
from friedrichs.timescales import compute_timescales

REL = 1e-12


def _read_csv(path):
    header = None
    rows = []
    comments = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def test_table1_command(tmp_path, capsys):
    assert main(["table1", "--out", str(tmp_path)]) == 0
    txt = (tmp_path / "table1.txt").read_text()
    assert "photodetachment" in txt
    _, header, rows = _read_csv(tmp_path / "table1.csv")
    assert header == ["row", "photodetachment", "quantum-dot", "hydrogen"]
    vals = {r[0]: [float(v) for v in r[1:]] for r in rows}
    assert vals["t_d"][1] == pytest.approx(6.131956967516676e-09, rel=REL)
    assert len(vals) == 8


def test_curve_deterministic_and_matches_library(tmp_path):
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("n_points = 9\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["curve", "--preset", "quantum-dot", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 0
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    comments, header, rows = _read_csv(out1 / "curve.csv")
    assert header == ["t_seconds", "t_over_td", "p", "err_est", "engine"]
    assert any("coupling_lambda_sq" in c for c in comments)
    assert any("preset = quantum-dot" in c for c in comments)
    # the balance time is an anchor of the default grid, and its CSV value
    # must be the library value bit for bit
    tz_key = "%.17g" % ts.t_z
    row = next(r for r in rows if "%.17g" % float(r[0]) == tz_key)
    assert row[2] == "%.17g" % survival_probability(params, ff, ts.t_z)
    assert (out1 / "plot_curve.py").exists()


def test_curve_engine_override(tmp_path):
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        f"t_min_seconds = {ts.t_z!r}\n"
        f"t_max_seconds = {10 * ts.t_z!r}\n"
        "n_points = 3\n"
    )
    assert main(["curve", "--preset", "quantum-dot", "--config", str(cfg),
                 "--engine", "quadrature", "--out", str(tmp_path / "q")]) == 0
    _, _, rows = _read_csv(tmp_path / "q" / "curve.csv")
    assert all(r[4] == "quadrature" for r in rows)


def test_protocol_command_and_second_wave(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("T_over_td_list = 1e-1\n")
    rc = main(["protocol", "--preset", "photodetachment", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "protocol.csv")
    assert header == ["T_seconds", "N", "tau_seconds", "tau_over_td", "p_N"]
    ps = np.array([float(r[4]) for r in rows])
    taus = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(taus) > 0)
    interior_minima = sum(
        1 for i in range(1, len(ps) - 1) if ps[i] < ps[i - 1] and ps[i] < ps[i + 1])
    # repeated oscillation waves of the survival leave several dips
    assert interior_minima >= 2


def test_neps_command(tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text("epsilon_list = 3e-3\nT_over_td_list = 1e-2,3e-2\n")
    rc = main(["neps", "--preset", "quantum-dot", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "neps.csv")
    assert header == ["T_over_td", "epsilon", "N_epsilon"]
    assert len(rows) == 2
    assert all(int(r[2]) > 1 for r in rows)


def test_timescales_command(tmp_path, capsys):
    rc = main(["timescales", "--preset", "photodetachment",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "timescales.txt").read_text()
    assert "root-based" in text
    assert "amplitude 1/e time" in text       # the rate-convention note
    assert "bound-state margin" in text


def test_missing_parameters_exit_2(tmp_path, capsys):
    assert main(["curve", "--out", str(tmp_path)]) == 2


def test_unknown_preset_exit_2(tmp_path):
    assert main(["timescales", "--preset", "nope", "--out", str(tmp_path)]) == 2


def test_malformed_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda_cutoff_per_s\n")
    assert main(["timescales", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    cfg.write_text("unknown_key = 3\n")
    assert main(["timescales", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    cfg.write_text("lambda_cutoff_per_s = not-a-number\n")
    assert main(["timescales", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2


def test_config_names_no_preset(tmp_path, capsys):
    """`preset` is not a config key: alone, or above parameters that are
    not the preset's, it exits 2 as an unknown key rather than load
    nothing or head the CSV with a preset it did not use.  --preset is the
    one way to name a preset, and its header still records it."""
    cfg = tmp_path / "named.cfg"
    for text in ("preset = quantum-dot\n",
                 "preset = quantum-dot\nformfactor = phi2\n"
                 "lambda_cutoff_per_s = 1.67e16\nomega1_per_s = 1e13\n"
                 "coupling_lambda_sq = 1e-6\n"):
        cfg.write_text(text)
        assert main(["timescales", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "unknown config key 'preset'" in capsys.readouterr().err
    assert main(["timescales", "--preset", "quantum-dot",
                 "--out", str(tmp_path)]) == 0
    assert "# preset = quantum-dot" in (tmp_path / "timescales.txt").read_text()


@pytest.mark.parametrize("command, line", [
    ("curve", "n_points = -3"), ("curve", "n_points = 0"),
    ("curve", "t_min_seconds = -1"), ("neps", "epsilon_list = 2"),
    ("protocol", "T_over_td_list = -1e-3"), ("curve", "coupling_lambda_sq = 0"),
    ("timescales", "lambda_cutoff_per_s = inf"), ("curve", "omega1_per_s = inf"),
    ("protocol", "T_over_td_list = ,"), ("neps", "epsilon_list = ,")])
def test_out_of_range_config_exit_2(tmp_path, capsys, command, line):
    # values that parse but lie out of range: without its range check each
    # one ends in a traceback from deep in the library or in exit 3 or 4,
    # or writes a curve of the two anchor times only (n_points = 0) or a
    # CSV of its header only (an empty list)
    cfg = tmp_path / "range.cfg"
    cfg.write_text(line + "\n")
    assert main([command, "--preset", "quantum-dot", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, drop, message", [
    ("curve", "custom_table", "custom formfactor needs custom_table"),
    ("curve", "custom_tail_exponent", "needs custom_tail_exponent"),
    ("curve", "custom_head_exponent", "needs custom_head_exponent"),
    ("curve", None, "curves need t_min_seconds and t_max_seconds"),
    ("protocol", None, "protocol curves need a built-in formfactor"),
    ("neps", None, "n_epsilon scans need a built-in formfactor"),
    ("timescales", None, "timescales need a built-in formfactor")])
def test_custom_weight_config_exit_2(tmp_path, capsys, command, drop, message):
    # a tabulated phi2: a key it lacks is named, and a command that needs
    # a built-in weight or a time range exits 2 before any quadrature
    table = tmp_path / "phi2.tab"
    x = np.geomspace(1e-8, 1e8, 41)
    np.savetxt(table, np.column_stack([x, x / (1 + x * x) ** 2]))
    keys = {"formfactor": "custom", "custom_table": table,
            "custom_tail_exponent": 3, "custom_head_exponent": 1}
    keys.pop(drop, None)
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main([command, "--preset", "quantum-dot", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("col, value", [(1, np.nan), (1, 0.0), (0, np.nan),
                                        (0, "repeat")])
def test_custom_table_bad_rows_exit_2(tmp_path, capsys, col, value):
    # each exited 4 from inside the quadrature (a NaN phi: "integrand is
    # not finite"); a bad row is now refused when the table is read.  A
    # zero phi has no logarithm for the log-log spline
    data = _phi2_rows()
    data[21, col] = data[20, 0] if value == "repeat" else value
    assert _custom_curve(tmp_path, data, custom_tail_exponent=3) == 2
    assert "custom table: table" in capsys.readouterr().err


def test_custom_table_nan_exponent_exit_2(tmp_path, capsys):
    # a NaN tail exponent ran the curve and wrote it into curve.csv's
    # header; it is now refused when the table is read
    assert _custom_curve(tmp_path, _phi2_rows(),
                         custom_tail_exponent="nan") == 2
    assert "custom table: declared exponents must not be NaN" in \
        capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


def _phi2_rows():
    """phi2 at 41 log-spaced x over [1e-8, 1e8], as (x, phi) rows."""
    x = np.geomspace(1e-8, 1e8, 41)
    return np.column_stack([x, x / (1 + x * x) ** 2])


def _custom_curve(tmp_path, data, **keys):
    """The exit status of a quantum-dot `curve` of the table data, head
    exponent 1 and the other custom keys given."""
    table = tmp_path / "phi2.tab"
    np.savetxt(table, data)
    keys = {"formfactor": "custom", "custom_table": table,
            "custom_head_exponent": 1, "t_min_seconds": 1e-15,
            "t_max_seconds": 1e-12, "n_points": 3, **keys}
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return main(["curve", "--preset", "quantum-dot", "--config", str(cfg),
                 "--out", str(tmp_path)])


def test_custom_curve_plot_reads_seconds(tmp_path, monkeypatch):
    # a custom weight has no t_d, so its t_over_td column is all NaN: the
    # plot script it writes reads t_seconds instead
    from friedrichs import cli
    from friedrichs.amplitude import Engine, SurvivalCurve

    def sample(params, ff, times, engine, decay_time):
        return SurvivalCurve(params, ff.id, Engine.QUADRATURE, times,
                             np.ones(times.size), np.zeros(times.size),
                             decay_time)

    monkeypatch.setattr(cli, "sample_curve", sample)
    table = tmp_path / "phi2.tab"
    x = np.geomspace(1e-8, 1e8, 41)
    np.savetxt(table, np.column_stack([x, x / (1 + x * x) ** 2]))
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(f"formfactor = custom\ncustom_table = {table}\n"
                   "custom_tail_exponent = 3\ncustom_head_exponent = 1\n"
                   "t_min_seconds = 1e-12\nt_max_seconds = 1e-9\nn_points = 3\n")
    assert main(["curve", "--preset", "quantum-dot", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    script = (tmp_path / "plot_curve.py").read_text()
    assert 'row["t_seconds"]' in script and "t_over_td" not in script
    assert 'plt.xlabel("t (s)")' in script


@pytest.mark.parametrize("command", ["protocol", "neps", "timescales", "table1"])
def test_engine_option_outside_curve_exit_2(tmp_path, capsys, command):
    # these commands pick their own engines: an engine given by --engine or
    # by the config key exits 2 before any computation and writes no file,
    # where neps and protocol headed their CSVs with an engine they did
    # not use
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("engine = quadrature\n")
    out = tmp_path / "out"
    for extra in (["--engine", "exact"], ["--config", str(cfg)]):
        assert main([command, "--preset", "hydrogen", *extra, "--out", str(out)]) == 2
        assert "engine option" in capsys.readouterr().err
    assert not out.exists()


def test_bound_state_exit_3(tmp_path):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(
        "formfactor = phi1\n"
        "lambda_cutoff_per_s = 1e10\n"
        "omega1_per_s = 1e2\n"          # margin 1e-8 - pi*3.18e-7 < 0
        "coupling_lambda_sq = 3.18e-7\n"
    )
    assert main(["timescales", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 3


def test_convergence_error_exit_4(tmp_path, monkeypatch):
    import friedrichs.cli as cli

    def boom(cfg, out):
        raise ConvergenceError("stalled", achieved=1e-3)

    monkeypatch.setitem(cli._COMMANDS, "timescales", boom)
    assert main(["timescales", "--preset", "quantum-dot",
                 "--out", str(tmp_path)]) == 4


def _tool(name):
    """The module tools/<name>.py, imported without running it."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_outputs_exit_status(tmp_path, capsys):
    # 0 only when both trees hold the same files, byte for byte
    tool = _tool("compare_outputs")
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "x").mkdir(parents=True)
        (root / "x" / "curve.csv").write_text("t,p\n1,0.5\n")
    run = lambda: tool.main([str(a), str(b)])
    assert run() == 0
    (b / "x" / "curve.csv").write_text("t,p\n1,0.25\n")
    capsys.readouterr()
    assert run() == 1
    # the moved p: 0.25 in all and 0.5 of the larger value
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.strip().startswith("p ")]
    assert "absolute move 0.25" in line and "relative 0.5" in line
    (b / "x" / "curve.csv").write_text("t,p\n1,0.5\n")
    (a / "extra.txt").write_text("s = 1\n")
    assert run() == 1
    assert "extra.txt: only in" in capsys.readouterr().out


def test_cli_outputs_prints_each_run_time(tmp_path, capsys, monkeypatch):
    # one wall-time line per CLI run, ending in the run's subdirectory,
    # after the custom-table run's inputs are written
    tool = _tool("cli_outputs")
    monkeypatch.setattr(tool.subprocess, "run", lambda *a, **k: None)
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    subs = [sub for sub, _ in tool.runs()]
    assert len(subs) == 17
    assert sorted(p.name for p in (tmp_path / tool.CUSTOM).iterdir()) == [
        "curve.cfg", "phi2.tab"]
    assert [line.split("  ")[1] for line in lines] == subs
    assert all(line.split("  ")[0].endswith(" s") for line in lines)


def test_cli_outputs_runs_every_command_on_every_preset():
    # the byte-identity comparison of two trees covers the whole CLI: a
    # new command or preset cannot drop out of it unnoticed, and a curve
    # of a tabulated weight takes the custom weights' path
    import friedrichs.cli as cli
    from friedrichs.presets import PRESETS

    tool = _tool("cli_outputs")
    runs = {(args[0], args[2] if args[1:2] == ["--preset"] else None)
            for _, args in tool.runs()}
    assert {command for command, _ in runs} == set(cli._COMMANDS)
    assert {(c, p) for c in cli._COMMANDS if c != "table1"
            for p in PRESETS} <= runs
    custom = [args for _, args in tool.runs() if "--config" in args]
    assert [args[0] for args in custom] == ["curve"]


def test_traffic_lists_the_branch_not_taken(tmp_path):
    # the line tracer sees the import and one call of a two-branch
    # function: of its statement lines (docstrings left out) only the
    # branch not taken is unexecuted.  Each run is a forked child, so the
    # module it loads stays there, and a second run loads it afresh
    tool = _tool("traffic")
    path = tmp_path / "branchy.py"
    path.write_text('"""Module docstring."""\n\n\ndef sign(x):\n'
                    '    """Docstring,\n    on two lines."""\n'
                    '    if x < 0:\n        return -1\n    return 1\n')
    spec = importlib.util.spec_from_file_location("branchy", path)
    module = importlib.util.module_from_spec(spec)
    run = lambda x: lambda: (spec.loader.exec_module(module), module.sign(x))
    hits = tool.executed(run(2), tmp_path)
    assert not hasattr(module, "sign")
    assert tool.statement_lines(path) == {4, 7, 8, 9}
    assert tool.unexecuted(path, hits) == [8]
    assert tool.unexecuted(path, hits | tool.executed(run(-2), tmp_path)) == []
    # the report: each unexecuted line, the count per module, their total
    assert tool.report(tmp_path, hits) == [
        "branchy.py:8: return -1",
        "branchy.py: 1 of 4 statement lines unexecuted",
        "total: 1 of 4 statement lines unexecuted"]
    with pytest.raises(RuntimeError):
        tool.executed(lambda: module.sign(2), tmp_path)


def test_traffic_traces_the_benchmark_rounds():
    """The traced runs end with round 0 of each benchmark workload, and
    the benchmark is traffic the CLI misses: the sweep round executes the
    phi3 mass integral's plan at s = 0 (the split X1 in _amp_quadrature),
    which the CLI's phi3 quadrature-engine run leaves unexecuted."""
    tool = _tool("traffic")
    path = tool.PACKAGE / "amplitude.py"
    line = next(n for n, text in enumerate(path.read_text().splitlines(), 1)
                if "X1 = max(x0 + 1e7 * width, 1.0)" in text)
    runs = dict(tool.runs())
    assert list(runs)[-3:] == ["bench/curve", "bench/protocol", "bench/sweep"]
    cli = tool.executed(runs["hydrogen/curve-quadrature"], tool.PACKAGE)
    sweep = tool.executed(runs["bench/sweep"], tool.PACKAGE)
    assert line in tool.unexecuted(path, cli)
    assert line not in tool.unexecuted(path, cli | sweep)


def test_parse_config_roundtrip(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1\n# comment\nb = x y\n\nc=3  # trailing\n")
    assert parse_config_file(cfg) == {"a": "1", "b": "x y", "c": "3"}


@pytest.mark.parametrize("preset_name,engine", [
    ("photodetachment", "phi1-exact"), ("quantum-dot", "phi2-poles")])
def test_exact_engine_is_the_resolved_one(tmp_path, preset_name, engine):
    assert main(["curve", "--preset", preset_name, "--engine", "exact",
                 "--out", str(tmp_path)]) == 0
    _, header, rows = _read_csv(tmp_path / "curve.csv")
    assert {r[header.index("engine")] for r in rows} == {engine}


def test_exact_engine_without_one_exit_2(tmp_path, capsys):
    assert main(["curve", "--preset", "hydrogen", "--engine", "exact",
                 "--out", str(tmp_path)]) == 2
    assert "no exact engine for formfactor 'phi3'" in capsys.readouterr().err
