"""Command-line front end: presets, flat key=value configs, CSV and plot
script emission.

Commands
--------
curve       p(t) on a log grid spanning the Zeno region through the
            power-law era, with the decay-time-unit column used by the
            survival plots.
table1      characteristic-times grid for the three reference systems.
protocol    p_N(T) versus measurement interval for a list of observation
            times.
neps        largest measurement count keeping p_N within a relative
            accuracy of the unmeasured survival, versus observation time.
timescales  full report with provenance flags.

All numeric output is written with 17 significant digits and newline
endings so repeated runs are byte identical.  Every CSV carries the
resolved configuration in '#' comment lines.

Exit codes: 2 config error, 3 bound state present, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .amplitude import Engine, resolve_engine, sample_curve
from .errors import BoundStateError, ConvergenceError
from .formfactors import Formfactor, ModelParams, bound_state_margin, builtin
from .presets import PRESETS
from .protocols import UNBOUNDED, n_epsilon, protocol_curve
from .timescales import compute_timescales, render_table1

_FMT = "%.17g"


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return _FMT % float(x)


def parse_config_file(path: str) -> dict:
    """Flat 'key = value' lines; '#' comments; no unit inference (units
    are spelled out in the key names)."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = val
    return out


def _parser(convert, what, ok=lambda v: True, rule=""):
    """A config value's parser: convert(text), checked by ok."""
    def parse(key, text):
        try:
            value = convert(text)
        except ValueError:
            raise ConfigError(f"config key {key}: bad {what} {text!r}") from None
        if not ok(value):
            raise ConfigError(f"config key {key}: {rule}, got {text!r}")
        return value
    return parse


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


_REAL, _TEXT = _parser(float, "float"), _parser(str, "string")
_POSITIVE = _parser(float, "float", lambda v: 0 < v < math.inf,
                    "must be positive and finite")
_CONFIG_KEYS = {
    "lambda_cutoff_per_s": _POSITIVE, "omega1_per_s": _POSITIVE,
    "coupling_lambda_sq": _parser(float, "float", lambda g: 0 < g < 1,
                                  "must lie in (0, 1)"),
    "custom_tail_exponent": _REAL, "custom_head_exponent": _REAL,
    "t_min_seconds": _POSITIVE, "t_max_seconds": _POSITIVE,
    "n_points": _parser(int, "integer", lambda n: n >= 1, "must be at least 1"),
    "T_over_td_list": _parser(_floats, "list",
                              lambda v: v and all(0 < r < math.inf for r in v),
                              "needs values, each positive and finite"),
    "epsilon_list": _parser(_floats, "list", lambda v: v and all(0 < e < 1 for e in v),
                            "needs values, each in (0, 1)"),
    "formfactor": _TEXT, "engine": _TEXT, "custom_table": _TEXT,
}


def _resolve_config(args) -> dict:
    cfg = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(sorted(PRESETS)))
        p = PRESETS[args.preset]
        cfg.update(preset=args.preset, formfactor=p["formfactor"],
                   lambda_cutoff_per_s=p["cutoff"], omega1_per_s=p["omega1"],
                   coupling_lambda_sq=p["coupling_sq"])
    if args.config:
        for key, val in parse_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _CONFIG_KEYS[key](key, val)
    if args.engine:
        cfg["engine"] = args.engine
    if "engine" in cfg and args.command != "curve":
        raise ConfigError("the engine option (--engine, or the config key engine) "
                          f"is for curve only; {args.command} picks its own engines")
    return cfg


def _build_model(cfg):
    missing = [k for k in ("formfactor", "lambda_cutoff_per_s",
                           "omega1_per_s", "coupling_lambda_sq")
               if k not in cfg]
    if missing:
        raise ConfigError("missing parameters: " + ", ".join(missing)
                          + " (give --preset or a full --config)")
    try:
        params = ModelParams(cfg["lambda_cutoff_per_s"], cfg["omega1_per_s"],
                             cfg["coupling_lambda_sq"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    ff_name = cfg["formfactor"]
    if ff_name == "custom":
        missing = [k for k in ("custom_table", "custom_tail_exponent",
                               "custom_head_exponent") if k not in cfg]
        if missing:
            raise ConfigError("custom formfactor needs " + ", ".join(missing))
        try:
            ff = Formfactor.from_table(
                cfg["custom_table"], tail_exponent=cfg["custom_tail_exponent"],
                head_exponent=cfg["custom_head_exponent"])
        except (ValueError, OSError) as exc:
            raise ConfigError(f"custom table: {exc}")
    else:
        try:
            ff = builtin(ff_name)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return params, ff


def _builtin_model(cfg, what):
    """_build_model for a command that needs a built-in weight."""
    params, ff = _build_model(cfg)
    if not ff.is_builtin:
        raise ConfigError(f"{what} need a built-in formfactor")
    return params, ff


def _engine_from_cfg(cfg, ff) -> Engine:
    name = cfg.get("engine", "auto")
    if name in ("auto", "quadrature"):
        return Engine(name)
    if name != "exact":
        raise ConfigError(f"unknown engine {name!r} (auto|quadrature|exact)")
    engine = resolve_engine(ff)
    if engine is Engine.QUADRATURE:
        raise ConfigError(f"no exact engine for formfactor {ff.id!r}")
    return engine


def _header_lines(cfg) -> list[str]:
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, float):
            val = _fmt(val)
        elif isinstance(val, list):
            val = ",".join(_fmt(v) for v in val)
        lines.append(f"# {key} = {val}")
    return lines


def _write(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_curve(cfg, out: Path) -> None:
    params, ff = _build_model(cfg)
    engine = _engine_from_cfg(cfg, ff)
    n_points = cfg.get("n_points", 200)
    anchors = []
    if ff.is_builtin:
        ts = compute_timescales(params, ff)
        t_lo = cfg.get("t_min_seconds", 1e-3 * ts.t_z)
        t_hi = cfg.get("t_max_seconds", 5.0 * ts.t_ep)
        t_d = ts.t_d
        anchors = [t for t in (ts.t_z, ts.t_d) if t_lo <= t <= t_hi]
    else:
        if "t_min_seconds" not in cfg or "t_max_seconds" not in cfg:
            raise ConfigError(
                "custom formfactor curves need t_min_seconds and t_max_seconds")
        t_lo, t_hi, t_d = cfg["t_min_seconds"], cfg["t_max_seconds"], math.nan
    times = np.concatenate([np.geomspace(t_lo, t_hi, int(n_points)), anchors])
    curve = sample_curve(params, ff, times, engine=engine, decay_time=t_d)
    lines = _header_lines(cfg)
    lines.append("t_seconds,t_over_td,p,err_est,engine")
    for t, p, e in zip(curve.times, curve.probabilities, curve.error_estimates):
        lines.append(",".join((_fmt(t), _fmt(t / t_d), _fmt(p), _fmt(e),
                               curve.engine.value)))
    _write(out / "curve.csv", lines)
    script = _PLOT_CURVE
    if not math.isfinite(t_d):      # no t_d to scale by: plot against seconds
        script = script.replace('"t_over_td"', '"t_seconds"').replace(
            '"t / t_d"', '"t (s)"')
    _write(out / "plot_curve.py", script.splitlines())


def _cmd_table1(cfg_ignored, out: Path) -> None:
    text = render_table1()
    csv = render_table1(fmt="csv")
    _write(out / "table1.txt", text.splitlines())
    _write(out / "table1.csv", csv.splitlines())
    print(text)


def _cmd_protocol(cfg, out: Path) -> None:
    params, ff = _builtin_model(cfg, "protocol curves")
    ts = compute_timescales(params, ff)
    t_over_td = cfg.get("T_over_td_list", [1e-4, 1e-3, 1e-2, 1e-1])
    lines = _header_lines(cfg)
    lines.append("T_seconds,N,tau_seconds,tau_over_td,p_N")
    for ratio in t_over_td:
        T = ratio * ts.t_d
        result = protocol_curve(params, ff, T, decay_time=ts.t_d)
        for n, tau, p in zip(result.n_values, result.tau_values,
                             result.probabilities):
            lines.append(",".join((_fmt(T), str(int(n)), _fmt(tau),
                                   _fmt(tau / ts.t_d), _fmt(p))))
    _write(out / "protocol.csv", lines)
    _write(out / "plot_protocol.py", _PLOT_PROTOCOL.splitlines())


def _cmd_neps(cfg, out: Path) -> None:
    params, ff = _builtin_model(cfg, "n_epsilon scans")
    ts = compute_timescales(params, ff)
    eps_list = cfg.get("epsilon_list", [1e-2, 3e-3, 1e-3])
    t_over_td = cfg.get("T_over_td_list",
                        list(np.geomspace(1e-3, 1e-1, 7)))
    lines = _header_lines(cfg)
    lines.append("T_over_td,epsilon,N_epsilon")
    for eps in eps_list:
        for ratio in t_over_td:
            val = n_epsilon(params, ff, ratio * ts.t_d, eps)
            out_val = "unbounded" if val is UNBOUNDED else str(val)
            lines.append(",".join((_fmt(ratio), _fmt(eps), out_val)))
    _write(out / "neps.csv", lines)
    _write(out / "plot_neps.py", _PLOT_NEPS.splitlines())


def _cmd_timescales(cfg, out: Path) -> None:
    params, ff = _builtin_model(cfg, "timescales")
    ts = compute_timescales(params, ff)     # raises BoundStateError
    margin = bound_state_margin(params, ff)
    lines = _header_lines(cfg)
    lines.append("")
    rows = [("t_Z", ts.t_z, "t_z"), ("t_a", ts.t_a, "t_a"),
            ("t_b", ts.t_b, "t_b"), ("t_d", ts.t_d, "t_d"),
            ("t_ep", ts.t_ep, "t_ep")]
    for label, val, key in rows:
        if val is None:
            continue
        prov = ts.provenance.get(key)
        tag = f" [{prov.value}]" if prov else ""
        lines.append(f"{label:6s} = {_fmt(val)} s ({_fmt(val / ts.t_d)} t_d){tag}")
    lines.append(f"{'s':6s} = {_fmt(ts.leading_exponent)} (leading short-time exponent)")
    if ts.gamma is not None:
        lines.append(f"{'gamma':6s} = {_fmt(ts.gamma)} [{ts.provenance['gamma'].value}]")
    if ts.omega_tilde is not None:
        lines.append(f"{'w~':6s} = {_fmt(ts.omega_tilde)} s^-1 "
                     f"[{ts.provenance['omega_tilde'].value}]")
    lines.append(f"bound-state margin = {_fmt(margin)}")
    for note in ts.notes:
        lines.append(f"note: {note}")
    _write(out / "timescales.txt", lines)
    print("\n".join(lines))


_PLOT_CURVE = '''\
"""Plot the survival curve emitted next to this script."""
import csv
import matplotlib.pyplot as plt

t, p = [], []
with open("curve.csv") as fh:
    for row in csv.DictReader(r for r in fh if not r.startswith("#")):
        t.append(float(row["t_over_td"]))
        p.append(float(row["p"]))
plt.loglog(t, p)
plt.xlabel("t / t_d")
plt.ylabel("survival probability")
plt.tight_layout()
plt.savefig("curve.png", dpi=160)
'''

_PLOT_PROTOCOL = '''\
"""Plot repeated-measurement survival versus measurement interval."""
import csv
from collections import defaultdict
import matplotlib.pyplot as plt

series = defaultdict(lambda: ([], []))
with open("protocol.csv") as fh:
    for row in csv.DictReader(r for r in fh if not r.startswith("#")):
        xs, ys = series[row["T_seconds"]]
        xs.append(float(row["tau_over_td"]))
        ys.append(float(row["p_N"]))
for label, (xs, ys) in sorted(series.items(), key=lambda kv: float(kv[0])):
    plt.semilogx(xs, ys, label=f"T = {float(label):.3g} s")
plt.xlabel("tau / t_d")
plt.ylabel("p_N(T)")
plt.legend()
plt.tight_layout()
plt.savefig("protocol.png", dpi=160)
'''

_PLOT_NEPS = '''\
"""Plot the measurement budget N_epsilon versus observation time."""
import csv
from collections import defaultdict
import matplotlib.pyplot as plt

series = defaultdict(lambda: ([], []))
with open("neps.csv") as fh:
    for row in csv.DictReader(r for r in fh if not r.startswith("#")):
        if row["N_epsilon"] == "unbounded":
            continue
        xs, ys = series[row["epsilon"]]
        xs.append(float(row["T_over_td"]))
        ys.append(int(row["N_epsilon"]))
for label, (xs, ys) in sorted(series.items(), key=lambda kv: -float(kv[0])):
    plt.loglog(xs, ys, marker="o", label=f"eps = {float(label):.3g}")
plt.xlabel("T / t_d")
plt.ylabel("N_epsilon")
plt.legend()
plt.tight_layout()
plt.savefig("neps.png", dpi=160)
'''

_COMMANDS = {
    "curve": _cmd_curve,
    "table1": _cmd_table1,
    "protocol": _cmd_protocol,
    "neps": _cmd_neps,
    "timescales": _cmd_timescales,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friedrichs",
        description="Survival probability and measurement protocols for a "
                    "discrete state decaying into a continuum.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--preset", help="named parameter set: "
                        + ", ".join(sorted(PRESETS)))
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--engine", choices=["auto", "quadrature", "exact"],
                        help="amplitude engine override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        _COMMANDS[args.command](_resolve_config(args), out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BoundStateError as exc:
        print(f"physics precondition failed: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
