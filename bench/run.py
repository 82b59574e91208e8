"""Benchmark of the friedrichs library: one workload per run.

    python3 bench/run.py --workload curve --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its `src`
directory.  The run

1. runs a fixed number of rounds of the workload's items, untraced; the
   number is set by `--seconds` alone (about `--seconds` of busy time for
   the starting code), so every version of the code does the same work.
   A fixed kernel that does not use the library is timed between items
   (reference.py), and every timed interval is read at the reference
   machine speed: scaled by REF_S over the kernel's median time around
   it.  `items_per_s` is all items over all busy time so scaled;
2. sets the workload up SETUP_REPEATS times, spread over the rounds, each
   time on a fresh import of the package, runs every round on the latest
   set-up and reports the median scaled set-up time as `setup_s`;
3. checks every item's output outside the timed rounds;
4. with `--trace 1`, sets up and runs round 0 twice more with every layer
   wrapped (each time on a fresh import), and reports per-layer counts and
   self times of the first pass; the two passes must agree exactly on
   counts and failures.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `failed` counts items whose
output is wrong, did not repeat bit for bit, or raised a library error.
`correct` is false when an item without a known defect of the library
fails, or when the run cannot vouch for its own numbers (a layer predicted
to work recording no calls, traced passes that disagree).  Details, spans
and the environment go to .bench_out/.
"""

import os

# One thread for BLAS/OpenMP pools, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import REF_S, Reference  # noqa: E402
from spans import Layer, Tracer  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 16
BUSY_CAP = 4       # a run stops early after BUSY_CAP * --seconds of busy time
TRACE_PASSES = 2


def _size(params, ff, x):
    return int(np.size(x))


def _panel_points(fvec, start, n_panels, h, s):
    return int(n_panels) * sys.modules["friedrichs.quadrature"]._GL_NODES.size


LAYERS = [
    Layer("formfactors.moment", "formfactors", "moment"),
    Layer("dispersion.spectral_density", "dispersion", "spectral_density",
          points=_size, hot=True),
    Layer("dispersion.spectral_peak", "dispersion", "spectral_peak"),
    Layer("dispersion.resonance_roots", "dispersion", "resonance_roots"),
    Layer("dispersion.eta_second_sheet", "dispersion", "eta_second_sheet"),
    Layer("quadrature.quad_complex", "quadrature", "quad_complex", hot=True),
    Layer("quadrature.quad_segments", "quadrature", "quad_segments"),
    Layer("quadrature.panel_integrals", "quadrature", "panel_integrals",
          points=_panel_points, hot=True),
    Layer("quadrature.byparts", "quadrature", "byparts_segment"),
    Layer("quadrature.byparts", "quadrature", "byparts_tail"),
    Layer("quadrature.oscillatory_tail", "quadrature", "oscillatory_tail"),
    Layer("quadrature.oscillatory_finite", "quadrature", "oscillatory_finite"),
    Layer("amplitude.quadrature", "amplitude", "survival_amplitude_quadrature",
          engine=True),
    Layer("amplitude.phi1_exact", "amplitude", "survival_amplitude_phi1_exact",
          engine=True),
    Layer("amplitude.phi2_poles", "amplitude", "survival_amplitude_phi2",
          engine=True),
    Layer("amplitude.deficit", "amplitude", "survival_deficit", engine=True),
    Layer("amplitude.short_time_expansion", "amplitude", "short_time_expansion"),
    Layer("amplitude.sample_curve", "amplitude", "sample_curve"),
    # defined in amplitude; the boundary protocols call through
    Layer("protocols.log_survival", "amplitude", "log_survival"),
    Layer("protocols.anti_zeno_minimum", "protocols", "anti_zeno_minimum"),
    Layer("protocols.n_epsilon", "protocols", "n_epsilon"),
    Layer("protocols.protocol_curve", "protocols", "protocol_curve"),
    Layer("timescales.compute_timescales", "timescales", "compute_timescales"),
]

# Layers the prediction list (bench/README.md) says do work on each
# workload, set-up included.  A traced run in which one of them records no
# calls is not correct: a rename or a bypass would otherwise zero a metric.
COVERAGE = {
    "curve": [
        "dispersion.spectral_density", "dispersion.spectral_peak",
        "dispersion.resonance_roots", "quadrature.quad_complex",
        "quadrature.quad_segments", "quadrature.panel_integrals",
        "quadrature.byparts", "quadrature.oscillatory_tail",
        "quadrature.oscillatory_finite", "amplitude.quadrature",
        "amplitude.phi2_poles", "amplitude.sample_curve",
        "amplitude.short_time_expansion", "formfactors.moment",
        "timescales.compute_timescales"],
    "protocol": [
        "dispersion.spectral_density", "dispersion.spectral_peak",
        "dispersion.resonance_roots", "quadrature.quad_complex",
        "quadrature.quad_segments", "amplitude.deficit",
        "amplitude.phi1_exact", "amplitude.phi2_poles",
        "amplitude.short_time_expansion", "protocols.log_survival",
        "protocols.anti_zeno_minimum", "protocols.n_epsilon",
        "protocols.protocol_curve", "timescales.compute_timescales"],
    "sweep": [
        "dispersion.spectral_density", "dispersion.spectral_peak",
        "dispersion.resonance_roots", "dispersion.eta_second_sheet",
        "quadrature.quad_complex", "quadrature.quad_segments",
        "quadrature.panel_integrals", "amplitude.quadrature",
        "amplitude.phi1_exact", "amplitude.phi2_poles",
        "amplitude.short_time_expansion", "formfactors.moment",
        "timescales.compute_timescales"],
}


def fresh_import():
    """Import the package anew, so caches start empty and no wrapper of an
    earlier traced pass remains."""
    for key in [k for k in sys.modules
                if k == "friedrichs" or k.startswith("friedrichs.")]:
        del sys.modules[key]
    F = importlib.import_module("friedrichs")
    if Path(F.__file__).resolve().parent != SRC / "friedrichs":
        raise SystemExit(f"imported friedrichs from {F.__file__}, not {SRC}")
    return F


def run_items(F, items, tracer=None, between=None):
    """Run a round; returns (outputs, (start, end) of each item).  A library
    error is the item's output.  `between` runs before each item, untimed."""
    outputs, spans = [], []
    for item in items:
        if between:
            between()
        if tracer:
            tracer.item = item.id
        start = time.perf_counter()
        try:
            outputs.append(item.run())
        except (F.FriedrichsError, ValueError) as exc:
            outputs.append(exc)
        spans.append((start, time.perf_counter()))
    return outputs, spans


class Tally:
    """Failures over attempted items.  Items that repeat across rounds are
    checked once and must then repeat their first output exactly.
    `unexpected` counts the failures of items that may not fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.first = {}    # item id -> (fingerprint, failures)

    def add(self, wl, items, outputs):
        for item, out in zip(items, outputs):
            self.attempted += item.size
            seen = self.first.get(item.id)
            if seen is None:
                seen = self.first[item.id] = (fingerprint(out),
                                              wl.check(item, out))
            elif seen[0] != fingerprint(out):
                seen = (seen[0], item.size)
            self.failed += seen[1]
            if seen[1] and not wl.may_fail(item):
                self.unexpected += seen[1]


def timed_rounds(name, seed, seconds):
    """The workload's rounds, with its set-ups spread over them, so that
    both sample the machine over the whole run, and the machine-speed
    reference sampled between them.  Returns the tally, the (start, end)
    of each set-up and of each item, the reference and the last workload."""
    cls = WORKLOADS[name]
    n_rounds = cls.rounds(seconds)
    n_setups = max(SETUP_REPEATS, n_rounds)
    ref = Reference()
    tally, setups, spans = Tally(), [], []
    for r in range(n_rounds):
        for _ in range((r + 1) * n_setups // n_rounds - r * n_setups // n_rounds):
            ref.sample()
            # As timeit does: no garbage collection inside the timing, so
            # set-up does not pay for collecting what earlier rounds left.
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            F = fresh_import()
            wl = cls(F, seed, n_rounds)
            setups.append((start, time.perf_counter()))
            gc.enable()
        items = wl.round(r)
        outputs, item_spans = run_items(F, items, between=ref.sample)
        tally.add(wl, items, outputs)
        spans += item_spans
        if sum(e - s for s, e in spans) >= BUSY_CAP * seconds:
            break
    ref.sample(force=True)
    return tally, setups, spans, ref, wl, r + 1


def traced_pass(name, seed, seconds):
    """Set-up and round 0 with every layer wrapped, on a fresh import."""
    F = fresh_import()
    tracer = Tracer()
    tracer.install(LAYERS)
    tracer.item = "setup"
    wl = WORKLOADS[name](F, seed, WORKLOADS[name].rounds(seconds))
    items = wl.round(0)
    outputs, spans = run_items(F, items, tracer)
    busy = sum(e - s for s, e in spans)
    tracer.active = False
    tally = Tally()
    tally.add(wl, items, outputs)
    cache = F.dispersion._roots_cached.cache_info()
    return {
        "tracer": tracer,
        "rate": sum(item.size for item in items) / busy,
        "fail_ratio": tally.failed / tally.attempted,
        "roots_hit_ratio": cache.hits / max(cache.hits + cache.misses, 1),
    }


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout's own .git, or "unknown" outside a clone."""
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "friedrichs" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    # Python's default: keep the package's bytecode (in src/*/__pycache__,
    # ignored by git) even where PYTHONDONTWRITEBYTECODE is set, so that a
    # fresh import re-runs the modules without recompiling their source and
    # set-up measures the package's own work, not the compiler.
    sys.dont_write_bytecode = False

    tally, setups, spans, ref, wl, n_rounds = timed_rounds(
        args.workload, args.seed, args.seconds)
    if tally.attempted == 0:
        sys.exit("no item ran")
    problems = []
    if tally.unexpected:
        problems.append(f"{tally.unexpected} of {tally.attempted} items failed "
                        "a check or did not repeat bit for bit")
    busy = sum(e - s for s, e in spans)
    busy_ref = sum(ref.scaled(s, e) for s, e in spans)
    setup_ref = [ref.scaled(s, e) for s, e in setups]
    ref_times = [d for _, d in ref.samples]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "rounds": n_rounds,
              "rounds_planned": WORKLOADS[args.workload].rounds(args.seconds),
              "busy_s": busy, "busy_ref_s": busy_ref,
              "items_per_s_raw": tally.attempted / busy,
              "setup_s_raw": statistics.median(e - s for s, e in setups),
              "reference": {"ref_s": REF_S, "samples": len(ref_times),
                            "median_s": statistics.median(ref_times),
                            "min_s": min(ref_times), "max_s": max(ref_times)},
              "item_spans": spans, "setup_spans": setups,
              "reference_samples": ref.samples,
              "attempted": tally.attempted, "failed": tally.failed,
              "rejected_draws": getattr(wl, "rejected", 0),
              "env": environment()}
    if not args.trace:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "items_per_s": (tally.attempted / busy_ref, "1/s"),
            "pass_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB"),
        }
    else:
        wanted = spec["per_layer"]
        passes = [traced_pass(args.workload, args.seed, args.seconds)
                  for _ in range(TRACE_PASSES)]
        first = passes[0]
        tables = [p["tracer"].layer_table() for p in passes]
        counts = [{(k, f): row[f] for k, row in t.items()
                   for f in ("calls", "points")} for t in tables]
        if any(c != counts[0] for c in counts) or any(
                p["fail_ratio"] != first["fail_ratio"] for p in passes):
            problems.append("traced passes disagree on counts or failures")
        layers = tables[0]
        for name in COVERAGE[args.workload]:
            if layers.get(name, {}).get("calls", 0) == 0:
                problems.append(f"layer {name} recorded no calls")
        values = {}
        for layer in {lay.name for lay in LAYERS}:
            row = layers.get(layer, {"calls": 0, "points": 0, "self_s": 0.0})
            values[f"{layer}.calls"] = (row["calls"], "count")
            values[f"{layer}.points"] = (row["points"], "count")
            values[f"{layer}.self_s"] = (row["self_s"], "s")
        values["dispersion.roots_cache.hit_ratio"] = (first["roots_hit_ratio"],
                                                      "ratio")
        values["amplitude.errors"] = (first["tracer"].engine_errors, "count")
        # Round 0 untraced against round 0 traced: the same items.
        round0 = wl.round(0)
        rate0 = (sum(item.size for item in round0)
                 / sum(e - s for s, e in spans[:len(round0)]))
        values["trace.overhead_ratio"] = (
            rate0 / min(p["rate"] for p in passes), "ratio")
        report["layers"] = layers
        report["traced_fail_ratio"] = first["fail_ratio"]
        report["trace"] = first["tracer"].dump()

    report["problems"] = problems
    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    report["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1))
    for problem in problems:
        print(f"# problem: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={n_rounds} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"fail_ratio={tally.failed / tally.attempted:.4g} "
          f"rejected_draws={report['rejected_draws']} "
          f"details={out_file.relative_to(ROOT)}")
    print("# env " + json.dumps(report["env"]))
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
