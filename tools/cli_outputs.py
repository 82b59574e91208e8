"""Write every CLI output of this checkout under one directory.

    python tools/cli_outputs.py OUT

runs, each as its own process on the package in this checkout's `src`
with one BLAS thread (OPENBLAS_NUM_THREADS=1) and OUT as its working
directory, `curve`, `protocol`, `neps` and `timescales` for each preset,
`curve --engine quadrature` for each preset, a `curve` of a tabulated
weight, and `table1`, into OUT/<preset>/<command>/ and OUT/table1/, and
prints each run's wall time, one line a run (`1.83 s  hydrogen/neps`).
The tabulated weight's run reads a 161-row phi2 table and its config,
which it writes into OUT/custom/ first.  Run it on two checkouts and
compare them with `diff -r OUT_A OUT_B`: the outputs carry 17
significant digits, so any moved value shows.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("photodetachment", "quantum-dot", "hydrogen")
COMMANDS = ("curve", "protocol", "neps", "timescales")
CUSTOM = "custom"       # the tabulated weight's inputs, under OUT


def write_inputs(out):
    """Into out/custom: phi2 at 161 log-spaced x over [1e-8, 1e8], and the
    config of a three-point curve of it from about 0.1 to 5 t_d at
    quantum-dot (t_d = 6.13e-9 s), which names the table relative to
    out."""
    path = Path(out) / CUSTOM
    path.mkdir(parents=True, exist_ok=True)
    x = np.geomspace(1e-8, 1e8, 161)
    np.savetxt(path / "phi2.tab", np.column_stack([x, x / (1 + x * x) ** 2]))
    (path / "curve.cfg").write_text(
        f"formfactor = custom\ncustom_table = {CUSTOM}/phi2.tab\n"
        "custom_tail_exponent = 3\ncustom_head_exponent = 1\n"
        "t_min_seconds = 6.1e-10\nt_max_seconds = 3.1e-8\nn_points = 3\n")


def runs():
    """(output subdirectory, CLI arguments) of every run."""
    for name in PRESETS:
        for command in COMMANDS:
            yield f"{name}/{command}", [command, "--preset", name]
        yield f"{name}/curve-quadrature", ["curve", "--preset", name,
                                           "--engine", "quadrature"]
    yield "quantum-dot/curve-custom", ["curve", "--preset", "quantum-dot",
                                       "--config", f"{CUSTOM}/curve.cfg"]
    yield "table1", ["table1"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    src = str(ROOT / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    write_inputs(out)
    for sub, args in runs():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "friedrichs.cli", *args,
                        "--out", str(out / sub)],
                       env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
        print(f"{time.perf_counter() - start:.2f} s  {sub}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
