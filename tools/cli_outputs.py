"""Write every CLI output of this checkout under one directory.

    python tools/cli_outputs.py OUT

runs, each as its own process on the package in this checkout's `src`
with one BLAS thread (OPENBLAS_NUM_THREADS=1), `curve`, `protocol`,
`neps` and `timescales` for each preset, `curve --engine quadrature` for
each preset, and `table1`, into OUT/<preset>/<command>/ and OUT/table1/,
and prints each run's wall time, one line a run (`1.83 s  hydrogen/neps`).
Run it on two checkouts and compare them with `diff -r OUT_A OUT_B`:
the outputs carry 17 significant digits, so any moved value shows.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("photodetachment", "quantum-dot", "hydrogen")
COMMANDS = ("curve", "protocol", "neps", "timescales")


def runs():
    """(output subdirectory, CLI arguments) of every run."""
    for name in PRESETS:
        for command in COMMANDS:
            yield f"{name}/{command}", [command, "--preset", name]
        yield f"{name}/curve-quadrature", ["curve", "--preset", name,
                                           "--engine", "quadrature"]
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
    for sub, args in runs():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "friedrichs.cli", *args,
                        "--out", str(out / sub)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        print(f"{time.perf_counter() - start:.2f} s  {sub}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
