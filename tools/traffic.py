"""List the package's statement lines that no CLI run executes.

    python tools/traffic.py

runs every command of tools/cli_outputs.py's `runs()` on the package in
this checkout's `src` with one BLAS thread, into a temporary directory,
each in its own forked child process that imports the package afresh,
so every run starts cold, as each CLI call is its own process.  A line
tracer limited to `src/friedrichs` records the lines each child
executes, and the parent merges them.  It then prints each statement
line that no run executed, as `module.py:LINE: source`, and a count per
module, `module.py: N of M statement lines unexecuted`.  A statement line
is a line that holds bytecode; docstrings are left out.  A claim that no
measured traffic takes some path is checked by finding the path's lines
here.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import pickle
import sys
import tempfile
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "friedrichs"


def executed(run, root) -> set:
    """The (file name, line) pairs that run() executes in files under the
    directory root.  run() runs in a forked child process: it starts from
    this process's state, and whatever it imports or caches goes with the
    child."""
    root = os.path.join(str(root), "")
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:                                        # the child
        os.close(read)
        hits, status = set(), 1

        def line(frame, event, arg):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return line

        def call(frame, event, arg):
            if frame.f_code.co_filename.startswith(root):
                return line(frame, event, arg)
            return None

        try:
            sys.settrace(call)
            try:
                run()
            finally:
                sys.settrace(None)
            with os.fdopen(write, "wb") as fh:
                pickle.dump(hits, fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    if os.waitpid(pid, 0)[1]:
        raise RuntimeError("the traced run failed in its child process")
    return pickle.loads(data)


def statement_lines(path) -> set:
    """The lines of the module at path that hold bytecode, in any of its
    code objects, its docstrings' lines left out."""
    source = Path(path).read_text()
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(n for _, _, n in code.co_lines() if n)   # None, 0: no line
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def unexecuted(path, hits) -> list:
    """The statement lines of the module at path missing from hits."""
    ran = {n for name, n in hits if name == str(path)}
    return sorted(statement_lines(path) - ran)


def main(argv=None) -> int:
    if (sys.argv[1:] if argv is None else argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "cli_outputs", Path(__file__).with_name("cli_outputs.py"))
    cli_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_outputs)

    def run(sub, args):
        from friedrichs.cli import main as cli
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            if cli([*args, "--out", os.path.join(out, sub)]) != 0:
                raise SystemExit(f"{sub}: the CLI run failed")

    hits = set()
    for sub, args in cli_outputs.runs():
        hits |= executed(lambda: run(sub, args), PACKAGE)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unexecuted(path, hits)
        source = path.read_text().splitlines()
        for n in missed:
            print(f"{path.name}:{n}: {source[n - 1].strip()}")
        counts.append(f"{path.name}: {len(missed)} of "
                      f"{len(statement_lines(path))} statement lines unexecuted")
    print("\n".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
