"""Report how far the values moved between two CLI output trees.

    python tools/compare_outputs.py A B

A and B are directories written by tools/cli_outputs.py.  For each file
that differs between them it prints how many rows moved and, per numeric
column, how many of its values moved and the largest relative move
|a - b| / max(|a|, |b|).  Lines that start with `#` are skipped.  A CSV's
columns are named by its header row; in any other file each line is its
own row, and its numbers are the columns `label[k]`, label the text
before its first `=` (or its first word) and k their order in the line.
A field that is not a number counts as moved when its text differs.
Identical files are counted, not listed; a file in one tree only is
named.  `diff -r A B` shows which lines differ; this shows by how much.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _rows(path: Path):
    """(column names, rows of fields) of a file, `#` lines and blank lines
    left out."""
    lines = [line for line in path.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    if path.suffix == ".csv" and lines:
        return lines[0].split(","), [line.split(",") for line in lines[1:]]
    names, rows = [], []
    for line in lines:
        label, _, rest = line.partition("=" if "=" in line else " ")
        fields = _NUMBER.findall(rest)
        names.append([f"{label.strip()}[{k}]" for k in range(len(fields))])
        rows.append([label + _NUMBER.sub("#", rest)] + fields)
    return names, rows


def _move(a: str, b: str):
    """The relative move from a to b, or None when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    scale = max(abs(x), abs(y))
    return 0.0 if x == y else abs(x - y) / scale if scale else 0.0


def compare(a: Path, b: Path) -> list[str]:
    """The report lines for one pair of differing files."""
    names_a, rows_a = _rows(a)
    names_b, rows_b = _rows(b)
    if len(rows_a) != len(rows_b) or (a.suffix == ".csv" and names_a != names_b):
        return [f"  shapes differ: {len(rows_a)} against {len(rows_b)} rows"]
    moved, columns = 0, {}            # column name -> [values moved, largest]
    for k, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra == rb:
            continue
        moved += 1
        if len(ra) != len(rb):
            columns.setdefault("(row layout)", [0, None])[0] += 1
            continue
        if a.suffix == ".csv":
            names = names_a
        else:                          # the text between the numbers first
            names = ["(text)"] + names_a[k]
        for name, x, y in zip(names, ra, rb):
            if x == y:
                continue
            entry = columns.setdefault(name, [0, None])
            entry[0] += 1
            rel = _move(x, y)
            if rel is not None:
                entry[1] = rel if entry[1] is None else max(entry[1], rel)
    out = [f"  {moved} of {len(rows_a)} rows moved"]
    width = max(map(len, columns), default=0)
    for name, (count, rel) in columns.items():
        what = "text differs" if rel is None else f"largest relative move {rel:.2g}"
        out.append(f"    {name:<{width}}  {count} moved, {what}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (Path(p) for p in argv)
    files = sorted({p.relative_to(root) for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    same = 0
    for rel in files:
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            print(f"{rel}: only in {a if fa.is_file() else b}")
        elif fa.read_bytes() == fb.read_bytes():
            same += 1
        else:
            print(f"{rel}:")
            print("\n".join(compare(fa, fb)))
    print(f"{same} of {len(files)} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
