"""Rewrite the golden expected outputs and list every file that moved.

Usage: ``python tests/golden/update.py``

Runs every case of ``cases.py`` against the ``src/`` tree of this
checkout, prints each output file that is new, gone or different from
``expected/``, and then replaces ``expected/`` with the new outputs. For
a moved JSON or CSV file it prints, per numeric field, the largest
relative change |new - old| / max(|old|, |new|) over the field's
entries; a JSON field is its key path with list positions dropped, a CSV
field its column. Text that is not a number is reported as changed.

Editing an expected file belongs only in a change that means to move
those bytes and lists them; it must never hide a defect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from golden.cases import EXPECTED, run_all  # noqa: E402


def _json_fields(node, path, out):
    if isinstance(node, dict):
        for key, value in node.items():
            _json_fields(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for value in node:
            _json_fields(value, path, out)
    else:
        out[path].append(node)


def _csv_fields(text):
    rows = list(csv.reader(io.StringIO(text)))
    out = defaultdict(list)
    header = rows[0] if rows else []
    for row in rows[1:]:
        for i, cell in enumerate(row):
            name = header[i] if i < len(header) else f"column {i + 1}"
            try:
                out[name].append(float(cell))
            except ValueError:
                out[name].append(cell)
    return out


def _fields(name, text):
    """{field: [values]} of one output file, or None for plain text."""
    if name.endswith(".json"):
        out = defaultdict(list)
        _json_fields(json.loads(text), "", out)
        return out
    if name.endswith(".csv"):
        return _csv_fields(text)
    return None


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _relative_change(old, new):
    if old == new or (isinstance(old, float) and math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def describe(name, old_text, new_text):
    """Lines naming each field of ``name`` that differs between the texts."""
    old, new = _fields(name, old_text), _fields(name, new_text)
    if old is None:
        old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
        for i, (a, b) in enumerate(zip(old_lines, new_lines)):
            if a != b:
                return [f"line {i + 1}: {a!r} -> {b!r}"]
        return [f"{len(old_lines)} -> {len(new_lines)} lines"]
    lines = []
    for field in sorted(old.keys() | new.keys()):
        a, b = old.get(field, []), new.get(field, [])
        if len(a) != len(b):
            lines.append(f"{field}: {len(a)} -> {len(b)} entries")
        elif all(_is_number(x) and _is_number(y) for x, y in zip(a, b)):
            gap = max((_relative_change(x, y) for x, y in zip(a, b)), default=0.0)
            if gap:
                lines.append(f"{field}: largest relative change {gap:.3g}")
        elif a != b:
            lines.append(f"{field}: changed")
    return lines or ["same values, different bytes"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir, failed = run_all(Path(tmp))
        if failed:
            print("cases that exited nonzero: " + ", ".join(failed))
        old_names = {p.name for p in EXPECTED.glob("*")}
        new_names = {p.name for p in out_dir.iterdir()}
        moved = 0
        for name in sorted(old_names | new_names):
            if name not in new_names:
                print(f"gone: {name}")
            elif name not in old_names:
                print(f"new: {name}")
            else:
                old_bytes = (EXPECTED / name).read_bytes()
                new_bytes = (out_dir / name).read_bytes()
                if old_bytes == new_bytes:
                    continue
                print(f"moved: {name}")
                for line in describe(name, old_bytes.decode(), new_bytes.decode()):
                    print(f"  {line}")
            moved += 1
        shutil.rmtree(EXPECTED, ignore_errors=True)
        shutil.copytree(out_dir, EXPECTED)
    print(f"{moved} of {len(new_names)} files moved; {EXPECTED} rewritten")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
