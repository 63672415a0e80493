"""Golden outputs: every CLI run of the manifest reproduces its committed bytes.

The manifest and its expected files are in ``tests/golden/``. A change
that means to move output bytes reruns ``python tests/golden/update.py``,
which rewrites the expected files and lists each moved field.
"""

from golden.cases import EXPECTED, run_all


def test_golden_outputs_are_byte_identical(tmp_path):
    out_dir, failed = run_all(tmp_path)
    assert not failed, f"cases exited nonzero: {failed}"
    expected = sorted(p.name for p in EXPECTED.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == expected
    moved = [
        name for name in expected
        if (out_dir / name).read_bytes() != (EXPECTED / name).read_bytes()
    ]
    assert not moved, (
        f"{len(moved)} golden files moved: {moved}; "
        "`python tests/golden/update.py` lists the changed fields"
    )
