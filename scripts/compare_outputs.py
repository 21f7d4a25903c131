#!/usr/bin/env python3
"""Compare two output trees of ``scripts/reproduce_results.py``.

Every CSV and ``models.json`` must match byte for byte, and every
``manifest.json`` key for key, except ``wall_s`` (the harness wall time) and
``scenario`` (the scenario path, which names the checkout). A file that only
one tree has is a difference too. Prints each difference and exits 1 if there
is any, 0 otherwise.

    python scripts/compare_outputs.py results-before results-after
"""
import json
import sys
from pathlib import Path

IGNORED_MANIFEST_KEYS = {"wall_s", "scenario"}


def compared_files(root: Path) -> set[Path]:
    """The CSVs, models and manifests under ``root``, relative to it."""
    return {
        path.relative_to(root)
        for path in root.rglob("*")
        if path.is_file() and (path.suffix == ".csv" or path.name in ("models.json", "manifest.json"))
    }


def differences(a: Path, b: Path) -> list[str]:
    """One line per difference between the trees ``a`` and ``b``."""
    found = []
    files_a, files_b = compared_files(a), compared_files(b)
    for rel in sorted(files_a ^ files_b):
        found.append(f"{rel}: only in {a if rel in files_a else b}")
    for rel in sorted(files_a & files_b):
        if rel.name != "manifest.json":
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                found.append(f"{rel}: contents differ")
            continue
        manifest_a, manifest_b = (json.loads((root / rel).read_text()) for root in (a, b))
        for key in sorted((manifest_a.keys() | manifest_b.keys()) - IGNORED_MANIFEST_KEYS):
            value_a, value_b = manifest_a.get(key, "<missing>"), manifest_b.get(key, "<missing>")
            if value_a != value_b:
                found.append(f"{rel}: key {key!r}: {value_a!r} != {value_b!r}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py A B", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    for root in (a, b):
        if not root.is_dir():
            print(f"{root}: not a directory", file=sys.stderr)
            return 2
    found = differences(a, b)
    print("\n".join(found) if found else f"no differences between {a} and {b}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
