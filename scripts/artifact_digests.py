#!/usr/bin/env python3
"""Print one `sha256  relative/path` line per file of a run directory.

The lines are sorted by path, and the run's `manifest.txt` is skipped
because it records wall times. A refactor that must not move any output
runs the same pipeline at the parent and at the change and diffs the two
printouts:

    python scripts/artifact_digests.py runs/parent > parent.txt
    python scripts/artifact_digests.py runs/change > change.txt
    diff parent.txt change.txt
"""
import argparse
import hashlib
import sys
from pathlib import Path


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", help="the run directory (the --out of the commands)")
    root = Path(parser.parse_args(argv).run_dir)
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        if rel != "manifest.txt":
            print(f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
