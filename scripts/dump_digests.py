"""Per-file sha256 digests of the dumps ``write_world`` writes.

Builds one world, writes it to a temporary directory and records one
``<sha256>  <relative path>`` line per file (``sha256sum`` format,
sorted by path).  The committed digest files under ``tests/golden/``
pin every written byte: a change to the generator or a serializer that
alters any dump shows up as a differing line.

    PYTHONPATH=src python scripts/dump_digests.py --world small --seed 7 \\
        --out tests/golden/dumps_small_world.sha256
    PYTHONPATH=src python scripts/dump_digests.py --world medium \\
        --seed 20240402 --check tests/golden/dumps_medium_seed1.sha256

``--world small`` is ``small_world(seed)``; any other name is the
``bench_world`` tier of that name.  ``--check`` exits 1 and lists the
differing files when the digests do not match.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.simulation import bench_world, build_world, small_world
from repro.simulation.io import write_world


def dump_digests(world: str, seed: int) -> Dict[str, str]:
    """Relative path → sha256 of every file written for the world."""
    scenario = small_world(seed=seed) if world == "small" else bench_world(
        world, seed
    )
    built = build_world(scenario)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write_world(built, root)
        return {
            path.relative_to(root).as_posix(): hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }


def render(digests: Dict[str, str]) -> str:
    return "".join(f"{digest}  {path}\n" for path, digest in sorted(digests.items()))


def parse(text: str) -> Dict[str, str]:
    digests = {}
    for line in text.splitlines():
        if line.strip():
            digest, path = line.split(None, 1)
            digests[path.strip()] = digest
    return digests


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", default="small")
    parser.add_argument("--seed", type=int, default=7)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", type=Path, help="write the digests here")
    target.add_argument("--check", type=Path, help="compare with this file")
    args = parser.parse_args(argv)
    digests = dump_digests(args.world, args.seed)
    if args.check is not None:
        expected = parse(args.check.read_text())
        differing = sorted(
            path
            for path in set(expected) | set(digests)
            if expected.get(path) != digests.get(path)
        )
        for path in differing:
            print(f"differs: {path}", file=sys.stderr)
        print(f"{len(digests) - len(differing)}/{len(digests)} files match")
        return 1 if differing else 0
    args.out.write_text(render(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
