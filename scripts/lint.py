#!/usr/bin/env python
"""Repository lint gate: ruff + mypy when available, plus a built-in floor.

The container images used for CI and for offline reproduction do not
always ship ruff/mypy; ``make lint`` must still mean something there.
This runner therefore always enforces a tool-free floor —

* every ``.py`` file compiles (in memory: no ``__pycache__`` is written,
  so running the gate leaves a checkout byte-identical to a fresh one),
* no line exceeds the configured 88-column limit,
* no trailing whitespace, no hard tabs in source lines,

— and additionally runs ``ruff check`` and ``mypy`` (configured in
``pyproject.toml``) whenever those tools are importable.  A missing
tool is reported as skipped, not as a failure.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List

REPO = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "benchmarks", "scripts")
MAX_LINE = 88


def _python_files(repo: Path = REPO) -> Iterator[Path]:
    for name in SOURCE_DIRS:
        root = repo / name
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))


def check_compile(repo: Path = REPO) -> List[str]:
    """Compile every source file in memory; one problem per failure."""
    problems = []
    for path in _python_files(repo):
        try:
            compile(path.read_bytes(), str(path), "exec")
        except (SyntaxError, ValueError) as exc:
            problems.append(
                f"{path.relative_to(repo)}: does not compile ({exc})"
            )
    return problems


def check_style_floor(repo: Path = REPO) -> List[str]:
    problems = []
    for path in _python_files(repo):
        relative = path.relative_to(repo)
        for number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if len(line) > MAX_LINE:
                problems.append(
                    f"{relative}:{number}: line too long "
                    f"({len(line)} > {MAX_LINE})"
                )
            if line != line.rstrip():
                problems.append(
                    f"{relative}:{number}: trailing whitespace"
                )
            if "\t" in line:
                problems.append(f"{relative}:{number}: hard tab")
    return problems


def run_tool(module: str, *arguments: str) -> int:
    """Run an optional tool as ``python -m``; None-like 0 when absent."""
    if importlib.util.find_spec(module) is None:
        print(f"{module}: not installed, skipped")
        return 0
    command = [sys.executable, "-m", module, *arguments]
    print(f"$ {' '.join(command[1:])}")
    return subprocess.run(command, cwd=REPO).returncode


def main() -> int:
    failures = 0

    problems = check_compile() + check_style_floor()
    for problem in problems:
        print(problem)
    if problems:
        failures += 1
    print(f"floor checks: {'FAILED' if problems else 'ok'} "
          f"({sum(1 for _ in _python_files())} files)")

    if run_tool("ruff", "check", *SOURCE_DIRS):
        failures += 1
    if run_tool("mypy"):
        failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
