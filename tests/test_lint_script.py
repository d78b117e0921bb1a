"""The ``make lint`` floor: compile and style checks without side effects."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lint.py"


def _lint_module():
    spec = importlib.util.spec_from_file_location("repo_lint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root):
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("VALUE = 1\n")
    (package / "broken.py").write_text("def oops(:\n    pass\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_ok.py").write_text("x = 'y' * 100\n")
    return root


def test_compile_floor_reports_each_broken_file(tmp_path):
    lint = _lint_module()
    problems = lint.check_compile(_tree(tmp_path))
    assert len(problems) == 1
    assert problems[0].startswith("src/pkg/broken.py: does not compile")


def test_floor_checks_leave_no_bytecode_behind(tmp_path):
    lint = _lint_module()
    root = _tree(tmp_path)
    lint.check_compile(root)
    lint.check_style_floor(root)
    assert not list(root.rglob("__pycache__"))
    assert not list(root.rglob("*.pyc"))


def test_style_floor_flags_long_lines(tmp_path):
    lint = _lint_module()
    root = _tree(tmp_path)
    (root / "tests" / "test_long.py").write_text("x = 1" + " " * 3 + "\n")
    (root / "scripts").mkdir()
    (root / "scripts" / "wide.py").write_text("y = '" + "z" * 90 + "'\n")
    problems = lint.check_style_floor(root)
    assert any("scripts/wide.py:1: line too long" in p for p in problems)
    assert any("tests/test_long.py:1: trailing whitespace" in p
               for p in problems)
