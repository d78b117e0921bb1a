"""Golden-regression tests: the small world's tables are pinned JSON.

The fixtures under ``tests/golden/`` are the Table 1 and Table 2
payloads for ``small_world(seed=7)``.  Any classification change —
intended or not — shows up here as a readable JSON diff.  To refresh
after an intentional change::

    PYTHONPATH=src python -m repro.cli infer --data <dir> --json \
        > tests/golden/table1_small_world.json

(and likewise ``evaluate`` for table 2, ``legacy`` and ``rpki`` for
the extension-pipeline fixtures), with ``<dir>`` written by
``repro generate --small --seed 7``.

``dumps_small_world.sha256`` pins every byte ``write_world`` writes for
that world (``make golden-dumps`` regenerates it).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.simulation import build_world, small_world
from repro.simulation.io import write_world

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_world")
    write_world(build_world(small_world(seed=7)), directory)
    return directory


def _cli_json(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return json.loads(buffer.getvalue())


def _golden(name):
    return json.loads((GOLDEN_DIR / name).read_text())


class TestGoldenTables:
    def test_table1_matches_golden(self, data_dir):
        produced = _cli_json(["infer", "--data", str(data_dir), "--json"])
        assert produced == _golden("table1_small_world.json")

    def test_table1_parallel_matches_golden(self, data_dir):
        produced = _cli_json([
            "infer", "--data", str(data_dir), "--json",
            "--workers", "2", "--shard-size", "16",
        ])
        assert produced == _golden("table1_small_world.json")

    def test_table2_matches_golden(self, data_dir):
        produced = _cli_json(["evaluate", "--data", str(data_dir), "--json"])
        assert produced == _golden("table2_small_world.json")


class TestGoldenDumps:
    def test_every_dump_matches_its_digest(self, tmp_path):
        write_world(build_world(small_world(seed=7)), tmp_path)
        expected = {}
        for line in (GOLDEN_DIR / "dumps_small_world.sha256").read_text().splitlines():
            digest, path = line.split(None, 1)
            expected[path] = digest
        produced = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
            for path in tmp_path.rglob("*")
            if path.is_file()
        }
        assert produced == expected


class TestGoldenExtensionPipelines:
    """Legacy and RPKI pipeline outputs are pinned for both the
    frozen-reference path (serial, default) and the sharded engine."""

    def test_legacy_matches_golden(self, data_dir):
        produced = _cli_json(["legacy", "--data", str(data_dir), "--json"])
        assert produced == _golden("legacy_small_world.json")

    def test_legacy_parallel_matches_golden(self, data_dir):
        produced = _cli_json([
            "legacy", "--data", str(data_dir), "--json",
            "--workers", "2", "--shard-size", "1",
        ])
        assert produced == _golden("legacy_small_world.json")

    def test_rpki_matches_golden(self, data_dir):
        produced = _cli_json(["rpki", "--data", str(data_dir), "--json"])
        assert produced == _golden("rpki_small_world.json")

    def test_rpki_parallel_matches_golden(self, data_dir):
        produced = _cli_json([
            "rpki", "--data", str(data_dir), "--json",
            "--workers", "2", "--shard-size", "16",
        ])
        assert produced == _golden("rpki_small_world.json")


class TestGoldenFixtureHygiene:
    """The fixtures themselves must stay diffable: integers only."""

    @pytest.mark.parametrize(
        "name",
        [
            "table1_small_world.json",
            "table2_small_world.json",
            "legacy_small_world.json",
            "rpki_small_world.json",
        ],
    )
    def test_fixture_is_integer_only(self, name):
        def check(value, path="$"):
            if isinstance(value, dict):
                for key, item in value.items():
                    check(item, f"{path}.{key}")
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    check(item, f"{path}[{index}]")
            else:
                assert isinstance(value, (int, str)) and not isinstance(
                    value, bool
                ), f"non-integer leaf at {path}: {value!r}"

        check(_golden(name))
