"""Byte-identity of CLI stdout and exit codes against golden/cli_manifest.json.

The manifest is written by make_cli_manifest.py; see there for its rows.
"""

import hashlib
import json

import pytest

from make_cli_manifest import MANIFEST, run_row

ROWS = json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """The one directory every row runs in, and how many rows ran there."""
    return {"path": tmp_path_factory.mktemp("manifest"), "ran": 0}


@pytest.mark.parametrize("index", range(len(ROWS)), ids=[" ".join(r["argv"]) for r in ROWS])
def test_cli_manifest_row(monkeypatch, manifest_dir, index):
    """A row runs after every row before it, so a `qm` row finds the
    documents the `lift --out` rows wrote, also when a selection skipped
    them: those are run first."""
    monkeypatch.chdir(manifest_dir["path"])
    for skipped in ROWS[manifest_dir["ran"]:index]:
        run_row(skipped["argv"])
    manifest_dir["ran"] = index + 1
    row = ROWS[index]
    code, stdout = run_row(row["argv"])
    if "stdout" in row:
        assert stdout == row["stdout"]
    assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == (row["code"], row["sha256"])
