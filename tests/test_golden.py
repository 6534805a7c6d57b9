"""CLI stdout stays byte-identical to the recorded golden corpus.

The corpus (``tests/golden/``) was recorded by ``tests/golden/record.py``
before the exchange and quiver paths, and later the sweep, were
refactored; a difference here is a behaviour change, not a reason to
re-record, and ``record.py`` refuses to overwrite a recorded file.
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from puncgon import cli
from puncgon.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_cli_output_matches_golden(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(MANIFEST[name])
    assert code == 0
    assert buf.getvalue() == (GOLDEN / name).read_text()


def test_one_parser_serves_a_rejection_and_then_a_golden_case(capsys):
    """The parser is built once per process and parsing leaves it as it
    was: after argparse rejects a command, a valid one still gives the
    golden stdout, and both go through one parser."""
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["report", "--n", "5", "--format", "svg"])
    assert info.value.code == 2
    assert "invalid choice: 'svg'" in capsys.readouterr().err
    name = "report-n5.txt"
    assert main(MANIFEST[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
    assert cli.build_parser.cache_info().misses == 1


def _record_copy(tmp_path, edit):
    """Run ``record.py`` on a copy of the corpus after ``edit(copy_dir)``;
    return the exit code and the file names it reports."""
    for path in GOLDEN.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / path.name)
    edit(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "record.py")],
        env=env, capture_output=True, text=True,
    )
    return done.returncode, [line.strip() for line in done.stderr.splitlines()[1:]]


def test_record_adds_missing_files_and_keeps_changed_ones(tmp_path):
    def edit(d):
        (d / "report-n5.txt").write_text("tampered\n")
        (d / "hom-n5-dim2.txt").unlink()

    assert _record_copy(tmp_path, edit) == (1, ["report-n5.txt"])
    assert (tmp_path / "report-n5.txt").read_text() == "tampered\n"
    for name in ("hom-n5-dim2.txt", "MANIFEST.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_record_refuses_to_alter_a_manifest_case(tmp_path):
    manifest = dict(MANIFEST, **{"report-n5.txt": MANIFEST["report-n5.txt"] + ["--no-op"]})
    text = json.dumps(manifest, indent=2) + "\n"

    def edit(d):
        (d / "MANIFEST.json").write_text(text)

    assert _record_copy(tmp_path, edit) == (1, ["MANIFEST.json"])
    assert (tmp_path / "MANIFEST.json").read_text() == text


def test_record_is_a_no_op_on_the_recorded_corpus(tmp_path):
    assert _record_copy(tmp_path, lambda d: None) == (0, [])
