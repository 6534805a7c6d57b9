"""CLI stdout stays byte-identical to the recorded golden corpus.

The corpus (``tests/golden/``) was recorded by ``tests/golden/record.py``
before the exchange and quiver paths were refactored; a difference here is
a behaviour change, not a reason to re-record.
"""

import contextlib
import io
import json
import pathlib

import pytest

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
