"""Paper artefacts against their frozen digests (``tests/data/artifact_digests.json``).

The artefact of an experiment is the report file ``repro <name> --out DIR``
writes, ``DIR/<name>.txt``: the report and one newline, the bytes
``results/`` holds.  Stdout carries the same bytes followed by the empty
line that separates experiments in ``repro all``, so it is not the
artefact.  Table II prints HeRAD's full stage lists on the DVB-S2 chains,
Table III the chains themselves and Fig. 5 the streamed pipelines, all at
their defaults (no timing column), so a digest moves only when a schedule
does.

Regenerate (only when an artefact is meant to change)::

    PYTHONPATH=src python -m tests.integration.test_artifact_digests > tests/data/artifact_digests.json
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

_ROOT = Path(__file__).resolve().parent.parent.parent
_FIXTURE = _ROOT / "tests" / "data" / "artifact_digests.json"
_NAMES = ("table2", "table3", "fig5")


def _artifact(name: str, out: Path) -> bytes:
    assert main([name, "--out", str(out)]) == 0
    return (out / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", _NAMES)
def test_artifact_matches_frozen_digest(name, tmp_path, capsys):
    artifact = _artifact(name, tmp_path)
    assert capsys.readouterr().out == artifact.decode() + "\n"
    want = json.loads(_FIXTURE.read_text())["digests"][name]
    assert hashlib.sha256(artifact).hexdigest() == want
    # The committed result is that artefact.
    assert (_ROOT / "results" / f"{name}.txt").read_bytes() == artifact


if __name__ == "__main__":
    import contextlib
    import io

    digests = {}
    with tempfile.TemporaryDirectory() as out:
        for name in _NAMES:
            with contextlib.redirect_stdout(io.StringIO()):
                artifact = _artifact(name, Path(out))
            digests[name] = hashlib.sha256(artifact).hexdigest()
    about = [
        "sha256 of DIR/<name>.txt as written by `repro <name> --out DIR` at "
        "the experiment's defaults.",
        "Regenerate: PYTHONPATH=src python -m "
        "tests.integration.test_artifact_digests > "
        "tests/data/artifact_digests.json",
    ]
    print(json.dumps({"about": about, "digests": digests}, indent=2))
