"""Byte identity: every command in configs/pins.json, run in-process, at its digests.

``python -m pytest tests/test_pins.py -q`` is the one command that shows a
change keeps every pinned command output; the manifest's other entries are
read by the test files their ``check`` names. A pin is never re-recorded: an
output that moves is a change in results.
"""

import contextlib
import hashlib
import io
import re

import pytest

from conftest import ROOT, load_pins
from rankphase.cli import main
from rankphase.simulate import THREADS_ENV_VAR

# the commands that run a thread pool: their bytes must not depend on its size
POOLED = ("simulate", "phase-diagram")


def _runs():
    for entry in load_pins():
        if "argv" not in entry:
            continue
        if entry["argv"][0] in POOLED:
            for workers in (1, 2):
                yield pytest.param(entry, workers, id=f"{entry['id']}@{workers}")
        else:
            yield pytest.param(entry, None, id=entry["id"])


@pytest.mark.parametrize("entry, workers", list(_runs()))
def test_command_at_pinned_digests(entry, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    if workers is not None:
        monkeypatch.setenv(THREADS_ENV_VAR, str(workers))
    argv = [arg.replace("{out}", str(tmp_path)) for arg in entry["argv"]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{entry['id']}: exit {code}"
    wrong = []
    for name, expected in entry["sha256"].items():
        data = stdout.getvalue().encode() if name == "stdout" else (tmp_path / name).read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            wrong.append(f"{entry['id']}: {name} expected {expected}, got {actual}")
    assert not wrong, "\n".join(wrong)


def test_manifest_names_every_pinned_config():
    named = {arg for entry in load_pins() for arg in entry.get("argv", ())}
    configs = [*ROOT.glob("configs/pin_*.json"), ROOT / "configs" / "phase_diagram_default.json"]
    paths = [p.relative_to(ROOT).as_posix() for p in configs]
    assert [path for path in paths if path not in named] == []


def test_manifest_entries_are_well_formed():
    entries = load_pins()
    ids = [entry["id"] for entry in entries]
    assert len(set(ids)) == len(ids)
    for entry in entries:
        assert entry["note"], entry["id"]
        digests = entry["sha256"].values()
        assert digests and all(re.fullmatch("[0-9a-f]{64}", d) for d in digests), entry["id"]
        # a command the runner above makes, or a test of its own that reads it by id
        assert ("argv" in entry) != ("check" in entry), entry["id"]
        if "check" in entry:
            assert f'"{entry["id"]}"' in (ROOT / entry["check"]).read_text(), entry["id"]
