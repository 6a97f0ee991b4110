"""The CLI writes the recorded bytes: each case of ``tests/golden.json`` runs the same.

``tools/golden.py`` holds the cases and rewrites the file (``--write``); a
change that alters an output on purpose names each changed case in
``CHANGES.md``.
"""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_outputs_are_the_recorded_ones(tmp_path, monkeypatch):
    monkeypatch.delenv("MONOCAL_MAX_N", raising=False)
    monkeypatch.chdir(tmp_path)
    got = golden.record()
    want = json.loads(golden.CORPUS.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, f"{len(changed)} cases differ, the first: {changed[:5]}"
