"""Replay of the pinned CLI reports in ``perfbench/expected/bundled-cli.json``.

Every command of the bundled-cli benchmark workload is run through
``cli.run`` from the repository root, whose relative instance paths its
argv names; exit code and stdout must equal the pinned bytes. The file is
only read. The module also runs without pytest:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import json
import os
import sys
from pathlib import Path

from cmdpkit import cli

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "perfbench" / "expected" / "bundled-cli.json").read_text())["commands"]


def _mismatches() -> list[str]:
    """The pinned commands whose (exit code, report) differ, run from the root."""
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        return [
            key for key, pinned in PINNED.items()
            if cli.run(pinned["argv"])[:2] != (pinned["exit"], pinned["stdout"])
        ]
    finally:
        os.chdir(here)


def test_every_pinned_command_prints_its_pinned_bytes():
    assert len(PINNED) == 38
    assert _mismatches() == []


if __name__ == "__main__":
    failed = _mismatches()
    print(f"{len(PINNED) - len(failed)} of {len(PINNED)} pinned commands match", *failed, sep="\n")
    sys.exit(1 if failed else 0)
