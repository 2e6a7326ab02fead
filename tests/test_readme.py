"""README's "Quick start" runs as written."""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .helpers import keyrag_env

README = Path(__file__).parents[1] / "README.md"


def _quick_start() -> str:
    """The first sh block under README's "Quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")
def test_readme_quick_start_runs_and_scores_its_question(tmp_path):
    # `keyrag` on PATH runs this checkout's CLI under this interpreter.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "keyrag"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m keyrag.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = keyrag_env(PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    done = subprocess.run(["sh", "-e", "-c", _quick_start()], cwd=tmp_path, env=env,
                          capture_output=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert "accuracy         1.0000" in done.stdout
