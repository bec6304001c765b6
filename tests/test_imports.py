"""`import combdim` loads numpy and the standard library only: scipy and
the process pool are imported where they run, so no command pays their
start-up cost unless it uses them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_scipy_nor_the_process_pool():
    code = ("import sys, combdim, combdim.cli; print([m for m in "
            "('scipy', 'concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
