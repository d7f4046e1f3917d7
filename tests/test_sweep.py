import os
import subprocess
import sys
from pathlib import Path


def test_sweep_imports_no_command_line():
    # the engine is a library module: a fresh interpreter that imports it
    # loads neither argparse nor the command line that drives it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, mmwsec.sweep\nprint(sorted({'argparse', 'mmwsec.cli'} & sys.modules.keys()))\n"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
