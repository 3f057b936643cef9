"""`tools/output_digest.py` prints one SHA-256 per gated workload, the same
on every run of the same code."""

import pathlib
import re
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_digest_lines_are_sha256_and_repeat():
    argv = [sys.executable, str(TOOL), "--steps", "1", "--images", "1"]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    lines = [line.split(" ") for line in runs[0].splitlines()]
    assert [name for name, _ in lines] == ["train_detect", "train_variants", "detect", "verify", "eval"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in lines)
