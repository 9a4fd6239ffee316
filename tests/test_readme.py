"""README.md names only benchmark scripts that the checkout holds."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A path such as ``perfbench/run.py`` or ``benchmarks/compare_outputs.py``.
SCRIPT = re.compile(r"\b(?:benchmarks|perfbench)/[\w-]+\.py\b")


def test_named_scripts_exist():
    named = set(SCRIPT.findall((ROOT / "README.md").read_text()))
    assert {"perfbench/run.py", "benchmarks/compare_outputs.py"} <= named
    missing = sorted(p for p in named if not (ROOT / p).is_file())
    assert not missing, f"README.md names missing scripts: {missing}"
