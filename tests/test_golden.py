"""Golden digests: the runs in ``tests/golden.json`` must write the result
files, manifests and ``validate`` reports recorded there, byte for byte.

``python benchmarks/compare_outputs.py --write-golden`` regenerates the
file, for a declared RNG-stream or format change only.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "benchmarks" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMPARE = _compare_outputs()
GOLDEN = json.loads(COMPARE.GOLDEN.read_text())


@pytest.mark.parametrize("label", sorted(GOLDEN["cases"]))
def test_outputs_match_golden_digests(label):
    case = GOLDEN["cases"][label]
    got, want = COMPARE.digests(case["argv"]), case["digests"]
    if got == want:
        return
    names = sorted(n for n in {*got, *want} if got.get(n) != want.get(n))
    message = (f"{label} (qbuffer {' '.join(case['argv'])}): "
               f"{', '.join(names)} "
               f"{'differs' if len(names) == 1 else 'differ'} from "
               "tests/golden.json")
    env, recorded = COMPARE.golden_environment(), GOLDEN["environment"]
    if env != recorded:
        message += (
            f". This environment ({env}) is not the one the digests were "
            f"written in ({recorded}); numpy's SIMD exp and log can differ "
            "in the last bit between them, so the mismatch may come from "
            "the environment and not from the program")
    else:
        message += (". The environment is the one the digests were written "
                    "in, so the program's output changed; regenerate them "
                    "with `python benchmarks/compare_outputs.py "
                    "--write-golden` only for a declared RNG-stream or "
                    "format change")
    pytest.fail(message)
