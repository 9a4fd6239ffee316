"""Golden digests: the runs in ``tests/golden.json`` must exit with the
codes, print the stdout and stderr and write the result files and
manifests recorded there, byte for byte.

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


class TestDifferences:
    """``compare_outputs.py``'s tree mode reports each run that failed and
    each stream or file in which two outcomes differ."""

    OUTCOME = {"exit": 0, "stdout": "a", "stderr": "b", "manifest.json": "c",
               "sweep.csv": "d", "summary.json": "e"}

    def test_equal_outcomes_give_no_problem(self):
        assert COMPARE.differences("x", self.OUTCOME, dict(self.OUTCOME)) \
            == []

    @pytest.mark.parametrize("change, line", [
        ({"sweep.csv": "z"}, "x/sweep.csv: differs"),
        ({"manifest.json": "z"},
         "x/manifest.json: differs apart from duration_s"),
        ({"peaks.csv": "z"}, "x/peaks.csv: only in the new tree"),
        ({"stdout": "z"}, "x: stdout differs"),
        ({"stderr": "z"}, "x: stderr differs"),
    ])
    def test_one_difference_gives_one_line(self, change, line):
        new = {**self.OUTCOME, **change}
        assert COMPARE.differences("x", self.OUTCOME, new) == [line]

    def test_file_only_in_the_old_tree(self):
        new = {k: v for k, v in self.OUTCOME.items() if k != "summary.json"}
        assert COMPARE.differences("x", self.OUTCOME, new) \
            == ["x/summary.json: only in the old tree"]

    @pytest.mark.parametrize("codes", [(2, 2), (0, 3), (2, 0)])
    def test_failed_run_is_reported(self, codes):
        # Also when both trees fail alike, so their outcomes are equal.
        old, new = ({**self.OUTCOME, "exit": code} for code in codes)
        assert COMPARE.differences("x", old, new) \
            == [f"x: exit codes {codes[0]} (old) and {codes[1]} (new)"]
