"""README.md names only benchmark scripts that the checkout holds, and
quotes the signatures of qbuffer's functions as they are."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import qbuffer

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

#: A path such as ``perfbench/run.py`` or ``benchmarks/compare_outputs.py``.
SCRIPT = re.compile(r"\b(?:benchmarks|perfbench)/[\w-]+\.py\b")

#: A call in a backticked span, ``name(a, b=None, *, c)``, with an
#: optional ``module.`` qualifier; its arguments hold no parentheses.
CALL = re.compile(r"(?:(\w+)\.)?(\w+)\(([^()`]*)\)")

#: One quoted parameter: a name, with or without a default, or ``*``.
PARAM = re.compile(r"\s*(\*|\w+)(?:\s*=.*)?\s*", re.S)


def _functions():
    """(module, name) and name -> each public function of a qbuffer
    module; a name two modules define is found only with its module."""
    by_module, counts = {}, {}
    for info in pkgutil.iter_modules(qbuffer.__path__):
        mod = importlib.import_module(f"qbuffer.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and not name.startswith("_") \
                    and obj.__module__ == mod.__name__:
                by_module[info.name, name] = obj
                counts[name] = counts.get(name, 0) + 1
    bare = {name: fn for (_, name), fn in by_module.items()
            if counts[name] == 1}
    return by_module, bare


def _quoted_signatures():
    """(quoted text, function, parameter list) of each signature README
    quotes in a backticked span outside the code blocks."""
    by_module, bare = _functions()
    text = re.sub(r"```.*?```", "", README, flags=re.S)
    out = []
    for span in re.findall(r"`([^`]+)`", text):
        for match in CALL.finditer(span):
            module, name, args = match.groups()
            fn = by_module.get((module, name)) if module else bare.get(name)
            # A call with other arguments, ``(...)`` among them, is an
            # example, not a signature.
            items = [PARAM.fullmatch(a) for a in args.split(",")]
            if fn is None or not all(items):
                continue
            quoted = " ".join(match.group(0).split()).replace("( ", "(")
            out.append((quoted, fn, [m.group(1) for m in items]))
    return out


SIGNATURES = _quoted_signatures()


def test_named_scripts_exist():
    named = set(SCRIPT.findall(README))
    assert {"perfbench/run.py", "benchmarks/compare_outputs.py"} <= named
    missing = sorted(p for p in named if not (ROOT / p).is_file())
    assert not missing, f"README.md names missing scripts: {missing}"


def test_signatures_are_found():
    quoted = {fn.__name__ for _, fn, _ in SIGNATURES}
    assert {"simulate", "run_retrieval_sweep", "run_hwp_sweep", "calibrate",
            "sample_clicks", "click_probability"} <= quoted


@pytest.mark.parametrize("quoted, fn, params", SIGNATURES,
                         ids=[q for q, _, _ in SIGNATURES])
def test_quoted_signature_matches(quoted, fn, params):
    """Each quoted parameter is the function's, in order: a prefix of its
    parameter list, with ``*`` where the keyword-only ones begin."""
    real = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in real:
            real.append("*")
        real.append(p.name)
    assert params == real[:len(params)], \
        f"README quotes {quoted}; the signature is {fn.__name__}" \
        f"({', '.join(real)})"
