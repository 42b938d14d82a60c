"""The README's constant and module names against the package."""

import functools
import importlib
import re
from pathlib import Path

import fdsim

#: Backticked ALL-CAPS names in the README that are not fdsim's.
NOT_FDSIM = {"OPENBLAS_NUM_THREADS"}

#: fdsim's constants are all multi-word, so a scheme name such as ``PS``
#: is not taken for one.
CONSTANT = re.compile(r"(?:(\w+)\.)?([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)")
QUALIFIED = re.compile(r"(\w+)((?:\.\w+)+)")


def _readme_tokens() -> list[str]:
    """Every backticked token of the README outside its fenced blocks."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    prose = " ".join(re.sub(r"^```.*?^```$", "", text, flags=re.M | re.S).split())
    return re.findall(r"`([^`]+)`", prose)


def test_readme_constant_and_module_names_exist():
    modules = {path.stem: importlib.import_module(f"fdsim.{path.stem}")
               for path in Path(fdsim.__file__).parent.glob("*.py")
               if path.stem != "__init__"}
    checked, missing = set(), []
    for token in _readme_tokens():
        constant, qualified = CONSTANT.fullmatch(token), QUALIFIED.fullmatch(token)
        if not (constant or qualified and qualified.group(1) in modules):
            continue
        checked.add(token)
        if token in NOT_FDSIM:
            continue
        if qualified and qualified.group(1) in modules:
            try:
                functools.reduce(getattr, qualified.group(2)[1:].split("."),
                                 modules[qualified.group(1)])
            except AttributeError:
                missing.append(token)
        elif constant.group(1) or not any(hasattr(m, token) for m in modules.values()):
            missing.append(token)
    assert missing == []
    # the scan sees both kinds, and the exceptions it allows are still used
    assert {"link.run_trial", "link.MAX_FRAME_SAMPLES", "PSK_TABLES"} <= checked
    assert NOT_FDSIM <= checked
