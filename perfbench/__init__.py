"""End-to-end and per-layer benchmark of fdsim Monte-Carlo sweeps.

Run ``python3 perfbench/run.py --workload NAME`` from the repository root;
see ``perfbench/README.md``.
"""

import sys
from pathlib import Path

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent
#: Where fdsim is imported from: the checkout's own sources, never an
#: installed copy.
SRC = ROOT / "src"
#: Results, spans and other run output (ignored by git).
OUT = ROOT / ".perfbench_out"


def use_checkout_fdsim() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises ``FileNotFoundError`` when the checkout holds no fdsim sources,
    so the benchmark cannot silently measure some other copy.
    """
    if not (SRC / "fdsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fdsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
