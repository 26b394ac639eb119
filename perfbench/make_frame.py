"""Rewrite crosscheck_frame.json: the best time over two passes of one
crosscheck op on every projection-property diagram of [3]^3, and whether
its Hilbert oracle refused.  The crosscheck workload draws its sample in this cost order, so
every seed gets the same mix of cheap, dear and refused diagrams; the frame
only orders the draw, and every diagram stays equally likely to be drawn.

Usage, from the root of a source checkout (about eight minutes on 2 cores):

    python3 perfbench/make_frame.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


#: Passes over the population; each diagram keeps its fastest time.
PASSES = 2


def main() -> None:
    lib = wl.import_library()
    diagrams = [d for d in lib.families.enumerate_diagrams(3, 3, 3)
                if lib.diagram.has_projection_property(d)]
    best: dict[str, float] = {}
    refused: dict[str, bool] = {}
    for _ in range(PASSES):
        engine = lib.engine.Engine()
        for d in diagrams:
            started = time.perf_counter()
            result = wl.crosscheck_op(lib, engine, d)
            elapsed = time.perf_counter() - started
            if result.status == wl.FAILED:
                raise SystemExit(f"crosscheck failed on {d}: {result.detail}")
            best[str(d)] = min(elapsed, best.get(str(d), elapsed))
            refused[str(d)] = result.status == wl.REFUSED
    rows = [f"  {json.dumps(key)}: {json.dumps([round(best[key], 4), refused[key]])}" for key in best]
    wl.CROSSCHECK_FRAME.write_text('{"box": [3, 3, 3],\n "diagrams": {\n' + ",\n".join(rows) + "\n }\n}\n")


if __name__ == "__main__":
    main()
