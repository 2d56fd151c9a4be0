#!/usr/bin/env python3
"""Regenerate ``pinned.json``: the answer and final contracted set of every
instance the benchmark can run, at both sizes.

    python3 perfbench/pin.py

Run it only at a commit whose verdicts are trusted; it refuses to pin an
instance on which an oracle disagrees with the solver.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    pinned = {}
    for sizes in workloads.SIZES.values():
        for make in workloads.WORKLOADS.values():
            for s in make(sizes, 0).run_pass():
                if s.error is not None:
                    print(f"{s.key}: {s.error}", file=sys.stderr)
                    return 1
                pinned[s.key] = [s.answer, hex(s.final)]
    path = HERE / "pinned.json"
    lines = [f"{json.dumps(key)}: {json.dumps(pinned[key])}" for key in sorted(pinned)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"pinned {len(pinned)} instances to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
