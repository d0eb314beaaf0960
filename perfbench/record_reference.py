#!/usr/bin/env python3
"""Record the reference values the benchmark checks outputs against.

Run once from the root of a checkout of the commit whose results are the
reference, then commit perfbench/reference.json:

    python3 perfbench/record_reference.py

The matrix cells and comparison verdicts do not depend on the seed
(noise is off), nor do the PID calibration, the default gains, the PID
gain margins and the LQGI linear bandwidth.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

KEYS = ("ki_master", "ki_slave", "K", "K_ff", "L", "gm_master", "gm_slave", "lqgi_bandwidth")


def main() -> int:
    ctx, _ = wl.setup("matrix", 0, 1, None, str(HERE))
    matrix = wl.matrix_pass(ctx, wl.make_inputs("matrix", 0, 1)[0]).outputs
    design = wl.design_pass(ctx, wl.make_inputs("design", 0, 1)[0]).outputs
    reference = {
        "matrix": {"freqs_hz": list(wl.MATRIX_FREQS), "cells": list(wl.CELLS), **matrix},
        "design": {k: design[k] for k in KEYS},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
