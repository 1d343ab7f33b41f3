"""Regenerate the reference outputs in bench/reference/ from the program in src/.

    python3 bench/make_reference.py

The references hold the untraced outputs for DEFAULT_SEED: the table1
report (without its seed field), and the first ops of curve_sweep and
patch_sweep, more than one run makes. Regenerate them only with a change
that is meant to alter these outputs, and say so with that change.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import donorgate  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_DIR, Workload  # noqa: E402

N_OPS = {"curve_sweep": 24, "patch_sweep": 400}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ("table1_report", *N_OPS):
        workload = Workload(name, donorgate)
        inputs = workload.inputs(DEFAULT_SEED)
        outs = [workload.normalize(inp, workload.run(inp))
                for inp in islice(inputs, N_OPS.get(name, 1))]
        if name == "table1_report":
            outs = {k: v for k, v in outs[0].items() if k != "seed"}
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(outs, indent=0) + "\n")
        print(f"{name}: wrote {N_OPS.get(name, 1)} op(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
