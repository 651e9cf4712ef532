#!/usr/bin/env python3
"""Record the research runners' rows for the lattice-research output checks.

    python3 perfbench/record_expected.py

Run once at a commit whose outputs are the reference (the rows are seeded by
the runner configs, not by the workload seed); it rewrites
perfbench/expected_lattice.json.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import distval  # noqa: E402
import workloads  # noqa: E402
from checks import EXPECTED_FILE  # noqa: E402

if __name__ == "__main__":
    configs = workloads.research_configs()
    expected = {
        "soundness": [distval.run_policy_soundness(c).rows for c in configs["soundness"]],
        "incentive": distval.run_incentive(configs["incentive"][0]).rows,
    }
    with open(EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
