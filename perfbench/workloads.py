"""The workloads and the inputs each draws from ``--seed``.

Every workload is a closed loop with one client: the next request starts
when the previous verdict has returned.  ``make`` returns the spec that one
pass (``passrun.py``) executes; the same seed always gives the same spec.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("parallel_sweep", "deep_orders")

#: ``expand`` and ``branch`` requests at 2-4x the default order of 6; about
#: 4 s in all at the seed commit, so a run repeats them three or four times
DEEP_REQUESTS = (
    {"key": "numerator(3,3/2,16)", "op": "numerator", "args": [3, "3/2"], "order": "16"},
    {"key": "numerator(5,1/2,16)", "op": "numerator", "args": [5, "1/2"], "order": "16"},
    {"key": "character(4,1,16)", "op": "character", "args": [4, 1], "order": "16"},
    {"key": "branch(2:0,2:1,12)", "op": "branch", "args": [[2, 0], [2, 1]], "order": "12"},
    {"key": "branch(1:1,1:1,14)", "op": "branch", "args": [[1, 1], [1, 1]], "order": "14"},
    {"key": "theta_inv_half(-1/2,24)", "op": "theta_inv_half", "args": ["-1/2"],
     "order": "24"},
)


def load(name):
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def make(name, seed):
    if name == "parallel_sweep":  # all cases in id order: the seed is unused
        return {"workload": name, "jobs": 2}
    if name == "deep_orders":
        # the seed orders the requests; drawing their sizes would make the
        # run-to-run spread larger than any bound worth setting
        requests = list(DEEP_REQUESTS)
        random.Random(seed).shuffle(requests)
        return {"workload": name, "requests": requests}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
