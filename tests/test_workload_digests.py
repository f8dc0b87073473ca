"""Outputs of one benchmark cycle per workload, pinned by digest.

Each workload's seed-1 cycle is built as perfbench/run.py builds it, run
once in-process, and its canonical outputs are hashed in task order.  A
change meant to keep every output bit-identical must keep these digests.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

SEED_1_DIGESTS = {
    "torsion4": "8222f723d28208aa",
    "jet_lift": "e3b85ad000f89081",
    "genpos": "da7a24b47c51a7e7",
    "frame4": "ca8e251e7a6a9c97",
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_1_cycle_keeps_its_digest(name):
    tasks = workloads.build(name, 1, picks=workloads.pick(name, 1))
    assert workloads.digest([workloads.canon(t.call()) for t in tasks]) == \
        SEED_1_DIGESTS[name]
