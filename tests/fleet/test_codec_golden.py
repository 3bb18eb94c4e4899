"""Golden wire digests: the fleet payloads stay byte-for-byte stable.

Each case pins the sha256 of ``pickle.dumps(payload, protocol=5)`` for
the problem and the schedule payload a process lane ships, so a
refactor of :mod:`repro.fleet.codec` that changes a single byte on the
wire (key order, column width, spec-table layout) fails here.

Regenerate (only for a deliberate wire change) with::

    PYTHONPATH=src python tests/fleet/test_codec_golden.py
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core import RetrievalProblem, solve
from repro.fleet import encode_problem, encode_schedule
from repro.fleet.codec import FLAT_PAYLOAD_VERSION

from tests.fleet.test_codec import small_problem
from tests.property.test_differential_fuzz import random_generalized

#: case -> (problem payload sha256, schedule payload sha256)
GOLDEN = {
    "small": (
        "1118d4764043283f9c2629b33521a35dc54aebf8b6b134018519cdbee7ca8153",
        "154ad9a008525ebcb58c58e2deab67b09c97e6a1768d4709ecdb2574702cf59f",
    ),
    "seed-0": (
        "b690b97c66d1bba16e3b21f827e26c2c1ef016e0d5f72d369b9c7d33dda006d3",
        "6200054fa001f82911f1b846702ec23fb59a54216b96351f32ff2ec5096f3330",
    ),
    "seed-1": (
        "ad1a78f9abf76897b52d8293be4730cd46eede93219350562dbed7feceb11e70",
        "f1806e83619d0541e1ff429ff5dd4a975f6444887e6819bdd3b499676014f1f6",
    ),
    "seed-2": (
        "180b908dc6c2ff8db7beceed29fbf10967eefeaa1bbd23ad84c798976b961ee1",
        "f816e4e1ac964473b9d87c358b3fc5ee3362174dbf053163b3060323f58c7346",
    ),
    "seed-3": (
        "91e9b19e5a965b294c0ed26bf5ea84b4dedab8a136ffa5c4443ab5d0a8e00e28",
        "de3a6e4f175e2580aaa3de6a143de1c53502aece8ca516378b9180a495feec1e",
    ),
    "seed-4": (
        "42c442370bbe78151351c73a3be3f3bd125b6c3b125a2862e37fb7c587816f2b",
        "8d4a60a2d6b310517c36eff4bd77368a0b7bff17b2bfffed252983f675679a44",
    ),
}


def _case_problem(case: str) -> RetrievalProblem:
    if case == "small":
        return small_problem()
    return random_generalized(np.random.default_rng(int(case.split("-")[1])))


def _digest(payload: dict) -> str:
    return hashlib.sha256(pickle.dumps(payload, protocol=5)).hexdigest()


def digests(case: str) -> tuple[str, str]:
    problem = _case_problem(case)
    schedule = solve(problem, solver="pr-binary")
    schedule.stats.wall_time_s = 0.0  # the only non-deterministic field
    return (
        _digest(encode_problem(problem, version=FLAT_PAYLOAD_VERSION)),
        _digest(encode_schedule(schedule, version=FLAT_PAYLOAD_VERSION)),
    )


CASES = ["small"] + [f"seed-{s}" for s in range(5)]


@pytest.mark.parametrize("case", CASES)
def test_payload_digests_are_unchanged(case):
    assert digests(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        problem_sha, schedule_sha = digests(case)
        print(f'    "{case}": (\n        "{problem_sha}",\n'
              f'        "{schedule_sha}",\n    ),')
