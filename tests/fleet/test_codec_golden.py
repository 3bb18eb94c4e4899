"""Golden wire digests: the fleet payloads stay byte-for-byte stable.

Each case pins the sha256 of ``pickle.dumps(payload, protocol=5)`` for
the problem and the schedule payload a process lane ships, so a
refactor of :mod:`repro.fleet.codec` that changes a single byte on the
wire (key order, column width, spec-table layout) fails here.

Regenerate (only for a deliberate wire change) with::

    PYTHONPATH=src:. python tests/fleet/test_codec_golden.py
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
        "cadfabb0722a23f579e9c4e492229393760c5dc111363a23f1acf8e22ef1dbdd",
    ),
    "seed-0": (
        "b690b97c66d1bba16e3b21f827e26c2c1ef016e0d5f72d369b9c7d33dda006d3",
        "db88b216983d3e604758fb85d52c7244181dc6b429d3122e7cd9d806df9ef4cd",
    ),
    "seed-1": (
        "ad1a78f9abf76897b52d8293be4730cd46eede93219350562dbed7feceb11e70",
        "7b5ee06cedfe992238d0bdda6a9bb4a7f8590313f4ad822db21426da112a4f70",
    ),
    "seed-2": (
        "180b908dc6c2ff8db7beceed29fbf10967eefeaa1bbd23ad84c798976b961ee1",
        "08ee6455927e1c29579346f170db2bb47b38326e65e8bee7dd20da8a84946e51",
    ),
    "seed-3": (
        "91e9b19e5a965b294c0ed26bf5ea84b4dedab8a136ffa5c4443ab5d0a8e00e28",
        "33bfb79bbf860b19e5313ff1a684b56d0d2b848b686d42fd3cb5cadc8c1999bd",
    ),
    "seed-4": (
        "42c442370bbe78151351c73a3be3f3bd125b6c3b125a2862e37fb7c587816f2b",
        "c07c8df3678a5a218dafe457a393091e2191504446b3b3291f91d99df5449796",
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
