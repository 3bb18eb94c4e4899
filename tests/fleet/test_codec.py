"""Cross-process codec: exact round-trips and adversarial payloads.

The fleet ships problems and schedules as flat-array payloads; these
tests pin the exactness contract — floats round-trip bit-for-bit, ints
are validated (fractional values raise :class:`~repro.fleet.CodecError`,
a :class:`~repro.errors.GraphError`, never silently truncate), any
version but :data:`~repro.fleet.FLAT_PAYLOAD_VERSION` is refused, and a
corrupted assignment is rejected by schedule validation rather than
accepted.
"""

from __future__ import annotations

import json
import math
from array import array

import numpy as np
import pytest

from repro.core import RetrievalProblem, solve
from repro.errors import GraphError, InfeasibleScheduleError
from repro.fleet import (
    CodecError,
    decode_problem,
    decode_schedule,
    encode_problem,
    encode_schedule,
)
from repro.fleet.codec import FLAT_PAYLOAD_VERSION
from repro.storage import StorageSystem

from tests.property.test_differential_fuzz import random_generalized


def small_problem(seed: int = 0) -> RetrievalProblem:
    rng = np.random.default_rng(seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 2, delays_ms=[1.0, 4.0], rng=rng
    )
    return RetrievalProblem(sys_, ((0, 2), (1, 3), (0, 1)))


class TestProblemRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_problems_reconstruct_exactly(self, seed):
        rng = np.random.default_rng(0xC0DEC + seed)
        problem = random_generalized(rng)
        back = decode_problem(encode_problem(problem))

        assert back.replicas == problem.replicas
        assert back.labels == problem.labels
        a, b = problem.system, back.system
        assert b.num_disks == a.num_disks
        for j in range(a.num_disks):
            # finish-time arithmetic must be performed on the *same*
            # floats: C_j, D_j, X_j all bit-for-bit
            for k in (1, 2, 5):
                assert b.finish_time(j, k) == a.finish_time(j, k)
            assert b.disk(j).initial_load_ms == a.disk(j).initial_load_ms
            assert b.disk(j).spec == a.disk(j).spec

    def test_label_tuples_survive(self):
        problem = small_problem()
        labeled = RetrievalProblem(
            problem.system,
            problem.replicas,
            labels=((0, 0), (1, 2), ("row", 3)),
        )
        back = decode_problem(encode_problem(labeled))
        assert back.labels == labeled.labels
        assert all(type(x) is tuple for x in back.labels)

    def test_huge_integer_loads_survive(self):
        """Loads beyond 2**53 round-trip without float truncation."""
        problem = small_problem()
        payload = encode_problem(problem)
        big = float(2**60)
        payload["disk_initial_load_ms"] = array(
            "d", [big] * problem.system.num_disks
        ).tobytes()
        back = decode_problem(payload)
        assert back.system.disk(0).initial_load_ms == big

    def test_fractional_float_loads_are_floats_not_errors(self):
        """Float fields accept fractions — only int fields are strict."""
        problem = small_problem()
        payload = encode_problem(problem)
        loads = array("d")
        loads.frombytes(payload["disk_initial_load_ms"])
        loads[0] = 0.1
        payload["disk_initial_load_ms"] = loads.tobytes()
        back = decode_problem(payload)
        assert back.system.disk(0).initial_load_ms == 0.1


class TestProblemAdversarial:
    # ints that travel as array('q') columns cannot be fractional; the
    # spec table's rpm is the one int field still carried as a scalar
    def test_fractional_rpm_rejected_not_truncated(self):
        payload = encode_problem(small_problem())
        payload["disk_specs"][0][4] = 7200.5
        with pytest.raises(GraphError, match="integral"):
            decode_problem(payload)

    def test_bool_is_not_an_int(self):
        payload = encode_problem(small_problem())
        payload["disk_specs"][0][4] = True
        with pytest.raises(CodecError, match="number"):
            decode_problem(payload)

    def test_empty_sites_rejected(self):
        payload = encode_problem(small_problem())
        payload["site_ids"] = b""
        with pytest.raises(CodecError, match="site_ids"):
            decode_problem(payload)

    def test_empty_replicas_rejected(self):
        payload = encode_problem(small_problem())
        payload["replica_flat"] = b""
        payload["replica_offsets"] = array("q", [0]).tobytes()
        with pytest.raises(CodecError, match="replica_offsets"):
            decode_problem(payload)

    def test_bucket_with_empty_replica_list_rejected(self):
        problem = small_problem()
        payload = encode_problem(problem)
        n = problem.num_buckets
        payload["replica_flat"] = b""
        payload["replica_offsets"] = array("q", [0] * (n + 1)).tobytes()
        with pytest.raises(InfeasibleScheduleError, match="no replicas"):
            decode_problem(payload)

    def test_wrong_version_rejected(self):
        payload = encode_problem(small_problem())
        for version in (1, 3, 99, "2", 2.0, True, None):
            payload["version"] = version
            with pytest.raises(CodecError, match="version"):
                decode_problem(payload)

    def test_missing_version_rejected(self):
        payload = encode_problem(small_problem())
        del payload["version"]
        with pytest.raises(CodecError, match="version None"):
            decode_problem(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(CodecError, match="dict"):
            decode_problem([1, 2, 3])

    def test_codec_error_is_a_graph_error(self):
        # callers that already catch GraphError see codec failures too
        assert issubclass(CodecError, GraphError)


class TestScheduleRoundTrip:
    def test_solved_schedule_reconstructs_exactly(self):
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        back = decode_schedule(encode_schedule(schedule), problem)

        assert back.response_time_ms == schedule.response_time_ms
        assert back.assignment == schedule.assignment
        assert back.solver == schedule.solver
        assert schedule.stats.certified > 0  # the counter is exercised
        for name in ("probes", "certified", "increments", "pushes",
                     "relabels", "augmentations"):
            assert getattr(back.stats, name) == getattr(schedule.stats, name)

    def test_huge_stats_counters_survive(self):
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        payload = encode_schedule(schedule)
        payload["stats"]["pushes"] = 2**63 + 1
        back = decode_schedule(payload, problem)
        assert back.stats.pushes == 2**63 + 1

    def test_extra_is_filtered_to_scalars(self):
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary", trace=True)
        payload = encode_schedule(schedule)
        for value in payload["extra"].values():
            assert isinstance(value, (bool, int, float, str)) or value is None
        json.dumps(payload["extra"])  # the probe trace stayed behind

    def test_wrong_version_rejected(self):
        # the schedule decoder must validate `version` like the problem
        # decoder does — the wire-contract lint rule pins the field as
        # part of the payload contract, so it cannot be silently dropped
        problem = small_problem()
        payload = encode_schedule(solve(problem, solver="pr-binary"))
        payload["version"] = 99
        with pytest.raises(CodecError, match="version"):
            decode_schedule(payload, problem)
        del payload["version"]
        with pytest.raises(CodecError, match="version None"):
            decode_schedule(payload, problem)

    def test_corrupted_assignment_rejected_by_validation(self):
        """A bucket routed off its replica set must raise, not pass."""
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        payload = encode_schedule(schedule)
        pairs = array("q")
        pairs.frombytes(payload["assignment_flat"])
        last = pairs[-2]
        replicas = set(problem.replicas[last])
        bad = next(
            d for d in range(problem.system.num_disks) if d not in replicas
        )
        pairs[-1] = bad
        payload["assignment_flat"] = pairs.tobytes()
        with pytest.raises(InfeasibleScheduleError):
            decode_schedule(payload, problem)

    def test_nan_response_time_roundtrips_as_float(self):
        # json.dumps(float('nan')) is allowed by the stdlib encoder;
        # the decoder must not "validate" it into an int path
        problem = small_problem()
        payload = encode_schedule(solve(problem, solver="pr-binary"))
        assert not math.isnan(payload["response_time_ms"])
        assert type(payload["response_time_ms"]) is float


class TestFlatPayloadRoundTrip:
    """The v2 flat-array wire form: same exactness, columnar layout."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_problems_reconstruct_exactly(self, seed):
        rng = np.random.default_rng(0xF1A7 + seed)
        problem = random_generalized(rng)
        payload = encode_problem(problem, version=FLAT_PAYLOAD_VERSION)
        assert payload["version"] == FLAT_PAYLOAD_VERSION
        back = decode_problem(payload)

        assert back.replicas == problem.replicas
        assert back.labels == problem.labels
        a, b = problem.system, back.system
        assert b.num_disks == a.num_disks
        for j in range(a.num_disks):
            # array('d') stores IEEE doubles verbatim, so the same
            # bit-for-bit contract as v1 holds with zero JSON hops
            for k in (1, 2, 5):
                assert b.finish_time(j, k) == a.finish_time(j, k)
            assert b.disk(j).initial_load_ms == a.disk(j).initial_load_ms
            assert b.disk(j).spec == a.disk(j).spec

    def test_numeric_columns_are_bytes(self):
        payload = encode_problem(small_problem(), version=FLAT_PAYLOAD_VERSION)
        for key in ("site_ids", "site_delay_ms", "site_disk_counts",
                    "disk_ids", "disk_spec_idx", "disk_initial_load_ms",
                    "replica_flat", "replica_offsets"):
            assert isinstance(payload[key], bytes), key

    def test_disk_specs_are_deduplicated(self):
        problem = small_problem()
        payload = encode_problem(problem, version=FLAT_PAYLOAD_VERSION)
        unique = {
            (d.spec.name, d.spec.producer, d.spec.model, d.spec.kind,
             d.spec.rpm, d.spec.block_time_ms)
            for site in problem.system.sites for d in site.disks
        }
        assert len(payload["disk_specs"]) == len(unique)

    def test_label_tuples_survive(self):
        problem = small_problem()
        labeled = RetrievalProblem(
            problem.system,
            problem.replicas,
            labels=((0, 0), (1, 2), ("row", 3)),
        )
        back = decode_problem(
            encode_problem(labeled, version=FLAT_PAYLOAD_VERSION)
        )
        assert back.labels == labeled.labels
        assert all(type(x) is tuple for x in back.labels)

    def test_schedule_reconstructs_exactly(self):
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        payload = encode_schedule(schedule, version=FLAT_PAYLOAD_VERSION)
        assert payload["version"] == FLAT_PAYLOAD_VERSION
        assert isinstance(payload["assignment_flat"], bytes)
        back = decode_schedule(payload, problem)
        assert back.response_time_ms == schedule.response_time_ms
        assert back.assignment == schedule.assignment
        assert back.solver == schedule.solver
        assert schedule.stats.certified > 0  # the counter is exercised
        for name in ("probes", "certified", "increments", "pushes",
                     "relabels", "augmentations"):
            assert getattr(back.stats, name) == getattr(schedule.stats, name)

    def test_huge_stats_counters_survive_v2(self):
        # stats stay a plain dict in v2 precisely because counters may
        # exceed int64 — packing them into array('q') would overflow
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        payload = encode_schedule(schedule, version=FLAT_PAYLOAD_VERSION)
        payload["stats"]["pushes"] = 2**63 + 1
        back = decode_schedule(payload, problem)
        assert back.stats.pushes == 2**63 + 1

    def test_unsupported_version_argument_rejected(self):
        schedule = solve(small_problem(), solver="pr-binary")
        for version in (1, 99):
            with pytest.raises(CodecError, match="version"):
                encode_problem(small_problem(), version=version)
            with pytest.raises(CodecError, match="version"):
                encode_schedule(schedule, version=version)

    def test_default_version_is_the_flat_schema(self):
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        assert encode_problem(problem)["version"] == FLAT_PAYLOAD_VERSION
        assert encode_schedule(schedule)["version"] == FLAT_PAYLOAD_VERSION


class TestFlatPayloadAdversarial:
    def test_truncated_column_rejected(self):
        payload = encode_problem(small_problem(), version=FLAT_PAYLOAD_VERSION)
        payload["disk_ids"] = payload["disk_ids"][:-8]
        with pytest.raises(CodecError, match="disk_ids"):
            decode_problem(payload)

    def test_misaligned_column_rejected(self):
        # a byte count not divisible by 8 cannot be an array('q')
        payload = encode_problem(small_problem(), version=FLAT_PAYLOAD_VERSION)
        payload["site_ids"] = payload["site_ids"] + b"\x00"
        with pytest.raises(CodecError, match="site_ids"):
            decode_problem(payload)

    def test_non_bytes_column_rejected(self):
        payload = encode_problem(small_problem(), version=FLAT_PAYLOAD_VERSION)
        payload["replica_offsets"] = [0, 2, 4]
        with pytest.raises(CodecError, match="replica_offsets"):
            decode_problem(payload)

    def test_spec_index_out_of_range_rejected(self):
        payload = encode_problem(small_problem(), version=FLAT_PAYLOAD_VERSION)
        idx = array("q")
        idx.frombytes(payload["disk_spec_idx"])
        idx[0] = len(payload["disk_specs"])
        payload["disk_spec_idx"] = idx.tobytes()
        with pytest.raises(CodecError, match="disk_spec_idx"):
            decode_problem(payload)

    def test_malformed_spec_row_rejected(self):
        payload = encode_problem(small_problem(), version=FLAT_PAYLOAD_VERSION)
        payload["disk_specs"][0] = ["just", "four", "fields", "here"]
        with pytest.raises(CodecError, match="disk_specs"):
            decode_problem(payload)

    def test_odd_assignment_flat_rejected(self):
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        payload = encode_schedule(schedule, version=FLAT_PAYLOAD_VERSION)
        payload["assignment_flat"] = payload["assignment_flat"] + bytes(8)
        with pytest.raises(CodecError, match="assignment_flat"):
            decode_schedule(payload, problem)

    def test_repeated_bucket_rejected(self):
        # a later pair must not silently overwrite an earlier one, even
        # when both disks are valid replicas of the bucket
        problem = small_problem()
        payload = encode_schedule(solve(problem, solver="pr-binary"))
        payload["assignment_flat"] = array(
            "q", [0, 2, 0, 0, 1, 1, 2, 0]
        ).tobytes()
        with pytest.raises(CodecError, match="repeats bucket 0"):
            decode_schedule(payload, problem)

    def test_corrupted_assignment_rejected_by_validation(self):
        # flat wire form or not, schedule validation still gates entry
        problem = small_problem()
        schedule = solve(problem, solver="pr-binary")
        payload = encode_schedule(schedule, version=FLAT_PAYLOAD_VERSION)
        pairs = array("q")
        pairs.frombytes(payload["assignment_flat"])
        replicas = set(problem.replicas[pairs[0]])
        bad = next(
            d for d in range(problem.system.num_disks) if d not in replicas
        )
        pairs[1] = bad
        payload["assignment_flat"] = pairs.tobytes()
        with pytest.raises(InfeasibleScheduleError):
            decode_schedule(payload, problem)
