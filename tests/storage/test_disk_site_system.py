"""Tests for disks, sites and the storage system (C/D/X model)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import StorageConfigError
from repro.storage import DISK_CATALOG, DISK_GROUPS, Disk, Site, StorageSystem
from repro.storage.disk import DiskSpec, pick_disks


class TestCatalog:
    def test_table3_block_times(self):
        """Table III values, to the published digit."""
        assert DISK_CATALOG["barracuda"].block_time_ms == 13.2
        assert DISK_CATALOG["raptor"].block_time_ms == 8.3
        assert DISK_CATALOG["cheetah"].block_time_ms == 6.1
        assert DISK_CATALOG["vertex"].block_time_ms == 0.5
        assert DISK_CATALOG["x25e"].block_time_ms == 0.2

    def test_table3_kinds(self):
        assert DISK_CATALOG["barracuda"].kind == "HDD"
        assert DISK_CATALOG["vertex"].kind == "SSD"
        assert DISK_CATALOG["vertex"].rpm is None

    def test_groups(self):
        assert set(DISK_GROUPS["hdd"]) == {"barracuda", "raptor", "cheetah"}
        assert set(DISK_GROUPS["ssd"]) == {"vertex", "x25e"}
        assert len(DISK_GROUPS["ssd+hdd"]) == 5
        assert DISK_GROUPS["cheetah"] == ("cheetah",)

    def test_spec_validation(self):
        with pytest.raises(StorageConfigError):
            DiskSpec("bad", "X", "Y", "HDD", None, 0.0)
        with pytest.raises(StorageConfigError):
            DiskSpec("bad", "X", "Y", "TAPE", None, 1.0)

    def test_pick_disks_singleton_deterministic(self):
        specs = pick_disks("cheetah", 4)
        assert all(s.name == "cheetah" for s in specs)

    def test_pick_disks_random_group_needs_rng(self):
        with pytest.raises(StorageConfigError, match="rng"):
            pick_disks("ssd", 4)

    def test_pick_disks_random_group(self):
        specs = pick_disks("ssd", 50, np.random.default_rng(0))
        names = {s.name for s in specs}
        assert names <= {"vertex", "x25e"}
        assert len(names) == 2  # both appear with 50 draws

    def test_pick_disks_unknown_group(self):
        with pytest.raises(StorageConfigError, match="unknown disk group"):
            pick_disks("floppy", 1)

    def test_pick_disks_negative_count(self):
        with pytest.raises(StorageConfigError):
            pick_disks("cheetah", -1)


class TestDiskAndSite:
    def test_disk_validation(self):
        with pytest.raises(StorageConfigError):
            Disk(-1, DISK_CATALOG["cheetah"])
        with pytest.raises(StorageConfigError):
            Disk(0, DISK_CATALOG["cheetah"], initial_load_ms=-1)

    def test_site_validation(self):
        with pytest.raises(StorageConfigError):
            Site(-1, 0.0)
        with pytest.raises(StorageConfigError):
            Site(0, -2.0)

    def test_site_disk_ids(self):
        site = Site(0, 1.0, [Disk(0, DISK_CATALOG["vertex"]), Disk(1, DISK_CATALOG["x25e"])])
        assert site.disk_ids() == [0, 1]
        assert site.num_disks == 2


class TestStorageSystem:
    def test_homogeneous_two_sites(self):
        sys_ = StorageSystem.homogeneous(14, "cheetah", num_sites=2, delay_ms=[2, 1])
        assert sys_.num_disks == 14
        assert sys_.num_sites == 2
        assert sys_.site_of(0).delay_ms == 2
        assert sys_.site_of(7).delay_ms == 1
        assert np.all(sys_.costs() == 6.1)

    def test_homogeneous_uneven_split_rejected(self):
        with pytest.raises(StorageConfigError, match="evenly"):
            StorageSystem.homogeneous(7, "cheetah", num_sites=2)

    def test_homogeneous_wrong_delay_count(self):
        with pytest.raises(StorageConfigError):
            StorageSystem.homogeneous(4, "cheetah", num_sites=2, delay_ms=[1.0])

    def test_from_groups(self):
        sys_ = StorageSystem.from_groups(
            ["ssd", "hdd"], 3, delays_ms=[1, 2], rng=np.random.default_rng(0)
        )
        assert sys_.num_disks == 6
        assert all(c <= 0.5 for c in sys_.costs()[:3])  # ssds at site 1
        assert all(c >= 6.1 for c in sys_.costs()[3:])  # hdds at site 2

    def test_from_groups_delay_mismatch(self):
        with pytest.raises(StorageConfigError):
            StorageSystem.from_groups(["ssd"], 3, delays_ms=[1, 2], rng=np.random.default_rng(0))

    def test_dense_ids_enforced(self):
        disks = [Disk(0, DISK_CATALOG["cheetah"]), Disk(2, DISK_CATALOG["cheetah"])]
        with pytest.raises(StorageConfigError, match="dense"):
            StorageSystem([Site(0, 0.0, disks)])

    def test_needs_disks(self):
        with pytest.raises(StorageConfigError):
            StorageSystem([Site(0, 0.0, [])])
        with pytest.raises(StorageConfigError):
            StorageSystem([])

    def test_loads_roundtrip(self):
        sys_ = StorageSystem.homogeneous(4, "raptor")
        sys_.set_loads([1, 2, 3, 4])
        assert sys_.loads().tolist() == [1, 2, 3, 4]

    def test_set_loads_validation(self):
        sys_ = StorageSystem.homogeneous(4, "raptor")
        with pytest.raises(StorageConfigError):
            sys_.set_loads([1, 2])
        with pytest.raises(StorageConfigError):
            sys_.set_loads([1, 2, 3, -1])

    def test_finish_time_formula(self):
        """Table II spot check: D + X + k*C."""
        sys_ = StorageSystem.homogeneous(7, "raptor", delay_ms=2.0)
        sys_.set_loads([1.0] * 7)
        assert sys_.finish_time(0, 1) == pytest.approx(2 + 1 + 8.3)
        assert sys_.finish_time(0, 3) == pytest.approx(2 + 1 + 3 * 8.3)
        assert sys_.finish_time(0, 0) == 0.0

    def test_finish_time_negative_buckets(self):
        sys_ = StorageSystem.homogeneous(2, "raptor")
        with pytest.raises(StorageConfigError):
            sys_.finish_time(0, -1)

    def test_capacity_at_inverts_finish_time(self):
        sys_ = StorageSystem.from_groups(
            ["ssd+hdd", "ssd+hdd"], 5, delays_ms=[2, 4], rng=np.random.default_rng(1)
        )
        sys_.set_loads(np.arange(10, dtype=float))
        for d in range(10):
            for k in (1, 2, 7):
                t = sys_.finish_time(d, k)
                assert sys_.capacity_at(d, t) == k
                assert sys_.capacity_at(d, t - 1e-6) == k - 1

    def test_capacity_at_before_delay_is_zero(self):
        sys_ = StorageSystem.homogeneous(2, "cheetah", delay_ms=10.0)
        assert sys_.capacity_at(0, 5.0) == 0

    def test_unknown_disk_rejected(self):
        sys_ = StorageSystem.homogeneous(2, "cheetah")
        with pytest.raises(StorageConfigError):
            sys_.disk(5)
        with pytest.raises(StorageConfigError):
            sys_.capacity_at(-3, 1.0)

    def test_capacities_at_matches_capacity_at_with_and_without_terms(self):
        # the batch rescale, from a fresh or a snapshotted rescale_terms,
        # is bit-identical to the per-disk capacity_at, on and next to
        # every exact finish time
        rng = np.random.default_rng(7)
        for _ in range(20):
            sys_ = StorageSystem.from_groups(
                ["ssd+hdd", "ssd+hdd"], 4,
                delays_ms=rng.uniform(0, 8, size=2).tolist(), rng=rng,
            )
            sys_.set_loads(rng.uniform(0, 6, size=sys_.num_disks))
            terms = sys_.rescale_terms()
            ts = [float(rng.uniform(0, 60)) for _ in range(5)]
            for d in range(sys_.num_disks):
                t = sys_.finish_time(d, int(rng.integers(1, 9)))
                ts += [t, math.nextafter(t, -math.inf)]
            for t in ts:
                expected = [
                    sys_.capacity_at(j, t) for j in range(sys_.num_disks)
                ]
                assert sys_.capacities_at(t) == expected
                assert sys_.capacities_at(t, terms) == expected
