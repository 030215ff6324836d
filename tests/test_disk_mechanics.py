"""Tests for the mechanical service-time model."""

import pytest

from repro.disk import TABLE2_DISK, lba_to_cylinder, service_components


def _cyl(lba: int) -> int:
    return lba_to_cylinder(TABLE2_DISK, lba)


class TestLbaMapping:
    def test_lba_zero_is_cylinder_zero(self):
        assert lba_to_cylinder(TABLE2_DISK, 0) == 0

    def test_lba_monotone_within_capacity(self):
        quarter = TABLE2_DISK.capacity_bytes // 4
        cyls = [lba_to_cylinder(TABLE2_DISK, i * quarter) for i in range(4)]
        assert cyls == sorted(cyls)

    def test_cylinder_in_range(self):
        c = lba_to_cylinder(TABLE2_DISK, TABLE2_DISK.capacity_bytes - 1)
        assert 0 <= c < TABLE2_DISK.cylinders


class TestServiceComponents:
    def test_components_positive_for_random_access(self):
        parts = service_components(
            TABLE2_DISK, 0, _cyl(50 * 2**30), 64 * 1024, 12_000
        )
        assert parts.seek > 0
        assert parts.rotational_latency > 0
        assert parts.transfer > 0
        assert parts.total == pytest.approx(
            parts.seek + parts.rotational_latency + parts.transfer
        )

    def test_sequential_hint_removes_seek(self):
        parts = service_components(
            TABLE2_DISK, 0, _cyl(50 * 2**30), 64 * 1024, 12_000,
            sequential_hint=True
        )
        assert parts.seek == 0.0
        assert parts.rotational_latency == TABLE2_DISK.head_switch_time

    def test_same_cylinder_access_has_no_seek(self):
        head = lba_to_cylinder(TABLE2_DISK, 12345)
        parts = service_components(TABLE2_DISK, head, _cyl(12345), 4096, 12_000)
        assert parts.seek == 0.0

    def test_longer_distance_longer_seek(self):
        near = service_components(TABLE2_DISK, 0, _cyl(2**30), 4096, 12_000)
        far = service_components(TABLE2_DISK, 0, _cyl(90 * 2**30), 4096, 12_000)
        assert far.seek > near.seek

    def test_low_rpm_slows_rotation_and_transfer(self):
        spec = TABLE2_DISK.with_multispeed()
        fast = service_components(spec, 0, _cyl(2**30), 2**20, 12_000)
        slow = service_components(spec, 0, _cyl(2**30), 2**20, 3_600)
        assert slow.rotational_latency > fast.rotational_latency
        assert slow.transfer > fast.transfer

    def test_transfer_scales_with_size(self):
        small = service_components(TABLE2_DISK, 0, 0, 64 * 1024, 12_000)
        big = service_components(TABLE2_DISK, 0, 0, 64 * 1024 * 16, 12_000)
        assert big.transfer > small.transfer

    def test_zero_bytes_allowed(self):
        parts = service_components(TABLE2_DISK, 0, 0, 0, 12_000)
        assert parts.transfer == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            service_components(TABLE2_DISK, 0, 0, -1, 12_000)

    def test_zero_rpm_rejected(self):
        with pytest.raises(ValueError):
            service_components(TABLE2_DISK, 0, 0, 4096, 0)
