import pytest

from repro.fs.errors import InvalidArgument
from repro.fs.ost import OstAllocator


def test_default_configuration_matches_spider():
    alloc = OstAllocator()
    assert alloc.ost_count == 2016
    assert alloc.default_stripe == 4
    assert alloc.max_stripe == 1008


def test_assign_round_robin_advances_cursor():
    alloc = OstAllocator(ost_count=10, default_stripe=2, max_stripe=8)
    s1 = alloc.assign(2)
    s2 = alloc.assign(2)
    assert s2 == (s1 + 2) % 10


def test_assign_wraps_around():
    alloc = OstAllocator(ost_count=8, default_stripe=4, max_stripe=8)
    assert [alloc.assign(4) for _ in range(5)] == [0, 4, 0, 4, 0]
    alloc = OstAllocator(ost_count=10, default_stripe=4, max_stripe=8)
    assert [alloc.assign(4) for _ in range(4)] == [0, 4, 8, 2]


def test_validate_stripe_bounds():
    alloc = OstAllocator(ost_count=100, max_stripe=64)
    with pytest.raises(InvalidArgument):
        alloc.validate(0)
    with pytest.raises(InvalidArgument):
        alloc.validate(65)
    assert alloc.validate(-1) == 64  # lustre's "all OSTs" convention
    assert alloc.validate(64) == 64


def test_max_stripe_clamped_to_ost_count():
    alloc = OstAllocator(ost_count=16, default_stripe=4, max_stripe=1008)
    assert alloc.max_stripe == 16


def test_assign_many_matches_serial_assign():
    serial = OstAllocator(ost_count=32, max_stripe=16)
    batch = OstAllocator(ost_count=32, max_stripe=16)
    for stripes, count in [(4, 3), (8, 5), (1, 2), (16, 4), (3, 7), (-1, 2)]:
        starts_serial = [serial.assign(stripes) for _ in range(count)]
        starts_batch = batch.assign_many(stripes, count)
        assert starts_serial == starts_batch.tolist()
    # both leave the cursor at the same place
    assert serial.assign(1) == batch.assign(1)


def test_assign_many_empty():
    alloc = OstAllocator(ost_count=8)
    out = alloc.assign_many(4, 0)
    assert out.size == 0
    assert alloc.assign(1) == 0


def test_stripe_indices_wraparound():
    alloc = OstAllocator(ost_count=10)
    idx = alloc.stripe_indices(start=8, count=4)
    assert idx.tolist() == [8, 9, 0, 1]


def test_rejects_bad_configuration():
    with pytest.raises(InvalidArgument):
        OstAllocator(ost_count=0)
    with pytest.raises(InvalidArgument):
        OstAllocator(ost_count=10, default_stripe=20, max_stripe=30)
