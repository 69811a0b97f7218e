"""Tests for the host-speed correction.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import time

import pytest

import hostspeed
from hostspeed import HostSpeed


def _host(samples):
    """A HostSpeed holding (start, python cost) samples; each took its cost in all."""
    host = HostSpeed()
    for start, cost in samples:
        host.starts.append(start)
        host.spent.append(cost)
        host.costs["python"].append(cost)
        host.costs["gemm"].append(cost / 2)
    return host


def test_busy_takes_out_the_samples_inside():
    host = _host([(10.0, 0.002), (10.5, 0.002), (20.0, 0.004)])
    assert host.busy(9.0, 11.0) == pytest.approx(2.0 - 0.004)
    assert host.busy(11.0, 19.0) == pytest.approx(8.0)


def test_seconds_scale_by_the_nearby_reference():
    nominal = hostspeed.NOMINAL_S["python"]
    host = _host([(10.0, 2 * nominal), (10.5, 2 * nominal), (30.0, nominal)])
    # a host running at half the reference speed: the phase counts half
    assert host.seconds(9.8, 11.0) == pytest.approx((1.2 - 4 * nominal) / 2)
    assert host.seconds(29.5, 30.5, "gemm") == pytest.approx(
        (1.0 - nominal) * hostspeed.NOMINAL_S["gemm"] / (nominal / 2))
    # no sample within the pad: the whole run's median
    assert host.seconds(20.0, 21.0) == pytest.approx(1.0 * nominal / (2 * nominal))


def test_without_samples_seconds_are_wall_seconds():
    assert HostSpeed().seconds(1.0, 3.5) == 2.5


def test_sampling_runs_both_references_and_stops():
    host = HostSpeed()
    with host.sampling():
        time.sleep(3 * hostspeed.INTERVAL_S)
    taken = len(host.starts)
    assert taken >= 2
    assert set(host.reference_ms()) == {"python", "gemm"}
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(host.starts) == taken
