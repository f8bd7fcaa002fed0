"""Tests of the host-pace rescaling: probe subtraction, speed windows and the timer."""

import signal
import time

import pytest

import pace


def _pacer(starts, durations):
    p = pace.Pacer()
    p.starts, p.durations = list(starts), list(durations)
    return p


def test_paced_subtracts_probes_and_rescales_by_their_median():
    # six probes inside [0, 1]: four at twice the nominal time, two at the nominal time
    durations = [2 * pace.NOMINAL_S] * 4 + [pace.NOMINAL_S] * 2
    p = _pacer([0.1 * k for k in range(1, 7)], durations)
    assert p.paced(0.0, 1.0) == pytest.approx((1.0 - sum(durations)) / 2)


def test_a_short_interval_uses_the_probes_nearest_its_midpoint():
    starts = [float(k) for k in range(10)]
    durations = [pace.NOMINAL_S] * 5 + [4 * pace.NOMINAL_S] * 5
    p = _pacer(starts, durations)
    assert p.paced(7.2, 7.4) == pytest.approx(0.2 / 4)
    assert p.paced(0.2, 0.4) == pytest.approx(0.2)
    assert p.pace() == pytest.approx(2.5)


def test_paced_needs_enough_probes():
    with pytest.raises(ValueError):
        _pacer([0.0], [pace.NOMINAL_S]).paced(0.0, 1.0)


def test_timer_probes_until_stopped():
    p = pace.Pacer()
    p.start()
    try:
        end = time.perf_counter() + 10 * pace.PERIOD_S
        while time.perf_counter() < end:
            pass
    finally:
        p.stop()
    assert len(p.durations) >= 5
    assert p.starts == sorted(p.starts)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
