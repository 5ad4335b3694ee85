"""Host-speed scaling: the factor arithmetic and the two samplers."""

import signal
import time

import pytest

import speed
from speed import REFERENCE_S, Sampler, Speedometer, speed_factor


def test_speed_factor_is_the_mean_of_reference_over_probe_times():
    assert speed_factor([REFERENCE_S]) == pytest.approx(1.0)
    assert speed_factor([2 * REFERENCE_S]) == pytest.approx(0.5)
    # Half the stretch at full speed, half at half speed.
    assert speed_factor([REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(0.75)


def test_speedometer_probes_while_the_thread_works(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * REFERENCE_S)
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer(interval=0.01) as meter:
        meter.start()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        probing, factor = meter.stretch()
    assert factor == pytest.approx(0.5)
    assert probing >= 3 * 2 * REFERENCE_S
    assert probing / (2 * REFERENCE_S) == pytest.approx(round(probing / (2 * REFERENCE_S)))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speedometer_takes_probe_time_off_and_scales(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * REFERENCE_S)
    meter = Speedometer(interval=10.0)  # never fires: no samples
    meter.start()
    assert meter.stretch() == (0.0, pytest.approx(0.5))
    meter.start()
    meter._samples = [2 * REFERENCE_S, 2 * REFERENCE_S]
    meter._started -= 1.0
    assert meter.scaled() == pytest.approx((1.0 - 4 * REFERENCE_S) * 0.5, abs=1e-3)


def test_sampler_factor_over_a_window():
    sampler = Sampler()
    sampler.samples = [(1.0, REFERENCE_S), (2.0, 2 * REFERENCE_S), (3.0, REFERENCE_S)]
    assert sampler.factor((1.5, 2.5)) == pytest.approx(0.5)
    assert sampler.factor() == pytest.approx((1.0 + 0.5 + 1.0) / 3)
