"""Unit tests for the passband front-end model."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dsp.passband import PassbandFrontEnd, downconvert, upconvert
from repro.dsp.modulation.dsss import DSSSModulator


@pytest.fixture(scope="module")
def front_end() -> PassbandFrontEnd:
    return PassbandFrontEnd()


def _aligned_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Peak normalised cross-correlation magnitude (alignment-tolerant)."""
    n = min(len(a), len(b))
    a = a[:n]
    b = b[:n]
    corr = np.correlate(a, b, mode="full")
    return float(np.max(np.abs(corr)) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-30))


class TestUpconvert:
    def test_output_is_real_and_longer(self, front_end):
        baseband = np.exp(1j * np.linspace(0, 4 * np.pi, 200))
        passband = front_end.upconvert(baseband)
        assert passband.dtype == np.float64
        assert passband.shape == (200 * front_end.interpolation_factor,)

    def test_spectrum_centred_on_carrier(self, front_end):
        rng = np.random.default_rng(0)
        baseband = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) * 0.5
        passband = front_end.upconvert(baseband)
        spectrum = np.abs(np.fft.rfft(passband))
        freqs = np.fft.rfftfreq(passband.shape[0], d=1.0 / front_end.passband_rate_hz)
        peak_freq = freqs[int(np.argmax(spectrum))]
        assert abs(peak_freq - front_end.carrier_frequency_hz) < front_end.baseband_rate_hz

    def test_power_approximately_preserved(self, front_end):
        rng = np.random.default_rng(1)
        baseband = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        passband = front_end.upconvert(baseband)
        baseband_power = np.mean(np.abs(baseband) ** 2)
        # passband power per *baseband-rate* sample: scale by interpolation factor
        passband_power = np.mean(passband**2)
        assert passband_power == pytest.approx(baseband_power, rel=0.15)

    def test_empty_input(self, front_end):
        assert front_end.upconvert(np.zeros(0, dtype=complex)).shape == (0,)


class TestDownconvert:
    def test_roundtrip_recovers_baseband(self, front_end):
        """Up- then down-conversion reproduces the baseband signal."""
        modulator = DSSSModulator()
        baseband = modulator.modulate(np.array([0, 3, 5, 6]))
        passband = front_end.upconvert(baseband)
        recovered = front_end.downconvert(passband)
        assert recovered.shape[0] == baseband.shape[0]
        assert _aligned_correlation(recovered, baseband) > 0.95

    def test_roundtrip_preserves_symbol_decisions(self, front_end):
        modulator = DSSSModulator()
        symbols = np.array([1, 4, 7, 2, 0, 6])
        baseband = modulator.modulate(symbols)
        recovered = front_end.downconvert(front_end.upconvert(baseband))
        result = modulator.demodulate(recovered)
        np.testing.assert_array_equal(result.symbols, symbols)

    def test_rejects_wrong_rate_configuration(self):
        with pytest.raises(ValueError, match="interpolation_factor"):
            PassbandFrontEnd(carrier_frequency_hz=24_000.0, baseband_rate_hz=10_000.0,
                             interpolation_factor=2)

    def test_functional_api_matches_class(self, front_end):
        baseband = np.exp(1j * np.linspace(0, 2 * np.pi, 64))
        via_class = front_end.upconvert(baseband)
        via_function = upconvert(baseband)
        np.testing.assert_allclose(via_class, via_function)
        np.testing.assert_allclose(
            front_end.downconvert(via_class), downconvert(via_function)
        )

    def test_empty_input(self, front_end):
        assert front_end.downconvert(np.zeros(0)).shape == (0,)


def test_cli_start_does_not_import_scipy():
    """scipy is imported by the conversions themselves, not on ``import repro.cli``."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, sys; assert 'scipy' not in sys.modules"],
        check=True, env={**os.environ, "PYTHONPATH": path},
    )
