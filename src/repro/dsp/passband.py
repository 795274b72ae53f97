"""Passband front-end model: carrier up/down-conversion.

The paper's modem architecture (Figure 2) places the hardware platform behind
an analog front end that converts between the complex baseband samples the
signal processing works on and the real acoustic passband signal the
transducer emits (the AquaModem family uses a carrier in the low tens of kHz).
This module models that conversion digitally so end-to-end experiments can be
run on the passband representation:

* :func:`upconvert` — interpolate the complex baseband stream to the passband
  sampling rate and mix it onto a real carrier;
* :func:`downconvert` — I/Q demodulate a real passband stream back to complex
  baseband (mix, low-pass, decimate).

Both directions use polyphase resampling (scipy) whose group delay is
compensated, so an up/down round trip reproduces the baseband signal up to
band-limiting error — which is what the round-trip tests check.  scipy is
imported inside the two conversion functions, so importing the package (and
every CLI start) does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_integer, check_positive, ensure_1d_array

__all__ = ["PassbandFrontEnd", "upconvert", "downconvert"]


@dataclass(frozen=True)
class PassbandFrontEnd:
    """Carrier conversion parameters.

    Parameters
    ----------
    carrier_frequency_hz:
        Acoustic carrier frequency (24 kHz for the AquaModem family).
    baseband_rate_hz:
        Complex baseband sampling rate (10 kHz for Ts = 0.1 ms).
    interpolation_factor:
        Integer ratio between the passband and baseband sampling rates.  The
        default of 8 gives an 80 kHz passband rate, comfortably above the
        Nyquist rate for a 24 kHz carrier with a 5 kHz wide signal.
    """

    carrier_frequency_hz: float = 24_000.0
    baseband_rate_hz: float = 10_000.0
    interpolation_factor: int = 8

    def __post_init__(self) -> None:
        check_positive("carrier_frequency_hz", self.carrier_frequency_hz)
        check_positive("baseband_rate_hz", self.baseband_rate_hz)
        check_integer("interpolation_factor", self.interpolation_factor, minimum=2)
        if self.passband_rate_hz < 2.0 * (self.carrier_frequency_hz + self.baseband_rate_hz / 2.0):
            raise ValueError(
                "passband sampling rate too low for the carrier: increase interpolation_factor"
            )

    @property
    def passband_rate_hz(self) -> float:
        """Real passband sampling rate."""
        return self.baseband_rate_hz * self.interpolation_factor

    # ------------------------------------------------------------------ #
    def upconvert(self, baseband: np.ndarray) -> np.ndarray:
        """Convert complex baseband samples to a real passband stream."""
        return upconvert(
            baseband,
            carrier_frequency_hz=self.carrier_frequency_hz,
            baseband_rate_hz=self.baseband_rate_hz,
            interpolation_factor=self.interpolation_factor,
        )

    def downconvert(self, passband: np.ndarray) -> np.ndarray:
        """Convert a real passband stream back to complex baseband samples."""
        return downconvert(
            passband,
            carrier_frequency_hz=self.carrier_frequency_hz,
            baseband_rate_hz=self.baseband_rate_hz,
            interpolation_factor=self.interpolation_factor,
        )


def upconvert(
    baseband: np.ndarray,
    carrier_frequency_hz: float = 24_000.0,
    baseband_rate_hz: float = 10_000.0,
    interpolation_factor: int = 8,
) -> np.ndarray:
    """Interpolate a complex baseband stream and mix it onto a real carrier.

    Returns a real array of length ``len(baseband) * interpolation_factor``.
    """
    baseband = ensure_1d_array("baseband", baseband, dtype=np.complex128)
    check_positive("carrier_frequency_hz", carrier_frequency_hz)
    check_positive("baseband_rate_hz", baseband_rate_hz)
    check_integer("interpolation_factor", interpolation_factor, minimum=2)
    if baseband.size == 0:
        return np.zeros(0, dtype=np.float64)
    from scipy import signal as sp_signal

    interpolated = sp_signal.resample_poly(baseband, interpolation_factor, 1)
    passband_rate = baseband_rate_hz * interpolation_factor
    t = np.arange(interpolated.shape[0]) / passband_rate
    carrier = np.exp(2j * np.pi * carrier_frequency_hz * t)
    # real passband signal: Re{ x(t) e^{j 2 pi fc t} } (factor sqrt(2) keeps power)
    return np.sqrt(2.0) * np.real(interpolated * carrier)


def downconvert(
    passband: np.ndarray,
    carrier_frequency_hz: float = 24_000.0,
    baseband_rate_hz: float = 10_000.0,
    interpolation_factor: int = 8,
) -> np.ndarray:
    """I/Q demodulate a real passband stream back to complex baseband.

    Mixes with the complex conjugate carrier, low-pass filters (to remove the
    double-frequency image) and decimates back to the baseband rate.
    """
    passband = ensure_1d_array("passband", passband, dtype=np.float64)
    check_positive("carrier_frequency_hz", carrier_frequency_hz)
    check_positive("baseband_rate_hz", baseband_rate_hz)
    check_integer("interpolation_factor", interpolation_factor, minimum=2)
    if passband.size == 0:
        return np.zeros(0, dtype=np.complex128)
    from scipy import signal as sp_signal

    passband_rate = baseband_rate_hz * interpolation_factor
    t = np.arange(passband.shape[0]) / passband_rate
    mixed = passband * np.exp(-2j * np.pi * carrier_frequency_hz * t) * np.sqrt(2.0)
    # polyphase decimation low-pass filters at the new Nyquist rate, removing
    # the 2*fc image produced by the mixing
    return sp_signal.resample_poly(mixed, 1, interpolation_factor)
