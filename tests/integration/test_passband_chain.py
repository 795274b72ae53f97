"""Integration test: the full passband transmit/receive chain.

Bits -> DS-SS baseband -> carrier upconversion -> multipath at the passband
rate -> additive noise -> I/Q downconversion -> MP channel estimation + RAKE
detection -> bits.  This is the signal path of Figure 2 (analog front end +
hardware platform) realised digitally; the receiver is handed the frame start
(the propagation delay is known to the test), as in every other link model of
the package.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel
from repro.channel.simulator import add_noise_for_snr, apply_channel
from repro.dsp.passband import PassbandFrontEnd
from repro.modem.config import AquaModemConfig
from repro.modem.frame import bit_errors, random_bits
from repro.modem.receiver import Receiver
from repro.modem.transmitter import Transmitter


class TestPassbandChain:
    @pytest.fixture(scope="class")
    def chain(self):
        config = AquaModemConfig()
        transmitter = Transmitter(config=config)
        receiver = Receiver(config=config)
        front_end = PassbandFrontEnd(
            carrier_frequency_hz=config.carrier_frequency_hz,
            baseband_rate_hz=config.sampling_rate_hz,
            interpolation_factor=8,
        )
        return config, transmitter, receiver, front_end

    def test_noiseless_passband_roundtrip(self, chain):
        config, transmitter, receiver, front_end = chain
        bits = random_bits(30, rng=0)
        baseband = transmitter.transmit_bits(bits).samples
        passband = front_end.upconvert(baseband)
        recovered_baseband = front_end.downconvert(passband)
        output = receiver.receive(recovered_baseband)
        assert bit_errors(bits, output.bits[: len(bits)]) == 0

    def test_passband_chain_with_delay_multipath_and_noise(self, chain):
        config, transmitter, receiver, front_end = chain
        bits = random_bits(24, rng=1)
        baseband = transmitter.transmit_bits(bits).samples
        passband = front_end.upconvert(baseband)

        # an acoustic propagation delay plus a second passband arrival
        factor = front_end.interpolation_factor
        delay_baseband_samples = 41
        passband = np.concatenate(
            [np.zeros(delay_baseband_samples * factor), passband]
        )
        echo_delay = 12 * factor
        passband_channel = MultipathChannel(
            delays=np.array([0, echo_delay]), gains=np.array([1.0, 0.4])
        )
        passband = np.real(apply_channel(passband.astype(complex), passband_channel))

        # additive noise at a healthy receive SNR
        noisy = np.real(add_noise_for_snr(passband.astype(complex), 20.0, rng=2))

        recovered = front_end.downconvert(noisy)
        output = receiver.receive(recovered[delay_baseband_samples:])
        assert bit_errors(bits, output.bits[: len(bits)]) == 0
        # the echo shows up in the channel estimate near 12 baseband samples
        estimate = output.channel_estimate
        assert np.min(np.abs(estimate.path_indices - 12)) <= 1
