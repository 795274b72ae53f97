"""Sensor nodes and their energy accounting.

Each node owns a battery (a finite energy store), a modem energy budget
(:class:`repro.modem.energy_budget.ModemEnergyBudget`) and counters that
attribute every joule drawn to transmit, receive-front-end, signal-processing
or idle consumption — which is exactly the attribution the platform-choice
argument of the paper needs.

Accounting is *closed form*: a node tracks integer charge counts (how many
packet transmissions and receptions it has been billed, per packet length)
plus the absolute time it has spent idle listening, and derives its energy
report and battery state as ``count * per_packet_energy + idle_power * time``
whenever they are read.  Deriving energy from counts instead of accumulating
floats charge-by-charge makes the event-driven simulator and the vectorised
:class:`repro.network.batch.BatchNetworkEngine` produce bit-identical
energies, battery levels and death decisions — the foundation of the
seed-locked equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.modem.energy_budget import ModemEnergyBudget, PacketEnergyBreakdown
from repro.utils.validation import check_integer, check_non_negative, check_positive

__all__ = ["Battery", "NodeEnergyReport", "SensorNode"]


@dataclass
class Battery:
    """A finite energy store.

    Parameters
    ----------
    capacity_j:
        Total usable energy in joules.
    """

    capacity_j: float

    def __post_init__(self) -> None:
        check_positive("capacity_j", self.capacity_j)
        self.remaining_j: float = self.capacity_j

    def draw(self, energy_j: float) -> float:
        """Draw energy; returns the amount actually supplied (clipped at empty)."""
        check_non_negative("energy_j", energy_j)
        supplied = min(energy_j, self.remaining_j)
        self.remaining_j -= supplied
        return supplied

    @property
    def is_empty(self) -> bool:
        """True once the battery can no longer supply energy."""
        return self.remaining_j <= 0.0

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction of the original capacity (0..1)."""
        return self.remaining_j / self.capacity_j


@dataclass
class NodeEnergyReport:
    """Cumulative per-component energy drawn by one node (joules)."""

    transmit_j: float = 0.0
    receive_frontend_j: float = 0.0
    processing_j: float = 0.0
    idle_j: float = 0.0

    @property
    def total_j(self) -> float:
        """Total energy drawn."""
        return self.transmit_j + self.receive_frontend_j + self.processing_j + self.idle_j

    def fraction(self, component: str) -> float:
        """Share of the total drawn by one component ('transmit', 'processing', ...)."""
        total = self.total_j
        if total == 0.0:
            return 0.0
        value = getattr(self, f"{component}_j")
        return value / total


@dataclass
class SensorNode:
    """One node of the underwater sensor network.

    Parameters
    ----------
    node_id:
        Unique integer identifier (0 is conventionally the sink).
    position:
        (x, y) coordinates in metres.
    battery:
        The node's energy store.
    energy_budget:
        The modem energy model used to price packet transactions.  The
        per-packet prices are cached per packet length at first use, so the
        budget's parameters must not be mutated after accounting starts.
    is_sink:
        Sinks are externally powered: they account energy but never die.
    """

    node_id: int
    position: tuple[float, float]
    battery: Battery
    energy_budget: ModemEnergyBudget
    is_sink: bool = False
    packets_sent: int = 0
    packets_received: int = 0
    packets_forwarded: int = 0
    #: packets this node abandoned after exhausting its contention-MAC retries
    #: (stays 0 for the expected-multiplier MACs and for flooding, which does
    #: not retransmit)
    packets_dropped: int = 0
    last_accounted_time: float = 0.0

    def __post_init__(self) -> None:
        # charge counts per packet length (symbols); insertion-ordered so the
        # closed-form sums below are deterministic
        self._tx_charges: dict[int, int] = {}
        self._rx_charges: dict[int, int] = {}
        self._manual_idle_s: float = 0.0
        self._price_cache: dict[int, tuple[float, PacketEnergyBreakdown]] = {}
        # a battery handed over partially drained keeps that deficit; after
        # construction the node's accounting owns the battery state (direct
        # Battery.draw calls are overwritten by the next closed-form refresh)
        self._predrained_j: float = self.battery.capacity_j - self.battery.remaining_j

    # ------------------------------------------------------------------ #
    @property
    def is_alive(self) -> bool:
        """Sinks never die; other nodes die when their battery empties."""
        return self.is_sink or not self.battery.is_empty

    @property
    def idle_seconds(self) -> float:
        """Total idle-listening time billed so far (seconds)."""
        return self._manual_idle_s + self.last_accounted_time

    def packet_prices(self, num_symbols: int) -> tuple[float, PacketEnergyBreakdown]:
        """(transmit energy, receive breakdown) for one packet of ``num_symbols``."""
        cached = self._price_cache.get(num_symbols)
        if cached is None:
            cached = (
                self.energy_budget.transmit_energy_j(num_symbols),
                self.energy_budget.receive_energy_j(num_symbols),
            )
            self._price_cache[num_symbols] = cached
        return cached

    def charge_counts(self, num_symbols: int) -> tuple[int, int]:
        """(transmit, receive) charge counts billed so far for ``num_symbols``."""
        return self._tx_charges.get(num_symbols, 0), self._rx_charges.get(num_symbols, 0)

    @property
    def demanded_j(self) -> float:
        """Total energy demanded from the battery so far (closed form).

        The batched engine evaluates the identical expression
        ``tx_count * tx_energy + rx_count * rx_energy + idle_power * idle_s``
        as array ops, so both engines agree bit-for-bit on battery state.
        """
        demanded = 0.0
        for num_symbols, count in self._tx_charges.items():
            demanded += count * self.packet_prices(num_symbols)[0]
        for num_symbols, count in self._rx_charges.items():
            demanded += count * self.packet_prices(num_symbols)[1].total_j
        demanded += self.energy_budget.idle_power_w() * self.idle_seconds
        return demanded

    @property
    def report(self) -> NodeEnergyReport:
        """Per-component energy attribution derived from the charge counts."""
        transmit = 0.0
        receive_frontend = 0.0
        processing = 0.0
        for num_symbols, count in self._tx_charges.items():
            transmit += count * self.packet_prices(num_symbols)[0]
        for num_symbols, count in self._rx_charges.items():
            breakdown = self.packet_prices(num_symbols)[1]
            receive_frontend += count * breakdown.receive_frontend_j
            processing += count * breakdown.processing_j
        idle = self.energy_budget.idle_power_w() * self.idle_seconds
        return NodeEnergyReport(
            transmit_j=transmit,
            receive_frontend_j=receive_frontend,
            processing_j=processing,
            idle_j=idle,
        )

    def _refresh_battery(self) -> None:
        """Re-derive the battery level from the demanded total (sinks never drain)."""
        if self.is_sink:
            return
        usable = self.battery.capacity_j - self._predrained_j
        self.battery.remaining_j = max(0.0, usable - self.demanded_j)

    # ------------------------------------------------------------------ #
    def account_transmit(self, num_symbols: int) -> None:
        """Charge the node for transmitting one packet."""
        check_integer("num_symbols", num_symbols, minimum=1)
        self._tx_charges[num_symbols] = self._tx_charges.get(num_symbols, 0) + 1
        self.packets_sent += 1
        self._refresh_battery()

    def account_receive(self, num_symbols: int, forwarded: bool = False) -> None:
        """Charge the node for receiving (and processing) one packet."""
        check_integer("num_symbols", num_symbols, minimum=1)
        self._rx_charges[num_symbols] = self._rx_charges.get(num_symbols, 0) + 1
        self.packets_received += 1
        if forwarded:
            self.packets_forwarded += 1
        self._refresh_battery()

    def account_idle(self, duration_s: float) -> None:
        """Charge the node for ``duration_s`` of idle listening."""
        check_non_negative("duration_s", duration_s)
        self._manual_idle_s += duration_s
        self._refresh_battery()

    def advance_time(self, now_s: float) -> None:
        """Accrue idle energy up to the absolute instant ``now_s``."""
        if now_s < self.last_accounted_time:
            raise ValueError(
                f"time moved backwards: {now_s} < {self.last_accounted_time}"
            )
        self.last_accounted_time = now_s
        self._refresh_battery()

    def apply_charges(
        self,
        num_symbols: int,
        transmit: int = 0,
        receive: int = 0,
        forwarded: int = 0,
        now_s: float | None = None,
    ) -> None:
        """Bulk equivalent of repeated ``account_*`` calls plus ``advance_time``.

        Used by the batched engine to apply a span of report events (the
        ones before the next battery depletion) in one call; because the
        report and battery are closed forms over the counts, the resulting
        state is bit-identical to issuing the individual calls.
        """
        check_integer("transmit", transmit, minimum=0)
        check_integer("receive", receive, minimum=0)
        check_integer("forwarded", forwarded, minimum=0)
        if transmit or receive:
            check_integer("num_symbols", num_symbols, minimum=1)
        if transmit:
            self._tx_charges[num_symbols] = self._tx_charges.get(num_symbols, 0) + transmit
            self.packets_sent += transmit
        if receive:
            self._rx_charges[num_symbols] = self._rx_charges.get(num_symbols, 0) + receive
            self.packets_received += receive
            self.packets_forwarded += forwarded
        if now_s is not None:
            if now_s < self.last_accounted_time:
                raise ValueError(
                    f"time moved backwards: {now_s} < {self.last_accounted_time}"
                )
            self.last_accounted_time = now_s
        self._refresh_battery()
