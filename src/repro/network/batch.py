"""Vectorised network simulation: the batched lifetime engine.

The event loop in :mod:`repro.network.simulator` prices every packet hop by
hop in Python, which makes platform/topology lifetime sweeps (experiment E9)
wall-clock bound.  This engine replaces the per-packet loop with array
accounting while reproducing the event loop bit-for-bit:

1. **Schedule** — report events (time, source) are generated lazily in
   chunks, in exactly the scheduler's order.  Jitter-free traffic is
   generated analytically round-block by round-block with sequential
   ``cumsum`` accumulation (matching the scheduler's repeated
   ``now + delay`` float trajectory); jittered traffic replays the
   scheduler's heap over delays drawn one block per chunk — the same RNG
   values, in the same order, as the scheduler's one draw per event.
2. **Increments** — per-event charge matrices (transmissions, receptions,
   forwards per node) under the current alive set and topology.  Routed
   forwarding follows each source's alive path prefix; contention
   (:class:`~repro.network.mac.CsmaMac`) retry counts come from the same
   counter-based uniforms (:func:`repro.utils.rng.counter_uniforms`, keyed by
   each event's global schedule index) the event loop draws; TTL floods
   (:class:`~repro.network.routing.TtlFlooding`) are propagated
   level-synchronously as boolean matrix products; and chunks are segmented
   at mobility (:class:`~repro.network.topology.LinearMobility`) epoch
   boundaries so every segment sees one fixed topology.
3. **Death scan** — per-node demanded energy is the closed form
   ``tx_count * tx_energy + rx_count * rx_energy + idle_power * t`` (the same
   expression :attr:`SensorNode.demanded_j` evaluates), so the first battery
   depletion is found by a cumulative scan over the increments.  Because the
   accounting is closed form over integer counts, the scan needs no running
   float state: each segment starts from the nodes' own counts.
4. **Bulk apply + replay** — the events before the first crossing are applied
   to the node states in one bulk update; only the boundary event (where a
   node dies and packet delivery may truncate mid-path) is replayed through
   the event loop's own per-hop accounting, keeping partial-delivery
   semantics exact.

Both engines agree exactly on death times, death order, packet counts,
delivery ratios and per-component energy — the seed-locked equivalence suite
(``tests/network/test_batch_equivalence.py``) pins this with ``==``, not
tolerances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.network.routing import RoutedForwarding, TtlFlooding
from repro.network.simulator import NetworkSimulationResult, NetworkSimulator
from repro.network.topology import LinearMobility
from repro.network.traffic import PeriodicTraffic
from repro.telemetry.metrics import counter, histogram
from repro.telemetry.tracing import span
from repro.utils.rng import as_rng, counter_uniforms
from repro.utils.validation import check_positive

__all__ = [
    "BatchNetworkEngine",
    "ScheduleStream",
    "generate_report_schedule",
    "simulate_network_trials",
]

# per-chunk telemetry (one update per scanned chunk, never per event)
_EVENTS = counter("engine.network.events")
_CHUNKS = counter("engine.network.chunks")
#: events per same-topology segment
_SEGMENT_EVENTS = histogram("engine.network.segment_events")
#: same counter instance the event loop increments (registry-deduplicated)
_PACKETS_DROPPED = counter("network.packets_dropped")

#: Events per generated/scanned chunk; bounds wasted schedule generation past
#: a death while keeping the NumPy call overhead amortised.
_CHUNK_EVENTS = 4096


class ScheduleStream:
    """Lazily yields report-event chunks in exactly the scheduler's order.

    Emits every event the event loop would process: (time, source) pairs with
    ``time <= max_time_s``, capped at ``max_events`` in total, ordered by
    (time, schedule sequence).  With jitter the scheduler's heap is replayed;
    each chunk's delays come from one ``rng.uniform`` block draw, which yields
    the values the scheduler's per-event draws would, in the same order (the
    draws past the horizon are never used, and nothing reads the generator
    after the schedule).  Without jitter, times are built round-block by
    round-block with sequential ``cumsum`` accumulation, so the float
    trajectories match the event loop's repeated ``now + delay`` bit for bit.
    """

    def __init__(
        self,
        traffic: PeriodicTraffic,
        sensor_ids: list[int],
        rng: np.random.Generator,
        max_time_s: float,
        max_events: int,
    ) -> None:
        check_positive("max_time_s", max_time_s)
        self.traffic = traffic
        self.max_time_s = max_time_s
        self.rng = rng
        self._ids = np.asarray(sensor_ids, dtype=np.int64)
        self._remaining = max(0, max_events)
        num = len(sensor_ids)
        self._num = num
        if num == 0:
            self._remaining = 0
            return
        self._jittered = traffic.jitter_fraction != 0.0
        if self._jittered:
            self._heap: list[tuple[float, int, int]] = []
            for index, node_id in enumerate(sensor_ids):
                heapq.heappush(self._heap, (traffic.first_offset(index, num), index, int(node_id)))
            self._sequence = num
        else:
            # per-node times continue by sequential addition from these values
            self._last_times = np.asarray(
                [traffic.first_offset(index, num) for index in range(num)]
            )
            self._first_round = True
            self._horizon_done = False
            self._pending: tuple[np.ndarray, np.ndarray] = (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )

    def next_chunk(self, size: int = _CHUNK_EVENTS) -> tuple[np.ndarray, np.ndarray]:
        """Next up-to-``size`` events as (times, source node ids); empty when done."""
        size = min(size, self._remaining)
        if size <= 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        chunk = self._next_jittered(size) if self._jittered else self._next_periodic(size)
        self._remaining -= len(chunk[0])
        if len(chunk[0]) == 0:
            self._remaining = 0
        return chunk

    def _next_jittered(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        traffic = self.traffic
        jitter = traffic.jitter_fraction
        # elementwise the same float ops as PeriodicTraffic.next_interval
        delays = traffic.report_interval_s * (1.0 + self.rng.uniform(-jitter, jitter, size))
        heap = self._heap
        sequence = self._sequence
        out_times: list[float] = []
        out_sources: list[int] = []
        for delay in delays.tolist():
            now, _, node_id = heap[0]
            if now > self.max_time_s:
                self._remaining = 0
                break
            out_times.append(now)
            out_sources.append(node_id)
            heapq.heapreplace(heap, (now + delay, sequence, node_id))
            sequence += 1
        self._sequence = sequence
        return np.asarray(out_times, dtype=np.float64), np.asarray(out_sources, dtype=np.int64)

    def _generate_rounds(self, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``rounds`` further report rounds (one event per node each)."""
        interval = self.traffic.report_interval_s
        num = self._num
        # the cumsum is seeded with each node's previous time so every emitted
        # value is a strict sequential sum, exactly the scheduler's repeated
        # ``now + delay`` addition
        seeded = np.empty((num, rounds + 1))
        seeded[:, 0] = self._last_times
        seeded[:, 1:] = interval
        times = np.cumsum(seeded, axis=1)
        if self._first_round:
            # round 0 is the staggered first offset itself, not offset+interval
            times = times[:, :-1]
            self._first_round = False
        else:
            times = times[:, 1:]
        self._last_times = times[:, -1].copy()
        node_index = np.repeat(np.arange(num), rounds)
        flat = times.ravel()
        keep = flat <= self.max_time_s
        if not keep.all():
            self._horizon_done = True
        flat = flat[keep]
        node_index = node_index[keep]
        order = np.argsort(flat, kind="stable")
        return flat[order], self._ids[node_index[order]]

    def _next_periodic(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        times, sources = self._pending
        while len(times) < size and not self._horizon_done:
            rounds = max(1, (size - len(times)) // self._num)
            more_times, more_sources = self._generate_rounds(rounds)
            times = np.concatenate([times, more_times])
            sources = np.concatenate([sources, more_sources])
        self._pending = (times[size:], sources[size:])
        return times[:size], sources[:size]


def generate_report_schedule(
    traffic: PeriodicTraffic,
    sensor_ids: list[int],
    rng: np.random.Generator,
    max_time_s: float,
    max_events: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The full event schedule as two arrays (see :class:`ScheduleStream`)."""
    stream = ScheduleStream(traffic, sensor_ids, rng, max_time_s, max_events)
    all_times: list[np.ndarray] = []
    all_sources: list[np.ndarray] = []
    while True:
        times, sources = stream.next_chunk()
        if len(times) == 0:
            break
        all_times.append(times)
        all_sources.append(sources)
    if not all_times:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    return np.concatenate(all_times), np.concatenate(all_sources)


@dataclass
class _EventIncrements:
    """Exact per-event charge increments for one same-topology segment.

    Row ``e`` of each matrix holds the charges event ``e`` inflicts on every
    node (already including retry attempts), computed against the alive set
    at the start of the scan — exact for every event before the first death,
    which is all the scan needs (the boundary event itself is replayed).
    """

    tx: np.ndarray  # (events, nodes) transmit charge counts
    rx: np.ndarray  # (events, nodes) receive charge counts
    fwd: np.ndarray  # (events, nodes) forwarded-packet counts
    generated: np.ndarray  # (events,) whether the source generated
    delivered: np.ndarray  # (events,) whether the sink got the packet
    dropped_row: np.ndarray  # (events,) node row of a retry-exhausted drop, -1 if none


@dataclass
class BatchNetworkEngine:
    """Drives one :class:`NetworkSimulator` with vectorised accounting.

    The engine mutates the simulator's node states exactly as the event loop
    would (``run`` once per simulator instance); results are therefore
    interchangeable with — and bit-identical to —
    :meth:`NetworkSimulator.run_event_loop`.
    """

    simulator: NetworkSimulator

    def __post_init__(self) -> None:
        sim = self.simulator
        self._ids = list(sim.nodes)
        self._rows = {node_id: row for row, node_id in enumerate(self._ids)}
        self._row_of = np.full(max(self._ids) + 1, -1, dtype=np.int64)
        self._row_of[self._ids] = np.arange(len(self._ids))
        self._attempts = int(np.ceil(sim._tx_multiplier))
        symbols = sim.traffic.packet_symbols
        self._tx_energy = sim.energy_budget.transmit_energy_j(symbols)
        self._rx_energy = sim.energy_budget.receive_energy_j(symbols).total_j
        self._idle_power = sim.energy_budget.idle_power_w()

    # ------------------------------------------------------------------ #
    def _alive_sensor_rows(self) -> np.ndarray:
        sim = self.simulator
        return np.asarray(
            [
                row
                for node_id, row in self._rows.items()
                if node_id != sim.deployment.sink_id and sim.nodes[node_id].is_alive
            ],
            dtype=np.int64,
        )

    def _base_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Current per-node charge counts (the scan's closed-form state)."""
        sim = self.simulator
        symbols = sim.traffic.packet_symbols
        counts = [sim.nodes[node_id].charge_counts(symbols) for node_id in self._ids]
        base = np.asarray(counts, dtype=np.int64)
        return base[:, 0], base[:, 1]

    def _alive_mask(self) -> np.ndarray:
        """Per-row aliveness of every node, in row order."""
        sim = self.simulator
        return np.asarray(
            [sim.nodes[node_id].is_alive for node_id in self._ids], dtype=bool
        )

    def _segment_end(self, times: np.ndarray, position: int) -> int:
        """End (exclusive) of the same-mobility-epoch run starting at ``position``."""
        mobility = self.simulator.mobility
        if mobility is None:
            return len(times)
        epochs = (times[position:] // mobility.epoch_s).astype(np.int64)
        boundary = np.nonzero(epochs != epochs[0])[0]
        return len(times) if boundary.size == 0 else position + int(boundary[0])

    def _event_increments(
        self, src_rows: np.ndarray, event_indices: np.ndarray
    ) -> _EventIncrements:
        if isinstance(self.simulator.protocol, TtlFlooding):
            return self._flood_increments(src_rows, event_indices)
        return self._routed_increments(src_rows, event_indices)

    def _routed_increments(
        self, src_rows: np.ndarray, event_indices: np.ndarray
    ) -> _EventIncrements:
        """Per-event charges for routed forwarding (contended or multiplier).

        Mirrors ``NetworkSimulator._deliver_routed_contended`` /
        ``_deliver_packet`` exactly: hop ``h``'s attempt ``a`` reads the
        event's counter-based uniform at slot ``h * max_attempts + a``, hops
        execute only along the alive path prefix and while every earlier hop
        succeeded, and a hop that exhausts its retries drops the packet at
        its sender.
        """
        sim = self.simulator
        rows = self._rows
        count = len(self._ids)
        num_events = len(src_rows)
        alive = self._alive_mask()
        sink_row = rows[sim.deployment.sink_id]
        contention = sim._contention
        tx = np.zeros((num_events, count), dtype=np.int64)
        rx = np.zeros_like(tx)
        fwd = np.zeros_like(tx)
        generated = alive[src_rows]
        dropped_row = np.full(num_events, -1, dtype=np.int64)
        # per-source path tables under the current alive set
        hops_total = np.zeros(count, dtype=np.int64)
        exec_hops = np.zeros(count, dtype=np.int64)
        routable = np.zeros(count, dtype=bool)
        paths: dict[int, list[int]] = {}
        max_hops = 0
        for node_id in sim.sensor_ids:
            row = rows[node_id]
            if not alive[row] or not sim.routing.has_route(node_id):
                continue
            path_rows = [rows[hop_id] for hop_id in sim.routing.route(node_id)]
            routable[row] = True
            hops_total[row] = len(path_rows) - 1
            cut = len(path_rows)
            for index, hop_row in enumerate(path_rows):
                if not alive[hop_row]:
                    cut = index
                    break
            exec_hops[row] = cut - 1
            paths[row] = path_rows
            max_hops = max(max_hops, len(path_rows) - 1)
        if max_hops == 0:
            return _EventIncrements(
                tx, rx, fwd, generated, np.zeros(num_events, dtype=bool), dropped_row
            )
        path_pad = np.zeros((count, max_hops + 1), dtype=np.int64)
        p_hop = np.zeros((count, max_hops), dtype=np.float64)
        for row, path_rows in paths.items():
            path_pad[row, : len(path_rows)] = path_rows
            if contention is not None:
                for hop in range(len(path_rows) - 1):
                    edge = (self._ids[path_rows[hop]], self._ids[path_rows[hop + 1]])
                    p_hop[row, hop] = sim._edge_success[edge]
        hop_index = np.arange(max_hops)
        real = hop_index[np.newaxis, :] < hops_total[src_rows][:, np.newaxis]
        if contention is not None:
            num_attempts = contention.max_attempts
            draws = counter_uniforms(
                sim._contention_seed, event_indices, max_hops * num_attempts
            ).reshape(num_events, max_hops, num_attempts)
            success = draws < p_hop[src_rows][:, :, np.newaxis]
            hop_ok = success.any(axis=2)
            attempts = np.where(hop_ok, success.argmax(axis=2) + 1, num_attempts)
        else:
            hop_ok = np.ones((num_events, max_hops), dtype=bool)
            attempts = np.full((num_events, max_hops), self._attempts, dtype=np.int64)
        prefix_ok = np.ones((num_events, max_hops), dtype=bool)
        if max_hops > 1:
            prefix_ok[:, 1:] = np.cumprod(hop_ok[:, :-1], axis=1).astype(bool)
        executed = (
            (hop_index[np.newaxis, :] < exec_hops[src_rows][:, np.newaxis])
            & prefix_ok
            & generated[:, np.newaxis]
            & routable[src_rows][:, np.newaxis]
        )
        charge = np.where(executed, attempts, 0)
        event_of = np.repeat(np.arange(num_events), max_hops)
        flat = charge.ravel()
        senders = path_pad[src_rows][:, :max_hops].ravel()
        receivers = path_pad[src_rows][:, 1 : max_hops + 1].ravel()
        nonzero = flat > 0
        np.add.at(tx, (event_of[nonzero], senders[nonzero]), flat[nonzero])
        np.add.at(rx, (event_of[nonzero], receivers[nonzero]), flat[nonzero])
        np.add.at(
            fwd,
            (event_of[nonzero], receivers[nonzero]),
            flat[nonzero] * (receivers[nonzero] != sink_row),
        )
        all_hops_ok = (hop_ok | ~real).all(axis=1)
        delivered = (
            generated
            & routable[src_rows]
            & (exec_hops[src_rows] == hops_total[src_rows])
            & all_hops_ok
        )
        if contention is not None:
            fail = ~hop_ok & real
            has_fail = fail.any(axis=1)
            first_fail = fail.argmax(axis=1)
            drop = (
                generated
                & routable[src_rows]
                & has_fail
                & (first_fail < exec_hops[src_rows])
            )
            dropped_row[drop] = path_pad[src_rows[drop], first_fail[drop]]
        return _EventIncrements(tx, rx, fwd, generated, delivered, dropped_row)

    def _flood_increments(
        self, src_rows: np.ndarray, event_indices: np.ndarray
    ) -> _EventIncrements:
        """Per-event charges for TTL flooding, level-synchronous as matrices.

        Mirrors :func:`repro.network.routing.flood_packet`: each level's
        frontier broadcasts (sink excluded), every alive neighbour pays
        reception whether or not the copy decodes, and only decoded first
        copies (per-edge counter-based draws under contention) propagate.
        """
        sim = self.simulator
        rows = self._rows
        count = len(self._ids)
        num_events = len(src_rows)
        alive = self._alive_mask()
        sink_row = rows[sim.deployment.sink_id]
        attempts = self._attempts
        contention = sim._contention
        adjacency = np.zeros((count, count), dtype=bool)
        for node_id, neighbours in sim._adjacency.items():
            for neighbour in neighbours:
                adjacency[rows[node_id], rows[neighbour]] = True
        adj_alive = (adjacency & alive[np.newaxis, :]).astype(np.int64)
        generated = alive[src_rows]
        tx = np.zeros((num_events, count), dtype=np.int64)
        rx = np.zeros_like(tx)
        heard = np.zeros((num_events, count), dtype=bool)
        heard[np.arange(num_events), src_rows] = generated
        frontier = heard.copy()
        if contention is not None:
            # slot order == insertion order of the sorted directed-edge dict
            edge_list = list(sim._edge_slots)
            u_rows = np.asarray([rows[u] for u, _ in edge_list], dtype=np.int64)
            v_rows = np.asarray([rows[v] for _, v in edge_list], dtype=np.int64)
            probs = np.asarray([sim._edge_success[edge] for edge in edge_list])
            draws = counter_uniforms(
                sim._contention_seed, event_indices, len(edge_list)
            )
            edge_ok = (draws < probs[np.newaxis, :]) & alive[v_rows][np.newaxis, :]
            v_onehot = np.zeros((len(edge_list), count), dtype=np.int64)
            if edge_list:
                v_onehot[np.arange(len(edge_list)), v_rows] = 1
        for _ in range(sim.protocol.ttl):
            senders = frontier.copy()
            senders[:, sink_row] = False
            if not senders.any():
                break
            sender_counts = senders.astype(np.int64)
            tx += attempts * sender_counts
            rx += attempts * (sender_counts @ adj_alive)
            if contention is not None:
                contrib = (senders[:, u_rows] & edge_ok).astype(np.int64)
                reached = (contrib @ v_onehot) > 0
            else:
                reached = (sender_counts @ adj_alive) > 0
            frontier = reached & ~heard
            heard |= frontier
        fwd = rx.copy()
        fwd[:, sink_row] = 0
        delivered = heard[:, sink_row].copy()
        return _EventIncrements(
            tx, rx, fwd, generated, delivered, np.full(num_events, -1, dtype=np.int64)
        )

    def _scan_increments(self, times: np.ndarray, inc: _EventIncrements) -> int | None:
        """First event index whose cumulative increments kill a node, or None.

        Evaluates :attr:`repro.network.node.SensorNode.demanded_j`'s closed
        form term for term over the alive sensors' running counts (the retry
        attempts are already folded into the increments), so the crossing
        decision is bit-identical to the event loop's battery checks.
        """
        scan_rows = self._alive_sensor_rows()
        if scan_rows.size == 0 or len(times) == 0:
            return None
        base_tx, base_rx = self._base_counts()
        ntx = base_tx[scan_rows][np.newaxis, :] + np.cumsum(inc.tx[:, scan_rows], axis=0)
        nrx = base_rx[scan_rows][np.newaxis, :] + np.cumsum(inc.rx[:, scan_rows], axis=0)
        demanded = (
            ntx * self._tx_energy
            + nrx * self._rx_energy
            + self._idle_power * times[:, np.newaxis]
        )
        crossed = (demanded >= self.simulator.battery_capacity_j).any(axis=1)
        if not crossed.any():
            return None
        return int(np.argmax(crossed))

    def _apply_increments(
        self, times: np.ndarray, inc: _EventIncrements, stop: int
    ) -> None:
        """Bulk-apply the first ``stop`` events' increments to the node states."""
        sim = self.simulator
        symbols = sim.traffic.packet_symbols
        tx_total = inc.tx[:stop].sum(axis=0)
        rx_total = inc.rx[:stop].sum(axis=0)
        fwd_total = inc.fwd[:stop].sum(axis=0)
        now = float(times[stop - 1])
        for node_id, row in self._rows.items():
            node = sim.nodes[node_id]
            if not node.is_alive:
                continue
            node.apply_charges(
                symbols,
                transmit=int(tx_total[row]),
                receive=int(rx_total[row]),
                forwarded=int(fwd_total[row]),
                now_s=now,
            )
        sim._packets_generated += int(inc.generated[:stop].sum())
        sim._packets_delivered += int(inc.delivered[:stop].sum())
        drops = inc.dropped_row[:stop]
        drops = drops[drops >= 0]
        if drops.size:
            for row, count in zip(*np.unique(drops, return_counts=True)):
                sim.nodes[self._ids[int(row)]].packets_dropped += int(count)
            sim._packets_dropped += int(drops.size)
            _PACKETS_DROPPED.inc(int(drops.size))

    def _consume(
        self,
        times: np.ndarray,
        sources: np.ndarray,
        src_rows: np.ndarray,
        stop_at_first_death: bool,
        offset: int,
    ) -> tuple[float | None, bool]:
        """Process one chunk of events; returns (last event time, finished).

        The chunk is split into same-topology segments; each is scanned for
        its first death, applied in bulk up to it, and the boundary event is
        replayed.  ``offset`` is the global schedule index of ``times[0]`` —
        the key into the counter-based contention stream, which is how the
        two engines observe identical per-packet draws without any stream
        state.
        """
        sim = self.simulator
        last_time: float | None = None
        position = 0
        while position < len(times):
            sim._refresh_topology(float(times[position]))
            segment_end = self._segment_end(times, position)
            seg_times = times[position:segment_end]
            seg_rows = src_rows[position:segment_end]
            _SEGMENT_EVENTS.observe(len(seg_times))
            event_indices = offset + np.arange(position, segment_end, dtype=np.int64)
            inc = self._event_increments(seg_rows, event_indices)
            crossing = self._scan_increments(seg_times, inc)
            stop = len(seg_times) if crossing is None else crossing
            if stop > 0:
                self._apply_increments(seg_times, inc, stop)
                last_time = float(seg_times[stop - 1])
            position += stop
            if crossing is None:
                continue
            # replay the boundary event through the event loop's own
            # accounting, at its exact global schedule index
            last_time = float(times[position])
            sim._account_report(
                last_time, int(sources[position]), event_index=offset + position
            )
            position += 1
            if stop_at_first_death and sim._first_death is not None:
                return last_time, True
        return last_time, False

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_time_s: float = 30.0 * 86_400.0,
        stop_at_first_death: bool = True,
        max_events: int = 500_000,
    ) -> NetworkSimulationResult:
        """Run the batched simulation (same contract as the event loop).

        Events are generated lazily, chunk by chunk, so a run that dies early
        never materialises the full horizon's schedule.  ``max_time_s``,
        ``stop_at_first_death`` and ``max_events`` are as in
        :meth:`NetworkSimulator.run`.
        """
        sim = self.simulator
        check_positive("max_time_s", max_time_s)
        end_time = 0.0
        with span("engine.network.run", nodes=len(self._ids)):
            stream = ScheduleStream(
                sim.traffic, sim.sensor_ids, as_rng(sim.rng), max_time_s, max_events
            )
            offset = 0
            while True:
                times, sources = stream.next_chunk()
                if len(times) == 0:
                    break
                _CHUNKS.inc()
                _EVENTS.inc(len(times))
                last_time, finished = self._consume(
                    times, sources, self._row_of[sources], stop_at_first_death, offset
                )
                offset += len(times)
                if last_time is not None:
                    end_time = last_time
                if finished:
                    break
            sim._advance_all(end_time)
            return sim._build_result(end_time)


def simulate_network_trials(
    deployment,
    energy_budget,
    *,
    traffic: PeriodicTraffic | None = None,
    communication_range_m: float = 300.0,
    battery_capacity_j: float = 50_000.0,
    mac=None,
    protocol: RoutedForwarding | TtlFlooding | None = None,
    mobility: LinearMobility | None = None,
    seeds=(0,),
    max_time_s: float = 30.0 * 86_400.0,
    stop_at_first_death: bool = True,
    max_events: int = 500_000,
    batch: bool = True,
) -> list[NetworkSimulationResult]:
    """Monte-Carlo network-lifetime trials, one independent simulation per seed.

    Every trial runs on a shared deployment and energy model.  With
    ``batch=True`` (default) each seed runs on its own
    :class:`BatchNetworkEngine`, all under one ``engine.network.trials``
    span; ``batch=False`` runs the per-packet event loop per seed — results
    are identical either way, seed for seed.
    """
    traffic = traffic if traffic is not None else PeriodicTraffic()
    simulators = [
        NetworkSimulator(
            deployment=deployment,
            energy_budget=energy_budget,
            traffic=traffic,
            communication_range_m=communication_range_m,
            battery_capacity_j=battery_capacity_j,
            mac=mac,
            rng=seed,
            batch=batch,
            protocol=protocol if protocol is not None else RoutedForwarding(),
            mobility=mobility,
        )
        for seed in seeds
    ]
    run_args = dict(
        max_time_s=max_time_s,
        stop_at_first_death=stop_at_first_death,
        max_events=max_events,
    )
    if not batch:
        return [sim.run_event_loop(**run_args) for sim in simulators]
    with span("engine.network.trials", trials=len(simulators)):
        return [BatchNetworkEngine(sim).run(**run_args) for sim in simulators]
