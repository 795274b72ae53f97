"""Batched fixed-point Matching Pursuits engine (experiment E6 at scale).

The bitwidth ablation estimates the same Monte-Carlo channels at every word
length.  Run one trial at a time, each estimate pays the full scalar
:class:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit` loop — dozens of
small NumPy calls per trial.  :class:`BatchFixedPointMPEngine` runs a whole
``fixedpoint-bitwidth`` :class:`~repro.experiments.spec.SweepSpec`
in-process and without a cache, as a thin wrapper over the scenario's
``run_batch`` hook (:func:`repro.experiments.registry.fixedpoint_bitwidth_batch`,
the hook ``run_sweep`` drives too): each word length's receive vectors go
through one ``estimate_batch`` call.  Its records compare ``==`` to
:func:`~repro.experiments.runner.run_sweep` on the same spec — same memoised
problems and seeds, a datapath pinned bit-identical on raw integer codes
(``tests/core/test_fixedpoint_batch_equivalence.py``) and the runner's own
record builder.

The engine is deliberately mode-free (round-to-nearest, saturation — the
System Generator defaults the scenario uses); explicit rounding/overflow
sweeps run on :class:`FixedPointMatchingPursuit` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.telemetry.tracing import span

__all__ = ["BatchFixedPointMPEngine"]


@dataclass
class BatchFixedPointMPEngine:
    """Run ``fixedpoint-bitwidth`` sweeps as batched array operations.

    Parameters
    ----------
    scenario:
        Name of the scenario whose specs this engine accepts.  Only the
        built-in ``fixedpoint-bitwidth`` trial layout is understood; the
        field exists so a renamed registration can keep using the engine.
    """

    scenario: str = "fixedpoint-bitwidth"

    def run_spec(self, spec, batch: bool = True):
        """Execute every trial of ``spec`` and return their tidy records.

        Drop-in equivalent of :func:`~repro.experiments.runner.run_sweep`
        for the ``fixedpoint-bitwidth`` scenario: the returned
        :class:`~repro.experiments.runner.SweepResult` carries records that
        compare equal (``==``, not tolerances) to the sweep's, in the same
        canonical trial order.  ``batch=False`` runs the grouped trials
        through the scalar datapath instead — the executable specification,
        kept for equivalence tests and benchmarks.
        """
        from repro.experiments.registry import fixedpoint_bitwidth_batch
        from repro.experiments.runner import SweepResult, SweepStats, trial_record

        if spec.scenario != self.scenario:
            raise ValueError(
                f"engine handles {self.scenario!r} specs, got {spec.scenario!r}"
            )
        started = time.perf_counter()
        with span("engine.fixedpoint.run_spec", scenario=spec.scenario, batch=batch):
            trials = spec.expand()
            records = {
                point.index: trial_record(spec.scenario, point, metrics)
                for point, metrics in fixedpoint_bitwidth_batch(trials, batch=batch)
            }
        stats = SweepStats(
            num_trials=len(trials), executed=len(trials), cache_hits=0,
            jobs=1, elapsed_s=time.perf_counter() - started,
        )
        return SweepResult(
            spec=spec, records=[records[point.index] for point in trials], stats=stats
        )
