"""Derivation of PAPI counter values from workload characteristics.

The simulated PMU produces all 56 preset values for a region instance
from its :class:`~repro.workloads.characteristics.WorkloadCharacteristics`
plus the execution context (measured cycles depend on run time and
frequency; everything else is frequency-independent, per Section IV-B of
the paper).  Run-to-run variation is a small lognormal factor keyed by
the measurement context, so repeated runs differ slightly — which is why
the data-acquisition layer averages across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.counters.papi import PAPI_PRESETS
from repro.errors import CounterError
from repro.util.rng import StreamPrefix, batched_lognormal, rng_for
from repro.workloads.characteristics import WorkloadCharacteristics

#: Multiplicative run-to-run counter noise (sigma of the lognormal).
COUNTER_NOISE_SIGMA = 0.015


@dataclass(frozen=True)
class MeasurementContext:
    """Execution context needed for the cycle-family counters."""

    elapsed_s: float
    core_freq_ghz: float
    threads: int

    @property
    def total_cycles(self) -> float:
        """Core cycles accumulated across all active threads."""
        return self.elapsed_s * self.core_freq_ghz * 1e9 * self.threads


def exact_counters(
    chars: WorkloadCharacteristics, ctx: MeasurementContext
) -> dict[str, float]:
    """Noise-free counter values (totals per region instance)."""
    return _counter_values(
        chars,
        cycles=ctx.total_cycles,
        ref_cycles=ctx.elapsed_s * 2.5e9 * ctx.threads,  # TSC reference clock
        minimum=min,
        maximum=max,
    )


def exact_counters_batch(
    chars: WorkloadCharacteristics, ctx: MeasurementContext
) -> dict[str, float | np.ndarray]:
    """Noise-free counters for a *vector* measurement context.

    ``ctx.elapsed_s`` is an array of per-iteration elapsed times; the
    frequency-independent counters come back as scalars (they do not
    vary across iterations) and the cycle family as arrays.  Every
    element equals the scalar :func:`exact_counters` evaluated at that
    iteration's context, bitwise.
    """
    return _counter_values(
        chars,
        cycles=ctx.total_cycles,
        ref_cycles=ctx.elapsed_s * 2.5e9 * ctx.threads,
        minimum=np.minimum,
        maximum=np.maximum,
    )


def _counter_values(
    chars: WorkloadCharacteristics, *, cycles, ref_cycles, minimum, maximum
) -> dict:
    """The 56 preset formulas, generic over scalar/array cycle inputs."""
    ins = chars.instructions
    cond = ins * chars.cond_branch_frac
    taken = cond * chars.branch_taken_frac
    mispredicted = cond * chars.branch_misp_rate
    loads = ins * chars.load_frac
    stores = ins * chars.store_frac
    l1d_misses = chars.l1d_misses
    l1d_load_misses = l1d_misses * chars.load_share
    l1d_store_misses = l1d_misses - l1d_load_misses
    l2d_misses = chars.l2d_misses
    l2d_load_misses = l2d_misses * chars.load_share
    l3d_misses = chars.l3d_misses
    l1i_misses = chars.l1i_misses
    l2i_misses = chars.l2i_misses
    flops = ins * chars.flop_frac
    sp_ops = flops * chars.sp_fraction
    dp_ops = flops - sp_ops
    stall = minimum(chars.stall_cycles, 0.95 * cycles)

    values = {
        "PAPI_TOT_INS": ins,
        "PAPI_LD_INS": loads,
        "PAPI_SR_INS": stores,
        "PAPI_LST_INS": loads + stores,
        "PAPI_BR_INS": cond + ins * chars.uncond_branch_frac,
        "PAPI_BR_CN": cond,
        "PAPI_BR_UCN": ins * chars.uncond_branch_frac,
        "PAPI_BR_TKN": taken,
        "PAPI_BR_NTK": cond - taken,
        "PAPI_BR_MSP": mispredicted,
        "PAPI_BR_PRC": cond - mispredicted,
        # L1
        "PAPI_L1_DCM": l1d_misses,
        "PAPI_L1_ICM": l1i_misses,
        "PAPI_L1_TCM": l1d_misses + l1i_misses,
        "PAPI_L1_LDM": l1d_load_misses,
        "PAPI_L1_STM": l1d_store_misses,
        # L2 data side: accesses are L1 misses; reads are load-side.
        "PAPI_L2_DCA": l1d_misses,
        "PAPI_L2_DCR": l1d_load_misses,
        "PAPI_L2_DCW": l1d_store_misses,
        "PAPI_L2_DCM": l2d_misses,
        "PAPI_L2_LDM": l2d_load_misses,
        "PAPI_L2_STM": l2d_misses - l2d_load_misses,
        # L2 instruction side
        "PAPI_L2_ICA": l1i_misses,
        "PAPI_L2_ICR": l1i_misses,
        "PAPI_L2_ICH": l1i_misses - l2i_misses,
        "PAPI_L2_ICM": l2i_misses,
        "PAPI_L2_TCA": l1d_misses + l1i_misses,
        "PAPI_L2_TCR": l1d_load_misses + l1i_misses,
        "PAPI_L2_TCW": l1d_store_misses,
        "PAPI_L2_TCM": l2d_misses + l2i_misses,
        # L3
        "PAPI_L3_DCA": l2d_misses,
        "PAPI_L3_DCR": l2d_load_misses,
        "PAPI_L3_DCW": l2d_misses - l2d_load_misses,
        "PAPI_L3_ICA": l2i_misses,
        "PAPI_L3_ICR": l2i_misses,
        "PAPI_L3_TCA": l2d_misses + l2i_misses,
        "PAPI_L3_TCR": l2d_load_misses + l2i_misses,
        "PAPI_L3_TCW": l2d_misses - l2d_load_misses,
        "PAPI_L3_TCM": l3d_misses,
        "PAPI_L3_LDM": l3d_misses * chars.load_share,
        "PAPI_PRF_DM": l3d_misses * chars.prefetch_frac,
        # TLB
        "PAPI_TLB_DM": chars.data_accesses * chars.tlb_dm_rate,
        "PAPI_TLB_IM": ins * chars.tlb_im_rate,
        # Cycle family (context dependent)
        "PAPI_TOT_CYC": cycles,
        "PAPI_REF_CYC": ref_cycles,
        "PAPI_RES_STL": stall,
        "PAPI_MEM_WCY": stall * (1.0 - chars.load_share) * 0.5,
        "PAPI_STL_ICY": stall * 0.6,
        "PAPI_STL_CCY": stall * 0.8,
        "PAPI_FUL_ICY": maximum(0.0, cycles - stall) * 0.25,
        "PAPI_FUL_CCY": maximum(0.0, cycles - stall) * 0.15,
        # Floating point
        "PAPI_FP_OPS": flops,
        "PAPI_SP_OPS": sp_ops,
        "PAPI_DP_OPS": dp_ops,
        "PAPI_VEC_SP": sp_ops * chars.vector_frac / 8.0,   # 8 SP lanes (AVX2)
        "PAPI_VEC_DP": dp_ops * chars.vector_frac / 4.0,   # 4 DP lanes
    }
    missing = set(PAPI_PRESETS) - set(values)
    if missing:
        raise CounterError(f"counter derivation incomplete: missing {sorted(missing)}")
    return values


class CounterGenerator:
    """Generates noisy counter readings for region instances.

    Parameters
    ----------
    seed:
        Experiment seed; combined with the measurement key so each
        (region, run) pair has its own reproducible noise.
    """

    def __init__(self, seed: int = config.DEFAULT_SEED):
        self._seed = seed

    def sample(
        self,
        chars: WorkloadCharacteristics,
        ctx: MeasurementContext,
        *,
        key: tuple = (),
    ) -> dict[str, float]:
        """All 56 preset values with run-to-run noise applied."""
        exact = exact_counters(chars, ctx)
        rng = rng_for("papi", *key, seed=self._seed)
        noise = rng.lognormal(0.0, COUNTER_NOISE_SIGMA, size=len(exact))
        return {
            name: value * float(n)
            for (name, value), n in zip(exact.items(), noise)
        }

    def noise_digests(self, key_prefix: tuple, iterations: int) -> list[bytes]:
        """Seed digests of the per-iteration noise streams behind
        :meth:`sample_batch` (see
        :meth:`~repro.util.rng.StreamPrefix.iteration_digests`)."""
        prefix = StreamPrefix("papi", *key_prefix, seed=self._seed)
        return prefix.iteration_digests(iterations)

    def sample_batch(
        self,
        chars: WorkloadCharacteristics,
        ctx: MeasurementContext,
        *,
        key_prefix: tuple = (),
    ) -> dict[str, np.ndarray]:
        """Noisy counters for all iterations of one region at once.

        ``ctx.elapsed_s`` is the per-iteration elapsed-time vector; row
        ``i`` of every returned array is bit-identical to
        ``sample(chars, ctx_i, key=(*key_prefix, i))`` — the iteration
        index extends the key exactly as the scalar path builds it, and
        the noise factors come from the same per-key streams via the
        batched draw machinery in :mod:`repro.util.rng`.
        """
        digests = self.noise_digests(key_prefix, len(ctx.elapsed_s))
        noise = batched_lognormal(
            np.frombuffer(b"".join(digests), dtype="<u8"),
            COUNTER_NOISE_SIGMA,
            size=len(PAPI_PRESETS),
        )
        return noisy_counters(chars, ctx, noise)


def noisy_counters(
    chars: WorkloadCharacteristics,
    ctx: MeasurementContext,
    noise: np.ndarray,
    names=None,
) -> dict[str, np.ndarray]:
    """Per-iteration noisy values of the ``names`` counters (all 56, in
    derivation order, by default).

    ``noise`` holds one row of :data:`COUNTER_NOISE_SIGMA` lognormal
    factors per iteration of ``ctx``, drawn from the iteration's stream;
    a preset's factor is the column of its formula in the derivation,
    so each value is what :meth:`CounterGenerator.sample` gives.
    """
    exact = exact_counters_batch(chars, ctx)
    column = {name: j for j, name in enumerate(exact)}
    return {
        name: exact[name] * noise[:, column[name]]
        for name in (exact if names is None else names)
    }
