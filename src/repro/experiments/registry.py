"""Experiment registry: every reproduced table/figure, addressable by id.

``python -m repro.experiments <id>`` and the benchmark suite both resolve
experiments here, so DESIGN.md's per-experiment index has exactly one
source of truth.
"""

from __future__ import annotations

from ..errors import ExperimentError
from .ablations import (
    run_ablation_batch,
    run_ablation_layout,
    run_ablation_partition,
    run_ablation_select,
)
from .base import ExperimentResult, ExperimentSpec
from .extensions import (
    run_ext_comb,
    run_ext_exact,
    run_ext_devices,
    run_ext_ldg,
    run_ext_noise,
    run_ext_offgrid,
    run_ext_tuning,
)
from .fig2 import run_fig2a, run_fig2b
from .fig5 import run_fig5a, run_fig5b, run_fig5c, run_fig5d, run_fig5e, run_fig5f
from .tables import run_table1, run_table2

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment", "list_experiments"]

EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig2a", "Step time distribution vs n", "Figure 2(a)",
            "Per-step share of sFFT execution as n grows at k=1000.",
            run_fig2a,
        ),
        ExperimentSpec(
            "fig2b", "Step time distribution vs k", "Figure 2(b)",
            "Per-step share of sFFT execution as k grows at fixed n.",
            run_fig2b,
        ),
        ExperimentSpec(
            "fig5a", "Run time vs signal size", "Figure 5(a)",
            "cusFFT (baseline/optimized) vs cuFFT, FFTW, PsFFT, k=1000.",
            run_fig5a,
        ),
        ExperimentSpec(
            "fig5b", "Run time vs sparsity", "Figure 5(b)",
            "All systems at n=2^27 as k sweeps 100..1000.",
            run_fig5b,
        ),
        ExperimentSpec(
            "fig5c", "Speedup over cuFFT", "Figure 5(c)",
            "cusFFT speedup over cuFFT vs n (paper: up to 15x).",
            run_fig5c,
        ),
        ExperimentSpec(
            "fig5d", "Speedup over parallel FFTW", "Figure 5(d)",
            "cusFFT speedup over 6-thread FFTW vs n (paper: 0.5x..29x).",
            run_fig5d,
        ),
        ExperimentSpec(
            "fig5e", "Speedup over PsFFT", "Figure 5(e)",
            "cusFFT speedup over the OpenMP CPU sFFT (paper: peak 6.6x).",
            run_fig5e,
        ),
        ExperimentSpec(
            "fig5f", "L1 error per coefficient", "Figure 5(f)",
            "Numerical accuracy vs k (functional runs, real numerics).",
            run_fig5f,
        ),
        ExperimentSpec(
            "table1", "GPU test-bench", "Table I",
            "Simulated Tesla K20x configuration and micro-benchmarks.",
            run_table1,
        ),
        ExperimentSpec(
            "table2", "CPU test-bench", "Table II",
            "Simulated Xeon E5-2640 configuration.",
            run_table2,
        ),
        ExperimentSpec(
            "abl-partition", "Loop partition vs atomic histogram", "Section IV-C",
            "Ablation: collision-free binning vs atomicAdd histogram.",
            run_ablation_partition,
        ),
        ExperimentSpec(
            "abl-layout", "Async layout transformation", "Section V-A",
            "Ablation: remap+exec stream pipeline vs fused strided kernel.",
            run_ablation_layout,
        ),
        ExperimentSpec(
            "abl-select", "Fast k-selection", "Section V-B",
            "Ablation: threshold selection vs Thrust sort&select.",
            run_ablation_select,
        ),
        ExperimentSpec(
            "abl-batch", "Batched cuFFT", "Section IV-C step 3",
            "Ablation: one batched cuFFT call vs L separate calls.",
            run_ablation_batch,
        ),
        ExperimentSpec(
            "ext-devices", "Other architectures", "Section VII (future work)",
            "Extension: cusFFT on K40/Maxwell, PsFFT on Xeon Phi.",
            run_ext_devices,
        ),
        ExperimentSpec(
            "ext-tuning", "Parameter autotuning", "Section VI (Bcst tuning)",
            "Extension: model-driven B selection vs the fixed formula.",
            run_ext_tuning,
        ),
        ExperimentSpec(
            "ext-noise", "Noise robustness", "Section VI (accuracy)",
            "Extension: functional recall and L1 error vs input SNR.",
            run_ext_noise,
        ),
        ExperimentSpec(
            "ext-comb", "sFFT 2.0 Comb pre-filter", "Section II-C / ref [3]",
            "Extension: residue screening quality and vote reduction.",
            run_ext_comb,
        ),
        ExperimentSpec(
            "ext-ldg", "Read-only cache gathers", "Section II-A (unused)",
            "Extension: __ldg gathers cut wire traffic 4x on the gather path.",
            run_ext_ldg,
        ),
        ExperimentSpec(
            "ext-offgrid", "Off-grid tone recovery", "beyond the evaluation",
            "Extension: leakage stress with non-integer tone frequencies.",
            run_ext_offgrid,
        ),
        ExperimentSpec(
            "ext-exact", "Phase-first location vs voting", "Section II-C / ref [3]",
            "Extension: the engine's sFFT-3.0-style phase location against "
            "its voting fallback, one plan.",
            run_ext_exact,
        ),
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment; raises :class:`ExperimentError` if unknown."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run_experiment(experiment_id: str, **options) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id).run(**options)


def list_experiments() -> list[ExperimentSpec]:
    """All registered experiments in id order."""
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS)]
