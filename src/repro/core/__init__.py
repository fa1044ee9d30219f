"""The sparse FFT core: parameters, plans, and the six-step pipeline."""

from .batch import run_stack_pipeline, sfft_batch_fused
from .binning import bin_loop_partition, bin_serial, bin_vectorized
from .executor import EXECUTOR_MODES, ShardedExecutor
from .fft_backend import (
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    set_default_backend,
)
from .comb import comb_approved_residues, comb_spectrum
from .cutoff import (
    cutoff,
    cutoff_rows,
    noise_floor_threshold,
    select_threshold,
    select_topk,
)
from .dense import dense_fft, dense_topk, reconstruct_time
from .estimation import (
    clean_loop_counts,
    componentwise_median,
    estimate_values,
    estimate_values_stack,
    loop_estimates,
    median_reliable,
)
from .exact import ExactSfftStats, sfft_exact
from .parameters import PROFILES, SfftParameters, derive_parameters
from .params import (
    ENV_B,
    ENV_LOOPS,
    ENV_WISDOM,
    RESOLUTION_SOURCES,
    ResolvedConfig,
    resolve_sfft_config,
)
from .permutation import (
    Permutation,
    permute_dense,
    permuted_indices,
    random_permutation,
)
from .plan import SfftPlan, load_plan, make_plan, save_plan
from .plan_cache import PlanCache, cached_plan, global_plan_cache
from .recovery import (
    candidate_frequencies,
    recover_locations,
    recover_locations_stack,
)
from .sfft import STEP_NAMES, SparseFFTResult, sfft
from .shm import SegmentBundle, SharedArraySpec
from .subsampled import bucket_fft, subsample_spectrum
from .variants import isfft, rsfft, sfft_batch
from .workspace import GATHER_ELEMENT_CAP, PlanWorkspace

__all__ = [
    "bin_loop_partition",
    "comb_approved_residues",
    "comb_spectrum",
    "bin_serial",
    "bin_vectorized",
    "cutoff",
    "cutoff_rows",
    "noise_floor_threshold",
    "select_threshold",
    "select_topk",
    "dense_fft",
    "dense_topk",
    "reconstruct_time",
    "clean_loop_counts",
    "componentwise_median",
    "median_reliable",
    "ExactSfftStats",
    "sfft_exact",
    "estimate_values",
    "estimate_values_stack",
    "loop_estimates",
    "PROFILES",
    "SfftParameters",
    "derive_parameters",
    "ENV_B",
    "ENV_LOOPS",
    "ENV_WISDOM",
    "RESOLUTION_SOURCES",
    "ResolvedConfig",
    "resolve_sfft_config",
    "Permutation",
    "permute_dense",
    "permuted_indices",
    "random_permutation",
    "SfftPlan",
    "load_plan",
    "make_plan",
    "save_plan",
    "PlanCache",
    "cached_plan",
    "global_plan_cache",
    "candidate_frequencies",
    "recover_locations",
    "recover_locations_stack",
    "STEP_NAMES",
    "SparseFFTResult",
    "sfft",
    "bucket_fft",
    "subsample_spectrum",
    "isfft",
    "rsfft",
    "sfft_batch",
    "sfft_batch_fused",
    "run_stack_pipeline",
    "ShardedExecutor",
    "EXECUTOR_MODES",
    "SegmentBundle",
    "SharedArraySpec",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "set_default_backend",
    "GATHER_ELEMENT_CAP",
    "PlanWorkspace",
]
