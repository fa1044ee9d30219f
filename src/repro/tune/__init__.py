"""Measured auto-tuning ("wisdom"): search, decide, persist, consume.

The package closes the loop ROADMAP item 4 names: the repo *measures
itself* per workload class and the core transparently picks the winners.

* :mod:`~repro.tune.candidates` — the search space: workload classes
  keyed ``(n, k, noise_class, batch_size)`` and the candidate grid over
  ``(B_scale, loops, comb, backend, workers)``;
* :mod:`~repro.tune.tuner` — repeated-trial measurement with the
  regression gate's IQR margin: winners must be statistically real;
* :mod:`~repro.tune.wisdom` — the versioned ``repro.wisdom/1`` JSONL
  store (schema-validated, atomic appends, fingerprint staleness);
* :mod:`~repro.tune.cli` — ``python -m repro tune``.

Consumption lives in :mod:`repro.core.params` (the resolution seam):
explicit kwargs > wisdom store (``$REPRO_WISDOM``) > paper defaults.

Note :mod:`repro.experiments.tuning` is the *modeled* (analytic) tuner
behind the ``ext-tuning`` study; this package is its measured
counterpart, the FFTW-wisdom analogue.
"""

from .candidates import (
    NOISE_CLASSES,
    Candidate,
    WorkloadClass,
    candidate_from_config,
    generate_candidates,
)
from .tuner import (
    CandidateStats,
    TuneConfig,
    TuneOutcome,
    build_record,
    measure_candidate,
    tune_class,
)
from .wisdom import (
    WISDOM_SCHEMA,
    WisdomStore,
    class_key,
    clear_wisdom_cache,
    config_fingerprint,
    is_stale,
    load_wisdom,
    lookup_records,
    parse_class_key,
    validate_wisdom_record,
    wisdom_overrides,
)

__all__ = [
    "NOISE_CLASSES",
    "Candidate",
    "WorkloadClass",
    "candidate_from_config",
    "generate_candidates",
    "CandidateStats",
    "TuneConfig",
    "TuneOutcome",
    "build_record",
    "measure_candidate",
    "tune_class",
    "WISDOM_SCHEMA",
    "WisdomStore",
    "class_key",
    "clear_wisdom_cache",
    "config_fingerprint",
    "is_stale",
    "load_wisdom",
    "lookup_records",
    "parse_class_key",
    "validate_wisdom_record",
    "wisdom_overrides",
]
