"""The ``repro.wisdom/1`` store — measured parameter picks, persisted.

FFTW calls its measured plans *wisdom*; this module is the sFFT analogue.
A wisdom record says: "for workload class ``n=16384|k=8|noise=exact|batch=1``,
the measured winner is this ``(B, L, Comb, backend, workers)`` tuple" — and
carries enough provenance (trial statistics, a plan fingerprint, a
per-class version) that consumers can tell a fresh entry from a stale one.

Storage is JSONL with the same economics as ``repro.run/1``: schema-valid
records only, atomic appends (:func:`repro.obs.atomic_append_text`), and a
validator that rejects unknown keys so the writer and CI cannot drift.
Staleness is structural, not temporal: each record stamps the
:func:`config_fingerprint` of the fully resolved
:class:`~repro.core.parameters.SfftParameters` its config produces *today*;
when parameter derivation changes in a later PR, recomputing the
fingerprint at consumption time no longer matches and the entry is ignored
(``sfft.wisdom.stale``) instead of silently applying outdated picks.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import astuple, fields
from typing import Any

from ..core.parameters import SfftParameters, derive_parameters
from ..errors import ParameterError
from ..obs import atomic_append_text

__all__ = [
    "WISDOM_SCHEMA",
    "class_key",
    "parse_class_key",
    "config_fingerprint",
    "validate_wisdom_record",
    "wisdom_overrides",
    "is_stale",
    "lookup_records",
    "WisdomStore",
    "load_wisdom",
    "clear_wisdom_cache",
]

WISDOM_SCHEMA = "repro.wisdom/1"

#: Workload-class key grammar: the four axes tuning is keyed by.
_CLASS_RE = re.compile(
    r"^n=(\d+)\|k=(\d+)\|noise=([a-z][a-z0-9_]*)\|batch=(\d+)$"
)

#: Exactly the keys a record may carry (unknown keys are rejected — the
#: same closed-schema stance as ``repro.run/1`` fields).
_RECORD_KEYS = frozenset({
    "schema", "version", "class", "config", "resolved", "fingerprint",
    "stats", "created",
})
_REQUIRED_KEYS = ("schema", "version", "class", "config", "resolved",
                  "fingerprint")

#: The searchable configuration axes (see ``repro.tune.candidates``).
_CONFIG_KEYS = frozenset({
    "B_scale", "loops", "comb_width", "fft_backend", "workers",
})


def class_key(n: int, k: int, noise_class: str = "exact",
              batch_size: int = 1) -> str:
    """Canonical class-key string for a ``(n, k, noise, batch)`` workload."""
    key = f"n={int(n)}|k={int(k)}|noise={noise_class}|batch={int(batch_size)}"
    if _CLASS_RE.match(key) is None:
        raise ParameterError(f"malformed workload class key {key!r}")
    return key


def parse_class_key(key: str) -> tuple[int, int, str, int]:
    """``(n, k, noise_class, batch_size)`` of a canonical class key."""
    m = _CLASS_RE.match(key) if isinstance(key, str) else None
    if m is None:
        raise ParameterError(
            f"malformed workload class key {key!r} "
            "(want 'n=<int>|k=<int>|noise=<slug>|batch=<int>')"
        )
    return int(m.group(1)), int(m.group(2)), m.group(3), int(m.group(4))


def config_fingerprint(n: int, k: int, overrides: dict[str, Any]) -> str:
    """Fingerprint of the plan a tuned config resolves to *right now*.

    Hashes the :class:`SfftParameters` field names plus the fully resolved
    value tuple of ``derive_parameters(n, k, **overrides)``.  Any change to
    parameter derivation (new field, different clamp, different derived
    threshold) changes the digest, so stored wisdom whose assumptions no
    longer hold is detectably stale without any timestamps.
    """
    params = derive_parameters(n, k, **overrides)
    payload = json.dumps(
        {
            "fields": [f.name for f in fields(SfftParameters)],
            "values": astuple(params),
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_config(config: Any, problems: list[str]) -> None:
    if not isinstance(config, dict):
        problems.append("config must be an object")
        return
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        problems.append(f"config has unknown keys: {unknown}")
    scale = config.get("B_scale", 1.0)
    if not (isinstance(scale, (int, float)) and not isinstance(scale, bool)
            and scale > 0):
        problems.append("config.B_scale must be a positive number")
    for key in ("loops", "comb_width"):
        val = config.get(key)
        if val is not None and not (_is_int(val) and val >= 1):
            problems.append(f"config.{key} must be null or an int >= 1")
    backend = config.get("fft_backend")
    if backend is not None and not isinstance(backend, str):
        problems.append("config.fft_backend must be null or a string")
    workers = config.get("workers", 1)
    if not (_is_int(workers) and workers >= 1):
        problems.append("config.workers must be an int >= 1")


def validate_wisdom_record(record: Any) -> list[str]:
    """Problems that make ``record`` an invalid ``repro.wisdom/1`` doc."""
    if not isinstance(record, dict):
        return ["wisdom record must be a JSON object"]
    problems: list[str] = []
    if record.get("schema") != WISDOM_SCHEMA:
        problems.append(
            f"schema must be {WISDOM_SCHEMA!r}, got {record.get('schema')!r}"
        )
    unknown = sorted(set(record) - _RECORD_KEYS)
    if unknown:
        problems.append(f"unknown keys: {unknown}")
    for key in _REQUIRED_KEYS:
        if key not in record:
            problems.append(f"missing required key {key!r}")
    version = record.get("version")
    if "version" in record and not (_is_int(version) and version >= 1):
        problems.append("version must be an int >= 1")
    if "class" in record:
        key = record["class"]
        if not isinstance(key, str) or _CLASS_RE.match(key) is None:
            problems.append(
                f"class must match 'n=<int>|k=<int>|noise=<slug>|"
                f"batch=<int>', got {key!r}"
            )
    if "config" in record:
        _check_config(record["config"], problems)
    resolved = record.get("resolved")
    if "resolved" in record:
        if not isinstance(resolved, dict):
            problems.append("resolved must be an object")
        else:
            for key in ("B", "loops"):
                if not (_is_int(resolved.get(key)) and resolved[key] >= 1):
                    problems.append(f"resolved.{key} must be an int >= 1")
            extra = sorted(set(resolved) - {"B", "loops"})
            if extra:
                problems.append(f"resolved has unknown keys: {extra}")
    fp = record.get("fingerprint")
    if "fingerprint" in record and not (
        isinstance(fp, str) and re.fullmatch(r"[0-9a-f]{16}", fp)
    ):
        problems.append("fingerprint must be a 16-hex-digit string")
    if "stats" in record and not isinstance(record["stats"], dict):
        problems.append("stats must be an object")
    if "created" in record and not isinstance(record["created"], str):
        problems.append("created must be a string")
    return problems


def wisdom_overrides(record: dict[str, Any]) -> dict[str, Any]:
    """Plan-derivation overrides a consumer applies for this record.

    Consumption uses the *resolved* ``B``/``loops`` (not the search-space
    form), so the applied plan is exactly the one that was measured and
    fingerprinted.
    """
    resolved = record["resolved"]
    return {"B": int(resolved["B"]), "loops": int(resolved["loops"])}


def is_stale(record: dict[str, Any], n: int, k: int) -> bool:
    """True when the record's fingerprint no longer matches current code.

    A config whose overrides no longer validate (e.g. a ``B`` the current
    clamps reject) is stale too — staleness must never raise on the
    consumption path.
    """
    try:
        fresh = config_fingerprint(n, k, wisdom_overrides(record))
    except ParameterError:
        return True
    return fresh != record.get("fingerprint")


def lookup_records(records: list[dict[str, Any]], n: int, k: int, *,
                   noise_class: str = "exact",
                   batch_size: int = 1) -> dict[str, Any] | None:
    """Latest record matching the workload class among ``records``.

    Tries the exact batch-size class first, then the ``batch=1`` class —
    per-call wisdom still beats paper defaults for a batch the tuner never
    measured.  Within a class, the highest version wins.
    """
    latest: dict[str, dict[str, Any]] = {}
    for record in records:
        prev = latest.get(record["class"])
        if prev is None or record["version"] > prev["version"]:
            latest[record["class"]] = record
    for batch in dict.fromkeys((int(batch_size), 1)):
        key = class_key(n, k, noise_class, batch)
        if key in latest:
            return latest[key]
    return None


class WisdomStore:
    """A JSONL file of ``repro.wisdom/1`` records with atomic appends.

    Reads validate every line (naming the offending line number) and check
    the per-class version monotonicity invariant; lookups return the
    highest-version record for a class.  Batch lookups fall back to the
    ``batch=1`` class when no exact batch-size entry exists — single-call
    wisdom still beats paper defaults for a batch the tuner never saw.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def load(self) -> list[dict[str, Any]]:
        """All records, validated; ``[]`` when the file does not exist."""
        if not os.path.exists(self.path):
            return []
        records: list[dict[str, Any]] = []
        versions: dict[str, int] = {}
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParameterError(
                        f"{self.path}:{lineno}: not JSON ({exc})"
                    ) from None
                problems = validate_wisdom_record(record)
                if problems:
                    raise ParameterError(
                        f"{self.path}:{lineno}: {'; '.join(problems)}"
                    )
                cls, version = record["class"], record["version"]
                if versions.get(cls, 0) >= version:
                    raise ParameterError(
                        f"{self.path}:{lineno}: non-monotonic version "
                        f"{version} for class {cls!r} "
                        f"(already saw {versions[cls]})"
                    )
                versions[cls] = version
                records.append(record)
        return records

    def lookup(self, n: int, k: int, *, noise_class: str = "exact",
               batch_size: int = 1) -> dict[str, Any] | None:
        """Latest record for the class, with the ``batch=1`` fallback."""
        return lookup_records(
            self.load(), n, k, noise_class=noise_class, batch_size=batch_size
        )

    def next_version(self, cls: str) -> int:
        """The version a fresh append for ``cls`` should carry."""
        versions = [r["version"] for r in self.load() if r["class"] == cls]
        return max(versions, default=0) + 1

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Validate and atomically append one record; returns it.

        A missing ``version`` is assigned (current max for the class + 1);
        an explicit non-monotonic version is rejected, mirroring what the
        validator enforces file-wide.
        """
        record = dict(record)
        if "version" not in record:
            record["version"] = self.next_version(record.get("class", ""))
        problems = validate_wisdom_record(record)
        if problems:
            raise ParameterError(
                f"refusing to append invalid wisdom record: {problems}"
            )
        floor = self.next_version(record["class"])
        if record["version"] < floor:
            raise ParameterError(
                f"non-monotonic version {record['version']} for class "
                f"{record['class']!r} (next is {floor})"
            )
        atomic_append_text(
            self.path, json.dumps(record, separators=(",", ":")) + "\n"
        )
        clear_wisdom_cache(self.path)
        return record


#: Consumption-path cache: abspath -> ((mtime_ns, size), records).  The
#: resolution seam runs on every plan-less ``sfft`` call; re-parsing the
#: store each time would tax the hot path, while the (mtime, size)
#: signature keeps appended-to files visible.
_STORE_CACHE: dict[str, tuple[tuple[int, int], list[dict[str, Any]]]] = {}


def load_wisdom(path: str) -> list[dict[str, Any]]:
    """Validated records of ``path`` through the consumption cache."""
    apath = os.path.abspath(path)
    try:
        stat = os.stat(apath)
        sig = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        return []
    cached = _STORE_CACHE.get(apath)
    if cached is not None and cached[0] == sig:
        return cached[1]
    records = WisdomStore(apath).load()
    _STORE_CACHE[apath] = (sig, records)
    return records


def clear_wisdom_cache(path: str | None = None) -> None:
    """Drop the consumption cache (one path, or all of it)."""
    if path is None:
        _STORE_CACHE.clear()
    else:
        _STORE_CACHE.pop(os.path.abspath(path), None)
