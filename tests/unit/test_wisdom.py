"""Unit tests for the ``repro.wisdom/1`` store and its validator."""

from __future__ import annotations

import json

import pytest

from repro.core.parameters import derive_parameters
from repro.errors import ParameterError
from repro.tune import (
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

N, K = 1024, 4


def make_record(n=N, k=K, *, loops=6, noise="exact", batch=1, version=None,
                **config_extra):
    """A schema-valid wisdom record whose fingerprint is fresh."""
    params = derive_parameters(n, k, loops=loops)
    resolved = {"B": int(params.B), "loops": int(params.loops)}
    record = {
        "schema": WISDOM_SCHEMA,
        "class": class_key(n, k, noise, batch),
        "config": {"loops": loops, **config_extra},
        "resolved": resolved,
        "fingerprint": config_fingerprint(n, k, dict(resolved)),
    }
    if version is not None:
        record["version"] = version
    return record


class TestClassKey:
    def test_round_trip(self):
        key = class_key(16384, 8, "noisy", 32)
        assert key == "n=16384|k=8|noise=noisy|batch=32"
        assert parse_class_key(key) == (16384, 8, "noisy", 32)

    def test_malformed_keys_raise(self):
        with pytest.raises(ParameterError):
            class_key(N, K, "NOISY")  # uppercase slug
        with pytest.raises(ParameterError):
            parse_class_key("n=1024|k=4")
        with pytest.raises(ParameterError):
            parse_class_key(42)


class TestFingerprint:
    def test_deterministic_and_override_sensitive(self):
        a = config_fingerprint(N, K, {"loops": 6})
        assert a == config_fingerprint(N, K, {"loops": 6})
        assert a != config_fingerprint(N, K, {"loops": 8})
        assert a != config_fingerprint(2 * N, K, {"loops": 6})
        assert len(a) == 16 and int(a, 16) >= 0

    def test_equivalent_spellings_share_a_fingerprint(self):
        # The digest hashes the *resolved* parameter tuple, so a config
        # that derives the default loops matches the bare derivation.
        default_loops = derive_parameters(N, K).loops
        assert config_fingerprint(N, K, {}) == config_fingerprint(
            N, K, {"loops": default_loops}
        )


class TestValidator:
    def test_fresh_record_is_valid(self):
        assert validate_wisdom_record(make_record(version=1)) == []

    def test_unknown_keys_rejected(self):
        record = make_record(version=1)
        record["vibe"] = "good"
        assert any("unknown keys" in p
                   for p in validate_wisdom_record(record))

    def test_missing_required_keys_named(self):
        record = make_record(version=1)
        del record["fingerprint"]
        assert any("fingerprint" in p
                   for p in validate_wisdom_record(record))

    def test_malformed_class_key_rejected(self):
        record = make_record(version=1)
        record["class"] = "n=1024;k=4"
        assert any("class" in p for p in validate_wisdom_record(record))

    def test_bad_versions_rejected(self):
        for bad in (0, -1, 1.5, True, "1"):
            record = make_record(version=1)
            record["version"] = bad
            assert any("version" in p
                       for p in validate_wisdom_record(record)), bad

    def test_config_checked(self):
        record = make_record(version=1)
        record["config"] = {"B_scale": -1.0, "workers": 0, "bogus": 3}
        problems = "\n".join(validate_wisdom_record(record))
        assert "B_scale" in problems
        assert "config.workers" in problems
        assert "unknown keys" in problems

    def test_resolved_must_be_positive_ints(self):
        record = make_record(version=1)
        record["resolved"] = {"B": 0, "loops": "six"}
        problems = "\n".join(validate_wisdom_record(record))
        assert "resolved.B" in problems and "resolved.loops" in problems

    def test_non_dict_is_one_problem(self):
        assert validate_wisdom_record([1, 2]) \
            == ["wisdom record must be a JSON object"]


class TestStaleness:
    def test_fresh_record_is_not_stale(self):
        assert not is_stale(make_record(), N, K)

    def test_tampered_fingerprint_is_stale(self):
        record = make_record()
        record["fingerprint"] = "0" * 16
        assert is_stale(record, N, K)

    def test_invalid_overrides_are_stale_not_raising(self):
        record = make_record()
        record["resolved"] = {"B": 3, "loops": 6}  # non-power-of-two B
        assert is_stale(record, N, K)

    def test_wisdom_overrides_uses_resolved_values(self):
        record = make_record(loops=6)
        ov = wisdom_overrides(record)
        assert ov == {"B": record["resolved"]["B"], "loops": 6}


class TestLookup:
    def test_highest_version_wins(self):
        records = [make_record(version=1, loops=6),
                   make_record(version=2, loops=8)]
        hit = lookup_records(records, N, K)
        assert hit is not None and hit["version"] == 2

    def test_batch_falls_back_to_single(self):
        records = [make_record(version=1)]
        assert lookup_records(records, N, K, batch_size=16) is not None

    def test_exact_batch_beats_fallback(self):
        records = [make_record(version=1, loops=6),
                   make_record(version=1, loops=8, batch=16)]
        hit = lookup_records(records, N, K, batch_size=16)
        assert hit["class"].endswith("batch=16")

    def test_no_match_is_none(self):
        assert lookup_records([make_record()], N, 2 * K) is None
        assert lookup_records([make_record()], N, K,
                              noise_class="noisy") is None


class TestWisdomStore:
    def test_missing_file_loads_empty(self, tmp_path):
        assert WisdomStore(str(tmp_path / "none.json")).load() == []

    def test_append_assigns_monotonic_versions(self, tmp_path):
        store = WisdomStore(str(tmp_path / "W.json"))
        first = store.append(make_record())
        second = store.append(make_record(loops=8))
        assert (first["version"], second["version"]) == (1, 2)
        assert store.lookup(N, K)["version"] == 2

    def test_append_rejects_invalid_records(self, tmp_path):
        store = WisdomStore(str(tmp_path / "W.json"))
        record = make_record(version=1)
        record["fingerprint"] = "nope"
        with pytest.raises(ParameterError):
            store.append(record)

    def test_append_rejects_non_monotonic_version(self, tmp_path):
        store = WisdomStore(str(tmp_path / "W.json"))
        store.append(make_record(version=3))
        with pytest.raises(ParameterError, match="non-monotonic"):
            store.append(make_record(version=2))

    def test_load_names_the_offending_line(self, tmp_path):
        path = tmp_path / "W.json"
        good = json.dumps(make_record(version=1))
        path.write_text(good + "\n{not json}\n")
        with pytest.raises(ParameterError, match=r":2:"):
            WisdomStore(str(path)).load()

    def test_load_rejects_non_monotonic_file(self, tmp_path):
        path = tmp_path / "W.json"
        line = json.dumps(make_record(version=1))
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ParameterError, match="non-monotonic"):
            WisdomStore(str(path)).load()


class TestConsumptionCache:
    def test_appends_invalidate_the_cache(self, tmp_path):
        path = str(tmp_path / "W.json")
        store = WisdomStore(path)
        store.append(make_record())
        assert len(load_wisdom(path)) == 1
        store.append(make_record(loops=8))
        assert len(load_wisdom(path)) == 2
        clear_wisdom_cache()

    def test_missing_path_is_an_empty_store(self, tmp_path):
        assert load_wisdom(str(tmp_path / "missing.json")) == []
