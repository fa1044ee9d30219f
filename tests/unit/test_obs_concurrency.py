"""Unit tests: concurrency guarantees of the observability layer.

A promise the docs make that only a stress test can keep honest:
``atomic_append_text`` never exposes a torn line to concurrent writers.
"""

import json
import threading

from repro.obs import atomic_append_text


class TestAtomicAppendConcurrent:
    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        """N threads append whole JSON lines; every surviving line parses.

        The copy-append-replace scheme means concurrent appends may *lose*
        each other's records (last replace wins) but must never interleave
        or truncate one — the property the JSONL schema gate depends on.
        """
        path = str(tmp_path / "records.jsonl")
        writers, per_writer = 4, 25
        errors = []

        def writer(wid):
            try:
                for i in range(per_writer):
                    doc = {"writer": wid, "seq": i, "pad": "x" * 256}
                    atomic_append_text(path, json.dumps(doc) + "\n")
            except OSError as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines  # at least the last replace survived
        for line in lines:
            doc = json.loads(line)  # a torn line would raise here
            assert set(doc) == {"writer", "seq", "pad"}

    def test_sequential_appends_all_survive(self, tmp_path):
        path = str(tmp_path / "seq.jsonl")
        for i in range(10):
            atomic_append_text(path, f'{{"seq": {i}}}\n')
        with open(path, encoding="utf-8") as fh:
            assert [json.loads(ln)["seq"] for ln in fh] == list(range(10))

    def test_no_leftover_temp_files(self, tmp_path):
        path = str(tmp_path / "clean.jsonl")
        atomic_append_text(path, "{}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["clean.jsonl"]
