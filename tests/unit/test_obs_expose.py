"""Unit tests for the crash-safe append primitive of the export layer.

``atomic_append_text`` writes every ``repro.run/1`` record; these cases
pin its single-writer behaviour (the concurrent case is in
``test_obs_concurrency.py``).
"""

from repro.obs.export import atomic_append_text


class TestAtomicAppend:
    def test_creates_then_appends(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_append_text(path, "one\n")
        atomic_append_text(path, "two\n")
        with open(path) as fh:
            assert fh.read() == "one\ntwo\n"

    def test_never_leaves_temp_files(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_append_text(path, "line\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
