"""Repo-invariant AST rules, suppressions, schema, and the lint CLI.

Each rule gets a positive (flagged) and negative (clean) case; the repo
tip itself must lint clean — that last test is what turns the invariants
from documentation into a gate.
"""

import json
import textwrap

import pytest

from repro.analysis.staticcheck import (
    RULES,
    Finding,
    Suppressions,
    lint_source,
    lint_tree,
    validate_lint_record,
)
from repro.analysis.staticcheck.cli import lint_main
from repro.errors import ParameterError


def _lint(source, relpath="core/example.py"):
    return lint_source(textwrap.dedent(source),
                       path=f"src/repro/{relpath}", relpath=relpath)


def _rules(findings):
    return sorted(f.rule for f in findings)


class TestFftRegistryBypass:
    def test_direct_np_fft_call(self):
        findings = _lint("""
            import numpy as np
            spec = np.fft.fft(x)
        """)
        assert _rules(findings) == ["fft-registry-bypass"]
        assert findings[0].line == 3
        assert "get_backend" in findings[0].message

    @pytest.mark.parametrize("call", [
        "numpy.fft.ifft(x)", "scipy.fft.rfft(x)", "np.fft.fft2(x)",
        "pyfftw.interfaces.numpy_fft.fft(x)",
    ])
    def test_other_vendor_transforms(self, call):
        findings = _lint(f"y = {call}\n")
        assert _rules(findings) == ["fft-registry-bypass"]

    def test_from_import_of_transform(self):
        findings = _lint("from numpy.fft import fft\n")
        assert _rules(findings) == ["fft-registry-bypass"]

    def test_registry_call_is_clean(self):
        assert _lint("""
            from repro.core.fft_backend import get_backend
            spec = get_backend().fft(x)
        """) == []

    def test_non_transform_fft_attrs_are_clean(self):
        # fftfreq/fftshift are helpers, not transforms.
        assert _lint("""
            import numpy as np
            f = np.fft.fftfreq(n)
            g = np.fft.fftshift(f)
        """) == []

    def test_fft_backend_module_is_exempt(self):
        findings = _lint("import numpy as np\ny = np.fft.fft(x)\n",
                         relpath="core/fft_backend.py")
        assert findings == []


class TestMetricNameFamily:
    def test_off_family_literal_is_flagged(self):
        findings = _lint('m = registry.counter("mylib.things")\n')
        assert _rules(findings) == ["metric-name-family"]

    @pytest.mark.parametrize("name", [
        "sfft.perm_filter.seconds", "cusim.kernel.launches", "sfft.loops",
    ])
    def test_family_names_are_clean(self, name):
        assert _lint(f'm = registry.gauge("{name}")\n') == []

    @pytest.mark.parametrize("name", ["sfft.Bad", "sfft", "cusim..x"])
    def test_malformed_family_names_are_flagged(self, name):
        findings = _lint(f'm = registry.histogram("{name}")\n')
        assert _rules(findings) == ["metric-name-family"]

    def test_dynamic_names_are_not_guessed(self):
        # Only literals are checkable; a variable name passes.
        assert _lint("m = registry.counter(name)\n") == []


class TestWorkspaceMutation:
    @pytest.mark.parametrize("stmt", [
        "ws.gather[0] = 1", "self._taps_flat[:] = 0",
        "ws.taps_matrix = other", "ws.gather += 1",
    ])
    def test_writes_are_flagged(self, stmt):
        findings = _lint(f"{stmt}\n")
        assert _rules(findings) == ["workspace-mutation"]

    def test_inplace_method_is_flagged(self):
        findings = _lint("ws.gather.fill(0)\n")
        assert _rules(findings) == ["workspace-mutation"]

    def test_reads_are_clean(self):
        assert _lint("x = ws.gather[0] + ws.taps_flat.sum()\n") == []

    def test_workspace_module_is_exempt(self):
        assert _lint("self._gather = build()\n",
                     relpath="core/workspace.py") == []

    _WORKSPACE = """
        class PlanWorkspace:
            def __init__(self, plan):
                self.plan = plan
                self._gather = None

            @property
            def gather(self):
                if self._gather is None:
                    self._gather = build(self.plan)
                return self._gather

            def clone(self):
                twin = PlanWorkspace(self.plan)
                twin._gather = self._gather
                return twin

            def adopt_shared(self, gather):
                self._gather = gather
    """

    def test_workspace_setters_and_lazy_fills_are_clean(self):
        assert _lint(self._WORKSPACE, relpath="core/workspace.py") == []

    @pytest.mark.parametrize("method", [
        "def bin_fused(self, x):\n    self._scratch = x",
        "def bin_fused(self, x):\n    self.a, (self.b, y) = x",
        "def bin_fused(self, x):\n    setattr(self, 'last', x)",
        "@property\ndef buf(self):\n    self._buf = make()",
    ])
    def test_new_workspace_attribute_is_flagged(self, method):
        # Negative fixture: per-call scratch cached on the shared
        # workspace (the race the rule exists to keep out).
        body = textwrap.indent(method, " " * 12)
        findings = _lint(self._WORKSPACE + "\n" + body + "\n",
                         relpath="core/workspace.py")
        assert set(_rules(findings)) == {"workspace-mutation"}
        assert "PlanWorkspace." in findings[0].message

    def test_attribute_rule_applies_to_the_workspace_class_only(self):
        source = self._WORKSPACE.replace("PlanWorkspace", "Other") \
            + "\n            def run(self):\n                self.x = 1\n"
        assert _lint(source, relpath="core/workspace.py") == []


class TestWallclockInCore:
    def test_time_call_in_core_is_flagged(self):
        findings = _lint("""
            import time
            t0 = time.perf_counter()
        """)
        assert _rules(findings) == ["wallclock-in-core"]
        assert "repro.obs.monotonic" in findings[0].message

    def test_aliased_import_is_tracked(self):
        findings = _lint("""
            import time as clock
            t0 = clock.monotonic()
        """, relpath="gpu/example.py")
        assert _rules(findings) == ["wallclock-in-core"]

    def test_from_import_is_tracked(self):
        findings = _lint("""
            from time import perf_counter
            t0 = perf_counter()
        """)
        assert _rules(findings) == ["wallclock-in-core"]

    def test_outside_core_and_gpu_is_clean(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert _lint(src, relpath="obs/trace.py") == []
        assert _lint(src, relpath="experiments/example.py") == []

    def test_sleep_is_not_a_clock(self):
        assert _lint("import time\ntime.sleep(1)\n") == []


class TestTelemetryThreadSafety:
    @pytest.mark.parametrize("stmt", [
        "x = registry._instruments['sfft.loops']",
        "registry._instruments.clear()",
    ])
    def test_internal_access_is_flagged(self, stmt):
        findings = _lint(f"{stmt}\n")
        assert _rules(findings) == ["telemetry-thread-safety"]
        assert "counter() / gauge() / histogram()" in findings[0].message

    def test_public_api_is_clean(self):
        assert _lint("""
            registry.counter("sfft.loops").inc()
            registry.gauge("sfft.plan_cache.bytes").set(0)
            registry.histogram("sfft.recovery.votes").observe(1)
        """) == []

    def test_obs_modules_are_exempt(self):
        assert _lint("inst = self._instruments.get(name)\n",
                     relpath="obs/metrics.py") == []

    def test_suppressible(self):
        src = ("n = len(registry._instruments)  "
               "# reprolint: ignore[telemetry-thread-safety]\n")
        assert lint_source(src, path="a.py", relpath="core/a.py") == []


class TestSpanOrphan:
    def test_trackless_add_span_is_flagged(self):
        findings = _lint(
            'tracer.add_span("comb", start_s=0.0, duration_s=w, '
            'category="sfft")\n'
        )
        assert _rules(findings) == ["span-orphan"]
        assert "track" in findings[0].message

    def test_tracked_add_span_is_clean(self):
        assert _lint(
            'tracer.add_span("comb", start_s=0.0, duration_s=w, '
            'category="sfft", track=EXECUTOR_TRACK)\n'
        ) == []

    def test_kwargs_splat_is_not_guessed_at(self):
        assert _lint('tracer.add_span("comb", **span_kwargs)\n') == []

    def test_obs_modules_are_exempt(self):
        assert _lint('replay.add_span("x", start_s=0.0, duration_s=1.0)\n',
                     relpath="obs/live.py") == []

    def test_suppressible(self):
        src = ('tracer.add_span("x", start_s=0.0, duration_s=1.0)  '
               "# reprolint: ignore[span-orphan]\n")
        assert lint_source(src, path="a.py", relpath="core/a.py") == []


class TestParamResolutionBypass:
    def test_constant_loops_in_make_plan_is_flagged(self):
        findings = _lint("plan = make_plan(n, k, loops=6)\n")
        assert _rules(findings) == ["param-resolution-bypass"]
        assert "loops=6" in findings[0].message

    def test_constant_b_in_derive_parameters_is_flagged(self):
        findings = _lint("p = derive_parameters(n, k, B=256)\n")
        assert _rules(findings) == ["param-resolution-bypass"]

    def test_constant_in_dict_kwargs_bundle_is_flagged(self):
        findings = _lint('KW = dict(profile="fast", loops=6)\n',
                         relpath="experiments/base.py")
        assert _rules(findings) == ["param-resolution-bypass"]

    def test_threaded_value_is_clean(self):
        assert _lint("plan = make_plan(n, k, **resolved.overrides)\n") == []
        assert _lint("plan = make_plan(n, k, loops=cfg.loops)\n") == []

    def test_explicit_none_is_clean(self):
        # loops=None means "derive the default" — not a pinned value.
        assert _lint("p = derive_parameters(n, k, loops=None)\n") == []

    def test_unrelated_callable_is_clean(self):
        assert _lint("obj = Candidate(loops=6)\n") == []

    def test_seam_and_tuner_are_exempt(self):
        src = "p = derive_parameters(n, k, loops=6)\n"
        assert _lint(src, relpath="core/params.py") == []
        assert _lint(src, relpath="core/parameters.py") == []
        assert _lint(src, relpath="tune/candidates.py") == []

    def test_suppressible(self):
        src = ("KW = dict(loops=6)  "
               "# reprolint: ignore[param-resolution-bypass]\n")
        assert lint_source(src, path="a.py", relpath="core/a.py") == []


class TestShmLifecycle:
    def test_ctor_outside_owner_is_flagged(self):
        findings = _lint("""
            from multiprocessing import shared_memory
            seg = shared_memory.SharedMemory(name="x")
        """)
        assert _rules(findings) == ["shm-lifecycle"]
        assert "core/shm.py" in findings[0].message

    def test_bare_name_ctor_is_flagged(self):
        findings = _lint("""
            from multiprocessing.shared_memory import SharedMemory
            seg = SharedMemory(name="x")
        """, relpath="obs/export.py")
        assert _rules(findings) == ["shm-lifecycle"]

    def test_create_without_unlink_in_owner_is_flagged(self):
        findings = _lint("""
            from multiprocessing import shared_memory
            def build():
                return shared_memory.SharedMemory(create=True, size=8)
        """, relpath="core/shm.py")
        assert _rules(findings) == ["shm-lifecycle"]
        assert "unlink" in findings[0].message

    def test_create_with_unlink_path_in_owner_is_clean(self):
        assert _lint("""
            from multiprocessing import shared_memory
            def build():
                seg = shared_memory.SharedMemory(create=True, size=8)
                try:
                    fill(seg)
                except Exception:
                    seg.close()
                    seg.unlink()
                    raise
                return seg
        """, relpath="core/shm.py") == []

    def test_create_outside_owner_is_doubly_wrong(self):
        # A creating function elsewhere trips both halves of the rule:
        # wrong module *and* no unlink path.
        findings = _lint("""
            from multiprocessing import shared_memory
            def build():
                return shared_memory.SharedMemory(create=True, size=8)
        """)
        assert _rules(findings) == ["shm-lifecycle", "shm-lifecycle"]

    def test_nested_function_scopes_are_independent(self):
        # The unlink lives in a nested closure the creating scope never
        # reaches; the create is still flagged.
        findings = _lint("""
            from multiprocessing import shared_memory
            def build():
                seg = shared_memory.SharedMemory(create=True, size=8)
                def cleanup():
                    seg.unlink()
                return seg
        """, relpath="core/shm.py")
        assert _rules(findings) == ["shm-lifecycle"]

    def test_attach_in_owner_is_clean(self):
        assert _lint("""
            from multiprocessing import shared_memory
            def attach(name):
                return shared_memory.SharedMemory(name=name)
        """, relpath="core/shm.py") == []

    def test_suppressible(self):
        src = ("from multiprocessing.shared_memory import SharedMemory\n"
               "seg = SharedMemory(name='x')  "
               "# reprolint: ignore[shm-lifecycle]\n")
        assert lint_source(src, path="a.py", relpath="core/a.py") == []


class TestBareValueError:
    def test_raise_valueerror_is_flagged(self):
        findings = _lint('raise ValueError("bad")\n')
        assert _rules(findings) == ["bare-valueerror"]

    def test_reraise_name_is_flagged(self):
        assert _rules(_lint("raise ValueError\n")) == ["bare-valueerror"]

    def test_parameter_error_is_clean(self):
        assert _lint("""
            from repro.errors import ParameterError
            raise ParameterError("bad")
        """) == []

    def test_catching_valueerror_is_clean(self):
        assert _lint("""
            try:
                f()
            except ValueError:
                pass
        """) == []


class TestEnvReadOutsideSeam:
    def test_os_environ_read_is_flagged(self):
        findings = _lint("""
            import os
            mode = os.environ["REPRO_MODE"]
        """)
        assert _rules(findings) == ["env-read-outside-seam"]
        assert "config seam" in findings[0].message

    def test_os_environ_get_emits_once(self):
        findings = _lint("""
            import os
            mode = os.environ.get("REPRO_MODE", "")
        """)
        assert _rules(findings) == ["env-read-outside-seam"]

    def test_os_getenv_is_flagged(self):
        findings = _lint("""
            import os
            mode = os.getenv("REPRO_MODE")
        """)
        assert _rules(findings) == ["env-read-outside-seam"]

    def test_from_os_import_is_flagged(self):
        findings = _lint("from os import environ\n")
        assert _rules(findings) == ["env-read-outside-seam"]
        findings = _lint("from os import getenv\n")
        assert _rules(findings) == ["env-read-outside-seam"]

    @pytest.mark.parametrize("seam", [
        "core/params.py", "core/fft_backend.py", "core/executor.py",
        "__main__.py",
    ])
    def test_sanctioned_seams_are_exempt(self, seam):
        findings = _lint("""
            import os
            mode = os.environ.get("REPRO_MODE", "")
            other = os.getenv("REPRO_OTHER")
        """, relpath=seam)
        assert findings == []

    def test_non_env_os_attrs_are_clean(self):
        assert _lint("""
            import os
            path = os.path.join(os.sep, "tmp")
            pid = os.getpid()
        """) == []

    def test_suppression_works(self):
        src = ("import os\n"
               "flag = os.environ.get('X', '')  "
               "# reprolint: ignore[env-read-outside-seam]\n")
        assert lint_source(src, path="a.py", relpath="core/a.py") == []


class TestSuppressions:
    def test_targeted_suppression(self):
        src = ("import numpy as np\n"
               "y = np.fft.fft(x)  # reprolint: ignore[fft-registry-bypass]\n")
        assert lint_source(src, path="a.py", relpath="core/a.py") == []

    def test_bare_suppression_covers_all_rules(self):
        src = 'raise ValueError("x")  # reprolint: ignore\n'
        assert lint_source(src, path="a.py", relpath="core/a.py") == []

    def test_wrong_rule_does_not_suppress(self):
        src = ('raise ValueError("x")  '
               "# reprolint: ignore[fft-registry-bypass]\n")
        findings = lint_source(src, path="a.py", relpath="core/a.py")
        assert _rules(findings) == ["bare-valueerror"]

    def test_multiline_statement_suppressed_on_any_line(self):
        src = ("import numpy as np\n"
               "y = np.fft.fft(\n"
               "    x,\n"
               ")  # reprolint: ignore[fft-registry-bypass]\n")
        assert lint_source(src, path="a.py", relpath="core/a.py") == []

    def test_parsing(self):
        sup = Suppressions(
            "x = 1  # reprolint: ignore[rule-a, rule-b]\n"
            "y = 2  # reprolint: ignore\n"
        )
        assert len(sup) == 2
        assert sup.covers("rule-a", 1) and sup.covers("rule-b", 1)
        assert not sup.covers("rule-c", 1)
        assert sup.covers("anything", 2)
        assert sup.covers("rule-a", 1, end_line=3)


class TestFindingSchema:
    def test_round_trip_validates(self):
        finding = Finding(rule="kernel-race", severity="error",
                          path="src/repro/x.py", line=3, message="boom",
                          engine="race")
        assert validate_lint_record(finding.to_json()) == []
        assert finding.render() == (
            "src/repro/x.py:3: error: boom [kernel-race]"
        )

    def test_invalid_records_name_the_field(self):
        problems = validate_lint_record({"schema": "repro.lint/1"})
        text = "\n".join(problems)
        for field in ("rule", "severity", "path", "line", "message"):
            assert field in text
        assert validate_lint_record([]) == ["lint record must be a JSON object"]

    def test_malformed_finding_is_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            Finding(rule="Bad Rule", severity="error", path="x", line=1,
                    message="m")
        with pytest.raises(ParameterError):
            Finding(rule="ok-rule", severity="fatal", path="x", line=1,
                    message="m")

    def test_rule_catalog_carries_rationales(self):
        assert set(RULES) == {
            "fft-registry-bypass", "metric-name-family",
            "workspace-mutation", "wallclock-in-core", "bare-valueerror",
            "telemetry-thread-safety", "span-orphan", "shm-lifecycle",
            "param-resolution-bypass", "env-read-outside-seam",
        }
        for rule in RULES.values():
            assert rule.summary and rule.rationale


class TestRepoTipIsClean:
    def test_lint_tree_reports_nothing(self):
        assert lint_tree() == []


class TestLintCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_seeded_bad_file_exits_nonzero_with_anchor(self, tmp_path,
                                                       capsys):
        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\ny = np.fft.fft(x)\n")
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:2: error:" in out.replace("\\", "/")
        assert "[fft-registry-bypass]" in out

    def test_json_records_validate(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text('raise ValueError("x")\n')
        assert lint_main(["--json", str(target)]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            assert validate_lint_record(json.loads(line)) == []

    def test_warning_only_finding_exits_nonzero(self, monkeypatch, capsys):
        # The lint is the one gate: a warning fails it as an error does.
        from repro.analysis.staticcheck import cli

        warning = Finding(rule="kernel-divergent-store", severity="warning",
                          path="src/repro/x.py", line=1, message="diverged",
                          engine="race")
        monkeypatch.setattr(cli, "collect_findings",
                            lambda root, kernels: [warning])
        assert lint_main([]) == 1
        assert "0 error(s), 1 warning(s)" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert lint_main(["/no/such/file.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_full_repo_run_is_green(self, capsys):
        assert lint_main(["--no-kernels"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out
