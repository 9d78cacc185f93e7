"""Tests for run manifests and the JSONL run logger."""

import json
import subprocess

import pytest

from repro.algorithms import DimensionOrderPolicy, RestrictedPriorityPolicy
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.dynamic import BernoulliTraffic, BufferedDynamicEngine, DynamicEngine
from repro.obs.manifest import (
    SCHEMA_VERSION,
    JsonlRunLogger,
    RunManifest,
    append_manifest,
    git_sha,
    manifest_for_engine,
    manifest_from_run_result,
    read_manifests,
    validate_manifest,
)
from repro.obs.profiler import PhaseProfiler
from repro.workloads import random_many_to_many


def run_batch_engine(mesh, **kwargs):
    problem = random_many_to_many(mesh, k=10, seed=21)
    engine = HotPotatoEngine(problem, RestrictedPriorityPolicy(), seed=21,
                             **kwargs)
    return engine, engine.run()


class _TickProfiler(PhaseProfiler):
    """A profiler on a counting clock.  Each step logs how many times
    it read the clock, the span from its first to its last read, and
    the phase durations it recorded."""

    def __init__(self):
        super().__init__()
        self.ticks = 0
        self.reads = []
        self.log = []

    def clock(self):
        self.ticks += 1
        self.reads.append(self.ticks)
        return self.ticks

    def record_step(self, *durations):
        super().record_step(*durations)
        span = self.reads[-1] - self.reads[0]
        self.log.append((len(self.reads), span, durations))
        self.reads = []


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=test", "-c", "user.email=test@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=str(repo),
        check=True,
        capture_output=True,
    )


@pytest.fixture
def committed_repo(tmp_path):
    """A throwaway repository with one commit, independent of whether
    the tree under test is itself a checkout."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "tracked.txt").write_text("one\n", encoding="utf-8")
    _git(repo, "add", "tracked.txt")
    _git(repo, "commit", "-q", "-m", "initial")
    return repo


class TestGitSha:
    def test_returns_short_sha_for_a_committed_repo(self, committed_repo):
        sha = git_sha(cwd=str(committed_repo))
        assert sha != "unknown"
        assert not sha.endswith("-dirty")
        assert len(sha) >= 7
        int(sha, 16)

    def test_modified_tree_gets_the_dirty_suffix(self, committed_repo):
        (committed_repo / "tracked.txt").write_text("two\n", encoding="utf-8")
        sha = git_sha(cwd=str(committed_repo))
        assert sha.endswith("-dirty")
        assert len(sha[: -len("-dirty")]) >= 7

    def test_unknown_outside_any_repo(self, tmp_path):
        assert git_sha(cwd=str(tmp_path)) == "unknown"


class TestManifestForEngine:
    def test_describes_a_finished_batch_run(self, mesh8):
        engine, result = run_batch_engine(mesh8)
        manifest = manifest_for_engine(engine, result, command="route")
        assert manifest.command == "route"
        assert manifest.engine == "hot-potato"
        assert manifest.mesh["side"] == 8
        assert manifest.mesh["num_nodes"] == 64
        assert manifest.policy == "restricted-priority"
        assert manifest.seed == 21
        assert manifest.result["kind"] == "batch"
        assert manifest.result["delivered"] == 10
        assert manifest.telemetry is not None
        assert manifest.telemetry["delivered"] == 10
        assert validate_manifest(manifest.to_dict()) == []

    def test_profiler_payload_attached_when_given(self, mesh8):
        from repro.core.validation import validators_for

        profiler = PhaseProfiler()
        policy = RestrictedPriorityPolicy()
        problem = random_many_to_many(mesh8, k=10, seed=21)
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=21,
            validators=validators_for(policy, strict=False),
            profiler=profiler,
        )
        result = engine.run()
        manifest = manifest_for_engine(engine, result, profiler=profiler)
        assert manifest.phases is not None
        assert manifest.phases["steps"] == result.total_steps
        assert manifest.phase_profile() == profiler


class TestManifestBackend:
    """``backend`` names the step loop that ran, because profiled
    ``phases`` mean different things per kernel."""

    def _profiled(self, mesh, backend):
        from repro.core.validation import validators_for

        profiler = PhaseProfiler()
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            random_many_to_many(mesh, k=10, seed=21),
            policy,
            seed=21,
            validators=validators_for(policy, strict=False),
            profiler=profiler,
            backend=backend,
        )
        result = engine.run()
        return manifest_for_engine(engine, result, profiler=profiler)

    @pytest.mark.parametrize(
        "backend,expected",
        [("object", "object"), ("soa", "soa"), ("auto", "soa")],
    )
    def test_records_the_loop_that_ran(self, mesh8, backend, expected):
        manifest = self._profiled(mesh8, backend)
        assert manifest.backend == expected
        data = manifest.to_dict()
        assert data["backend"] == expected
        assert validate_manifest(data) == []
        assert RunManifest.from_dict(data) == manifest

    def test_auto_falls_back_to_object_off_the_lean_loop(self, mesh8):
        # Default (strict) validators keep the instrumented loop.
        engine, result = run_batch_engine(mesh8)
        assert manifest_for_engine(engine, result).backend == "object"

    def test_array_phases_report_the_fused_span_as_rank(
        self, mesh8, monkeypatch
    ):
        from repro.core.soa import kernel as soa_kernel
        from repro.core.soa import numpy_available

        if not numpy_available():
            pytest.skip("the fused span belongs to the numpy step")
        # An injecting run changes loops with its live count; a floor
        # of zero keeps this one on the numpy step from its first
        # step, which starts empty (the mixed-run test below crosses
        # to the columnar loop).
        monkeypatch.setattr(soa_kernel, "VECTOR_MIN_ROWS", 0)
        profiler = PhaseProfiler()
        engine = DynamicEngine(
            mesh8,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.1),
            seed=21,
            profiler=profiler,
            backend="soa",
        )
        stats = engine.run(40)
        phases = manifest_for_engine(engine, stats, profiler=profiler).phases
        assert phases is not None
        assert phases["steps"] == 40
        assert phases["rank_ns"] > 0
        assert phases["arc_assign_ns"] == phases["move_ns"] == 0

    def test_mixed_run_phases_sum_to_the_step_time(self, mesh8):
        from repro.core.soa import numpy_available
        from repro.core.soa.kernel import VECTOR_MIN_ROWS
        from repro.core.validation import validators_for

        # Starts above VECTOR_MIN_ROWS, so the numpy step runs first
        # (four clock reads a step: the fused span) and the columnar
        # loop finishes (six reads: five phases).
        profiler = _TickProfiler()
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            random_many_to_many(mesh8, k=4 * VECTOR_MIN_ROWS, seed=21),
            policy,
            seed=21,
            validators=validators_for(policy, strict=False),
            profiler=profiler,
            backend="soa",
        )
        result = engine.run()
        manifest = manifest_for_engine(engine, result, profiler=profiler)
        assert manifest.backend == "soa"
        assert profiler.steps == engine.telemetry.steps
        assert manifest.phases["steps"] == result.total_steps
        reads = [count for count, _, _ in profiler.log]
        assert set(reads) == ({4, 6} if numpy_available() else {6})
        assert reads == sorted(reads)
        for count, span, durations in profiler.log:
            assert sum(durations) == span
            if count == 4:
                assert durations[2] == durations[3] == 0
        assert profiler.total_ns == sum(span for _, span, _ in profiler.log)

    def test_field_is_optional(self, mesh8):
        _, result = run_batch_engine(mesh8)
        data = manifest_from_run_result(result).to_dict()
        assert "backend" not in data
        assert validate_manifest(data) == []
        assert RunManifest.from_dict(data).backend is None

    def test_wrong_type_reported(self, mesh8):
        engine, result = run_batch_engine(mesh8)
        data = manifest_for_engine(engine, result).to_dict()
        data["backend"] = 1
        assert any("backend" in p for p in validate_manifest(data))


class TestManifestFromRunResult:
    def test_builds_without_an_engine_in_hand(self, mesh8):
        _, result = run_batch_engine(mesh8)
        manifest = manifest_from_run_result(result, command="sweep")
        assert manifest.engine == "hot-potato"
        assert manifest.mesh["num_nodes"] is None
        assert manifest.seed == result.seed
        assert manifest.run_telemetry() == result.telemetry
        assert validate_manifest(manifest.to_dict()) == []


class TestValidateManifest:
    def manifest_dict(self, mesh8):
        engine, result = run_batch_engine(mesh8)
        return manifest_for_engine(engine, result).to_dict()

    def test_missing_field_reported(self, mesh8):
        data = self.manifest_dict(mesh8)
        del data["git_sha"]
        assert any("git_sha" in p for p in validate_manifest(data))

    def test_wrong_type_reported(self, mesh8):
        data = self.manifest_dict(mesh8)
        data["engine"] = 7
        assert any("engine" in p for p in validate_manifest(data))

    def test_unknown_field_reported(self, mesh8):
        data = self.manifest_dict(mesh8)
        data["surprise"] = 1
        assert any("surprise" in p for p in validate_manifest(data))

    def test_schema_version_mismatch_reported(self, mesh8):
        data = self.manifest_dict(mesh8)
        data["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_manifest(data))

    def test_from_dict_raises_on_invalid(self):
        with pytest.raises(ValueError, match="invalid run manifest"):
            RunManifest.from_dict({"schema_version": SCHEMA_VERSION})


class TestJsonlRoundTrip:
    def test_append_then_read_back_identical(self, mesh8, tmp_path):
        path = str(tmp_path / "runs" / "manifests.jsonl")
        engine, result = run_batch_engine(mesh8)
        manifest = manifest_for_engine(engine, result, command="route")
        append_manifest(manifest, path)
        append_manifest(manifest, path)
        read = read_manifests(path)
        assert len(read) == 2
        assert read[0] == manifest

    def test_lines_are_plain_compact_json(self, mesh8, tmp_path):
        path = str(tmp_path / "m.jsonl")
        engine, result = run_batch_engine(mesh8)
        append_manifest(manifest_for_engine(engine, result), path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert validate_manifest(parsed) == []


class TestJsonlRunLogger:
    def test_logs_hot_potato_run(self, mesh8, tmp_path):
        path = str(tmp_path / "m.jsonl")
        logger = JsonlRunLogger(path, command="route")
        run_batch_engine(mesh8, observers=[logger])
        assert logger.written == 1
        manifest = read_manifests(path)[0]
        assert manifest.engine == "hot-potato"
        assert manifest.result["kind"] == "batch"

    def test_logs_buffered_run(self, mesh8, tmp_path):
        path = str(tmp_path / "m.jsonl")
        problem = random_many_to_many(mesh8, k=10, seed=22)
        BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=22,
            observers=[JsonlRunLogger(path)],
        ).run()
        manifest = read_manifests(path)[0]
        assert manifest.engine == "buffered"
        assert manifest.seed == 22

    def test_logs_dynamic_runs(self, mesh8, tmp_path):
        path = str(tmp_path / "m.jsonl")
        DynamicEngine(
            mesh8,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.1),
            seed=5,
            observers=[JsonlRunLogger(path, command="dynamic")],
        ).run(50)
        BufferedDynamicEngine(
            mesh8,
            DimensionOrderPolicy(),
            BernoulliTraffic(0.1),
            seed=5,
            observers=[JsonlRunLogger(path, command="dynamic")],
        ).run(50)
        manifests = read_manifests(path)
        assert [m.engine for m in manifests] == ["dynamic",
                                                 "buffered-dynamic"]
        assert all(m.result["kind"] == "dynamic" for m in manifests)
        assert all(m.result["horizon"] == 50 for m in manifests)
        assert all(m.telemetry is not None for m in manifests)

    def test_logger_keeps_the_lean_loop(self, mesh8, tmp_path):
        from repro.core.kernel import lean_equivalent
        from repro.core.validation import validators_for

        logger = JsonlRunLogger(str(tmp_path / "m.jsonl"))
        assert logger.needs_steps is False
        assert lean_equivalent([], [logger], False)
        # The profiler only runs on the lean loop, so a profiled run
        # with the logger attached proves the logger didn't force the
        # instrumented loop (the engine would raise otherwise).
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            random_many_to_many(mesh8, k=10, seed=21),
            policy,
            seed=21,
            validators=validators_for(policy, strict=False),
            observers=[logger],
            profiler=PhaseProfiler(),
        )
        assert engine.run().completed
        assert logger.written == 1

    def test_fires_without_on_run_start_only_for_run_results(self, mesh8,
                                                             tmp_path):
        path = str(tmp_path / "m.jsonl")
        logger = JsonlRunLogger(path)
        _, result = run_batch_engine(mesh8)
        logger.on_run_end(result)
        assert read_manifests(path)[0].engine == "hot-potato"
        bare = JsonlRunLogger(path)
        with pytest.raises(RuntimeError, match="without on_run_start"):
            bare.on_run_end(object())


class TestDurableAppend:
    def test_fsync_append_reads_back_identically(self, mesh8, tmp_path):
        path = str(tmp_path / "m.jsonl")
        engine, result = run_batch_engine(mesh8)
        manifest = manifest_for_engine(engine, result, command="route")
        append_manifest(manifest, path, fsync=True)
        append_manifest(manifest, path, fsync=False)
        read = read_manifests(path)
        assert len(read) == 2
        assert read[0] == read[1] == manifest


class TestTornLineRecovery:
    def write_file(self, mesh8, tmp_path, *, torn):
        path = str(tmp_path / "m.jsonl")
        engine, result = run_batch_engine(mesh8)
        manifest = manifest_for_engine(engine, result)
        append_manifest(manifest, path)
        append_manifest(manifest, path)
        if torn:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"schema_version": 1, "comm')
        return path, manifest

    def test_strict_mode_raises_on_a_torn_tail(self, mesh8, tmp_path):
        path, _ = self.write_file(mesh8, tmp_path, torn=True)
        with pytest.raises((ValueError, KeyError)):
            read_manifests(path)

    def test_recovery_mode_skips_and_reports_the_tail(self, mesh8, tmp_path):
        path, manifest = self.write_file(mesh8, tmp_path, torn=True)
        errors = []
        read = read_manifests(path, errors=errors)
        assert len(read) == 2
        assert read[0] == manifest
        assert len(errors) == 1
        assert errors[0].startswith(f"{path}:3:")

    def test_recovery_mode_skips_mid_file_corruption(self, mesh8, tmp_path):
        path, manifest = self.write_file(mesh8, tmp_path, torn=False)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lines[0] + "\n")
            handle.write("not json at all\n")
            handle.write('{"schema_version": 99}\n')
            handle.write(lines[1] + "\n")
        errors = []
        read = read_manifests(path, errors=errors)
        assert len(read) == 2
        assert len(errors) == 2
        assert read[0] == read[1] == manifest

    def test_clean_file_reports_no_errors(self, mesh8, tmp_path):
        path, _ = self.write_file(mesh8, tmp_path, torn=False)
        errors = []
        assert len(read_manifests(path, errors=errors)) == 2
        assert errors == []


class TestCasePayload:
    def test_case_field_round_trips(self, mesh8, tmp_path):
        _, result = run_batch_engine(mesh8)
        manifest = manifest_from_run_result(
            result,
            command="sweep",
            case={"key": "abcd1234", "params": {"n": 8, "seed": 21}},
        )
        assert validate_manifest(manifest.to_dict()) == []
        path = str(tmp_path / "m.jsonl")
        append_manifest(manifest, path)
        read = read_manifests(path)[0]
        assert read.case == {"key": "abcd1234", "params": {"n": 8, "seed": 21}}

    def test_case_field_is_optional(self, mesh8):
        _, result = run_batch_engine(mesh8)
        manifest = manifest_from_run_result(result, command="sweep")
        assert manifest.case is None
        assert "case" not in manifest.to_dict()
        assert validate_manifest(manifest.to_dict()) == []
