"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestRoute:
    def test_basic_route(self, capsys):
        code = main(
            ["route", "--side", "8", "--workload", "random", "--k", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 20 bound" in out
        assert "delivered=10" in out

    def test_verify_mode(self, capsys):
        code = main(
            [
                "route",
                "--side",
                "8",
                "--workload",
                "hotspot",
                "--k",
                "20",
                "--verify",
            ]
        )
        assert code == 0
        assert "ALL INEQUALITIES HOLD" in capsys.readouterr().out

    def test_verify_rejects_torus(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "route",
                    "--topology",
                    "torus",
                    "--side",
                    "8",
                    "--verify",
                ]
            )

    def test_save_trace(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        code = main(
            [
                "route",
                "--side",
                "8",
                "--k",
                "5",
                "--save-trace",
                path,
            ]
        )
        assert code == 0
        from repro.core.serialization import load_trace

        trace = load_trace(path)
        assert trace.num_steps > 0

    def test_each_workload(self, capsys):
        for workload in ("permutation", "transpose", "flood", "corners"):
            code = main(
                ["route", "--side", "8", "--workload", workload]
            )
            assert code == 0

    def test_hypercube_topology(self, capsys):
        code = main(
            [
                "route",
                "--topology",
                "hypercube",
                "--dimension",
                "5",
                "--workload",
                "random",
                "--k",
                "20",
                "--policy",
                "fixed-priority",
            ]
        )
        assert code == 0

    def test_unknown_policy_fails(self):
        with pytest.raises(KeyError):
            main(["route", "--side", "8", "--policy", "nope"])

    def test_buffered_engine(self, capsys):
        code = main(
            ["route", "--side", "8", "--k", "20", "--engine", "buffered"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "store-and-forward" in out
        assert "max buffer occupancy" in out

    def test_buffered_engine_rejects_hot_potato_policy(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "route",
                    "--side",
                    "8",
                    "--engine",
                    "buffered",
                    "--policy",
                    "restricted-priority",
                ]
            )

    def test_buffered_engine_rejects_verify(self):
        with pytest.raises(SystemExit):
            main(["route", "--side", "8", "--engine", "buffered", "--verify"])


class TestSweep:
    def test_table_printed(self, capsys):
        code = main(
            [
                "sweep",
                "--side",
                "8",
                "--k-min",
                "4",
                "--k-max",
                "8",
                "--seeds",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Thm20 bound" in out
        assert "k" in out


class TestDynamic:
    def test_load_sweep(self, capsys):
        code = main(
            [
                "dynamic",
                "--side",
                "6",
                "--rates",
                "0.05",
                "0.1",
                "--horizon",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lat mean" in out

    def test_buffered_load_sweep(self, capsys):
        code = main(
            [
                "dynamic",
                "--side",
                "6",
                "--rates",
                "0.1",
                "--horizon",
                "80",
                "--engine",
                "buffered",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "store-and-forward" in out
        assert "queue" in out


class TestProfile:
    def test_batch_profile_prints_phase_table(self, capsys):
        code = main(["profile", "--side", "6", "--k", "12"])
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("inject", "rank", "arc_assign", "move", "deliver"):
            assert phase in out
        assert "telemetry:" in out
        assert "us/step" in out

    def test_buffered_profile(self, capsys):
        code = main(
            ["profile", "--side", "6", "--k", "12", "--engine", "buffered"]
        )
        assert code == 0
        assert "dimension-order" in capsys.readouterr().out

    def test_dynamic_profile(self, capsys):
        code = main(
            [
                "profile",
                "--engine",
                "dynamic",
                "--side",
                "5",
                "--rate",
                "0.1",
                "--horizon",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "telemetry:" in out

    def test_buffered_dynamic_profile(self, capsys):
        code = main(
            [
                "profile",
                "--engine",
                "buffered-dynamic",
                "--side",
                "5",
                "--rate",
                "0.1",
                "--horizon",
                "60",
            ]
        )
        assert code == 0
        assert "buffered-dynamic" in capsys.readouterr().out

    def test_profile_writes_manifest_with_phases(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        path = str(tmp_path / "m.jsonl")
        code = main(
            ["profile", "--side", "6", "--k", "8", "--telemetry", path]
        )
        assert code == 0
        manifests = read_manifests(path)
        assert len(manifests) == 1
        assert manifests[0].command == "profile"
        assert manifests[0].phases is not None
        assert manifests[0].phases["steps"] > 0


class TestTelemetryFlag:
    def test_route_appends_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests, validate_manifest

        path = str(tmp_path / "m.jsonl")
        code = main(
            ["route", "--side", "6", "--k", "8", "--telemetry", path]
        )
        assert code == 0
        assert "manifest appended" in capsys.readouterr().out
        manifests = read_manifests(path)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest.command == "route"
        assert manifest.engine == "hot-potato"
        assert manifest.seed == 0
        assert manifest.git_sha != ""
        assert validate_manifest(manifest.to_dict()) == []

    def test_route_buffered_appends_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        path = str(tmp_path / "m.jsonl")
        code = main(
            [
                "route",
                "--side",
                "6",
                "--k",
                "8",
                "--engine",
                "buffered",
                "--telemetry",
                path,
            ]
        )
        assert code == 0
        assert read_manifests(path)[0].engine == "buffered"

    def test_route_telemetry_rejects_verify(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "route",
                    "--side",
                    "6",
                    "--verify",
                    "--telemetry",
                    "unused.jsonl",
                ]
            )

    def test_sweep_appends_one_manifest_per_point(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        path = str(tmp_path / "m.jsonl")
        code = main(
            [
                "sweep",
                "--side",
                "6",
                "--k-min",
                "4",
                "--k-max",
                "8",
                "--seeds",
                "2",
                "--telemetry",
                path,
            ]
        )
        assert code == 0
        manifests = read_manifests(path)
        # two k values (4, 8) x two seeds
        assert len(manifests) == 4
        assert all(m.command == "sweep" for m in manifests)
        assert all(m.telemetry is not None for m in manifests)

    def test_dynamic_appends_one_manifest_per_rate(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        path = str(tmp_path / "m.jsonl")
        code = main(
            [
                "dynamic",
                "--side",
                "5",
                "--rates",
                "0.1",
                "0.2",
                "--horizon",
                "50",
                "--telemetry",
                path,
            ]
        )
        assert code == 0
        manifests = read_manifests(path)
        assert len(manifests) == 2
        assert all(m.engine == "dynamic" for m in manifests)
        assert all(m.result["kind"] == "dynamic" for m in manifests)


class TestBackendFlag:
    """``route``, ``dynamic`` and ``campaign run`` default to
    ``--backend auto``; the output never depends on the kernel it
    picks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["dynamic", "--side", "5", "--rates", "0.1", "--horizon", "40"],
            [
                "dynamic", "--side", "5", "--rates", "0.1",
                "--horizon", "40", "--engine", "buffered",
            ],
            ["route", "--side", "6", "--k", "12", "--engine", "buffered"],
            # Buffered cases take the array kernel under auto; the
            # default strict hot-potato cases keep the object loop.
            [
                "campaign", "run", "--side", "6", "--k", "40",
                "--seeds", "2", "--engine", "buffered",
            ],
            ["campaign", "run", "--side", "6", "--k", "8", "--seeds", "1"],
        ],
        ids=[
            "dynamic", "buffered-dynamic", "buffered-route",
            "buffered-campaign", "campaign",
        ],
    )
    def test_default_output_equals_object(self, argv, capsys):
        outputs = []
        for extra in ([], ["--backend", "auto"], ["--backend", "object"]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_manifest_names_the_loop_that_ran(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        path = str(tmp_path / "m.jsonl")
        argv = ["dynamic", "--side", "5", "--rates", "0.1",
                "--horizon", "30", "--telemetry", path]
        assert main(argv) == 0
        assert main(argv + ["--backend", "object"]) == 0
        assert main(["profile", "--side", "6", "--k", "8",
                     "--telemetry", path]) == 0
        assert [m.backend for m in read_manifests(path)] == [
            "soa", "object", "object",
        ]

    @pytest.mark.parametrize(
        "argv",
        [["profile", "--side", "6", "--k", "8"]],
        ids=["profile"],
    )
    def test_object_default_commands_reject_auto(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv + ["--backend", "auto"])


class TestLivelock:
    def test_demo(self, capsys):
        code = main(["livelock", "--steps", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0/8 delivered" in out
        assert "recurs every 2 steps" in out


class TestPolicies:
    def test_listing(self, capsys):
        code = main(["policies"])
        assert code == 0
        out = capsys.readouterr().out
        assert "restricted-priority" in out
        assert "prefers-restricted" in out


class TestParser:
    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_from_real_results(self, capsys):
        code = main(["report"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# Measured experiment tables")

    def test_report_to_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.md")
        code = main(["report", "--output", out_path])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_report_missing_directory(self, tmp_path, capsys):
        code = main(["report", "--results", str(tmp_path / "none")])
        assert code == 0
        assert "no experiment results" in capsys.readouterr().out
