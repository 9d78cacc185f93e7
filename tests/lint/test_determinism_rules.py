"""Every shipped rule fires on the dirty fixtures and is silenced by
its ``# repro: noqa[RULE]`` twin — the firing/suppression pair contract
from the linter's spec."""

import os

import pytest

from repro.lint import (
    ALL_RULE_FAMILIES,
    DETERMINISM_RULES,
    Severity,
    all_rules,
    lint_file,
    lint_paths,
)
from repro.lint.context import ModuleContext, domain_of, module_name_for
from repro.lint.runner import lint_source
from repro.lint.suppressions import is_suppressed, parse_noqa

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "dirtypkg")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def findings_for(path):
    return lint_file(path)


def rules_hit(findings):
    return {f.rule_id for f in findings}


class TestFixtureModuleIdentity:
    def test_fixture_resolves_into_core_domain(self):
        module = module_name_for(fixture("core", "step_loop.py"))
        assert module == "dirtypkg.core.step_loop"
        assert domain_of(module) == "core"

    def test_real_engine_resolves_into_core_domain(self):
        module = module_name_for(
            os.path.join("src", "repro", "core", "engine.py")
        )
        assert module == "repro.core.engine"
        assert domain_of(module) == "core"


class TestUnseededRandom:
    def test_fires_on_every_global_stream_pattern(self):
        findings = findings_for(fixture("workloads", "gen.py"))
        assert rules_hit(findings) == {"DET101"}
        messages = "\n".join(f.message for f in findings)
        assert "random.shuffle" in messages
        assert "random.seed" in messages
        assert "numpy.random" in messages
        assert "OS entropy" in messages
        # shuffle() via from-import resolves back to random.shuffle and
        # is among the five findings (direct call, seed, from-import,
        # Random(), numpy) — the suppressed random.random() is not.
        assert len(findings) == 5

    def test_suppressed_twin_is_silent(self):
        findings = findings_for(fixture("workloads", "gen.py"))
        assert not any("random.random()" in f.message for f in findings)

    def test_seeded_random_is_clean_for_det101(self):
        # DET101 accepts any explicit seed; the stricter DET2xx family
        # now flags both the raw construction (DET201) and the
        # module-global storage (DET202).
        _, findings = lint_source(
            "import random\nrng = random.Random(7)\nrng.shuffle([])\n",
            fixture("workloads", "seeded.py"),
        )
        assert rules_hit(findings) == {"DET201", "DET202"}
        _, inside = lint_source(
            "import random\n"
            "def f():\n"
            "    rng = random.Random(7)\n"
            "    return rng.shuffle([])\n",
            fixture("workloads", "seeded.py"),
        )
        assert rules_hit(inside) == {"DET201"}

    def test_core_rng_module_is_exempt(self):
        assert findings_for(fixture("core", "rng.py")) == []

    def test_local_variable_named_random_is_not_confused(self):
        _, findings = lint_source(
            "def f(random):\n    return random.shuffle([])\n",
            fixture("workloads", "shadow.py"),
        )
        assert findings == []


class TestSetIteration:
    def test_fires_on_loop_comprehension_and_tracked_name(self):
        findings = [
            f
            for f in findings_for(fixture("core", "step_loop.py"))
            if f.rule_id == "DET102"
        ]
        # set() loop, set-literal comprehension, tracked name; the
        # noqa'd loop is absent.
        assert len(findings) == 3

    def test_out_of_domain_module_is_ignored(self):
        _, findings = lint_source(
            "for x in set([1]):\n    pass\n",
            fixture("workloads", "free.py"),
        )
        assert findings == []

    def test_dynamic_domain_is_policed(self):
        findings = [
            f
            for f in findings_for(fixture("dynamic", "traffic_loop.py"))
            if f.rule_id == "DET102"
        ]
        # The set() loop fires; its noqa'd twin is absent.
        assert len(findings) == 1

    def test_sorted_set_is_clean(self):
        _, findings = lint_source(
            "for x in sorted(set([1])):\n    pass\n",
            fixture("core", "sorted_ok.py"),
        )
        assert findings == []


class TestEnvBranching:
    def test_fires_on_environ_and_getenv(self):
        findings = [
            f
            for f in findings_for(fixture("core", "step_loop.py"))
            if f.rule_id == "DET103"
        ]
        assert len(findings) == 2
        assert any("os.environ" in f.message for f in findings)
        assert any("os.getenv" in f.message for f in findings)

    def test_harness_layers_may_read_env(self):
        _, findings = lint_source(
            "import os\nWORKERS = os.environ.get('W', '1')\n",
            fixture("analysis", "harness.py"),
        )
        assert findings == []

    def test_dynamic_domain_is_policed(self):
        findings = [
            f
            for f in findings_for(fixture("dynamic", "traffic_loop.py"))
            if f.rule_id == "DET103"
        ]
        assert len(findings) == 1
        assert "os.getenv" in findings[0].message


class TestFloatEquality:
    def test_fires_on_each_float_shape(self):
        findings = findings_for(fixture("potential", "energy.py"))
        assert rules_hit(findings) == {"DET104"}
        # literal, division, math.sqrt, float() — noqa'd 1.5 excluded.
        assert len(findings) == 4

    def test_integer_comparison_is_clean(self):
        _, findings = lint_source(
            "def f(k):\n    return k == 0\n",
            fixture("potential", "ints.py"),
        )
        assert findings == []

    def test_only_potential_domain_is_policed(self):
        _, findings = lint_source(
            "x = 1.0 == 2.0\n", fixture("core", "floaty.py")
        )
        assert findings == []


class TestIterationMutation:
    def test_fires_on_del_remove_and_subscript_assign(self):
        findings = [
            f
            for f in findings_for(fixture("core", "step_loop.py"))
            if f.rule_id == "DET105"
        ]
        assert len(findings) == 3
        descriptions = "\n".join(f.message for f in findings)
        assert "del" in descriptions
        assert ".remove()" in descriptions
        assert "subscript assignment" in descriptions

    def test_snapshot_iteration_is_clean(self):
        assert findings_for(fixture("core", "clean.py")) == []

    def test_mutating_a_different_container_is_clean(self):
        _, findings = lint_source(
            "def f(a, b):\n"
            "    for x in a:\n"
            "        b.append(x)\n",
            fixture("core", "other.py"),
        )
        assert findings == []


class TestWallClock:
    def test_fires_on_time_and_datetime_now(self):
        findings = [
            f
            for f in findings_for(fixture("core", "step_loop.py"))
            if f.rule_id == "DET106"
        ]
        assert len(findings) == 2
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_benchmark_layer_may_time(self):
        _, findings = lint_source(
            "import time\nt0 = time.perf_counter()\n",
            fixture("benchmarks", "bench.py"),
        )
        assert findings == []

    def test_obs_domain_is_policed(self):
        findings = [
            f
            for f in findings_for(fixture("obs", "reporting.py"))
            if f.rule_id == "DET106"
        ]
        # monotonic + datetime.now fire; the noqa'd twin is absent.
        assert len(findings) == 2
        messages = "\n".join(f.message for f in findings)
        assert "time.monotonic" in messages
        assert "datetime.datetime.now" in messages

    def test_obs_clock_module_is_exempt(self):
        assert findings_for(fixture("obs", "clock.py")) == []

    def test_real_obs_clock_resolves_into_obs_domain(self):
        module = module_name_for(
            os.path.join("src", "repro", "obs", "clock.py")
        )
        assert module == "repro.obs.clock"
        assert domain_of(module) == "obs"


class TestFaultsDomain:
    """The fault layer is policed like engine code: schedules are
    declarative data, so entropy and wall-clock reads are violations."""

    def test_fixture_resolves_into_faults_domain(self):
        module = module_name_for(fixture("faults", "chaos_schedule.py"))
        assert module == "dirtypkg.faults.chaos_schedule"
        assert domain_of(module) == "faults"

    def test_real_faults_package_resolves_into_faults_domain(self):
        module = module_name_for(
            os.path.join("src", "repro", "faults", "schedule.py")
        )
        assert module == "repro.faults.schedule"
        assert domain_of(module) == "faults"

    def test_det101_and_det106_fire_and_their_twins_are_silent(self):
        findings = findings_for(fixture("faults", "chaos_schedule.py"))
        assert rules_hit(findings) == {"DET101", "DET106"}
        assert len([f for f in findings if f.rule_id == "DET101"]) == 1
        assert len([f for f in findings if f.rule_id == "DET106"]) == 1

    def test_stripping_noqa_doubles_the_findings(self):
        path = fixture("faults", "chaos_schedule.py")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        stripped = source.replace("# repro: noqa", "# stripped")
        _, findings = lint_source(stripped, path)
        assert len([f for f in findings if f.rule_id == "DET101"]) == 2
        assert len([f for f in findings if f.rule_id == "DET106"]) == 2


class TestCampaignDomain:
    """The campaign orchestrator is policed like engine code: worker
    randomness flows from seeds, backoff and event timestamps route
    through ``repro.obs.clock``, and ``run_batch`` payloads pickle."""

    def test_fixture_resolves_into_campaign_domain(self):
        module = module_name_for(fixture("campaign", "dispatch.py"))
        assert module == "dirtypkg.campaign.dispatch"
        assert domain_of(module) == "campaign"

    def test_real_campaign_package_resolves_into_campaign_domain(self):
        module = module_name_for(
            os.path.join("src", "repro", "campaign", "pool.py")
        )
        assert module == "repro.campaign.pool"
        assert domain_of(module) == "campaign"

    def test_det101_and_det106_fire_and_their_twins_are_silent(self):
        findings = findings_for(fixture("campaign", "dispatch.py"))
        # The fixture also carries the run_batch payload vectors
        # (PAR501/PAR502) exercised by tests/lint/test_parallel_rules.
        assert rules_hit(findings) == {
            "DET101",
            "DET106",
            "PAR501",
            "PAR502",
        }
        assert len([f for f in findings if f.rule_id == "DET101"]) == 1
        assert len([f for f in findings if f.rule_id == "DET106"]) == 1

    def test_stripping_noqa_doubles_the_findings(self):
        path = fixture("campaign", "dispatch.py")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        stripped = source.replace("# repro: noqa", "# stripped")
        _, findings = lint_source(stripped, path)
        assert len([f for f in findings if f.rule_id == "DET101"]) == 2
        assert len([f for f in findings if f.rule_id == "DET106"]) == 2
        assert len([f for f in findings if f.rule_id == "PAR501"]) == 2


class TestSoaDomain:
    """The array kernel is core code: its bit-identity contract makes
    unseeded randomness and set-order iteration exactly as fatal as in
    the object kernel, so DET101/DET102 must police it too."""

    def test_fixture_resolves_into_core_domain(self):
        module = module_name_for(fixture("core", "soa", "kernel.py"))
        assert module == "dirtypkg.core.soa.kernel"
        assert domain_of(module) == "core"

    def test_real_soa_package_resolves_into_core_domain(self):
        module = module_name_for(
            os.path.join("src", "repro", "core", "soa", "kernel.py")
        )
        assert module == "repro.core.soa.kernel"
        assert domain_of(module) == "core"

    def test_det101_and_det102_fire_and_their_twins_are_silent(self):
        findings = findings_for(fixture("core", "soa", "kernel.py"))
        # The fixture also carries the SoaKernel vectors for the
        # project-wide families: a vectorized RNG draw (DET203) and a
        # missing columnar twin (KER303).
        assert rules_hit(findings) == {
            "DET101",
            "DET102",
            "DET203",
            "KER303",
        }
        assert len([f for f in findings if f.rule_id == "DET101"]) == 1
        assert len([f for f in findings if f.rule_id == "DET102"]) == 1
        assert len([f for f in findings if f.rule_id == "DET203"]) == 1
        messages = "\n".join(f.message for f in findings)
        assert "numpy.random" in messages

    def test_stripping_noqa_doubles_the_findings(self):
        path = fixture("core", "soa", "kernel.py")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        stripped = source.replace("# repro: noqa", "# stripped")
        _, findings = lint_source(stripped, path)
        assert len([f for f in findings if f.rule_id == "DET101"]) == 2
        assert len([f for f in findings if f.rule_id == "DET102"]) == 2
        assert len([f for f in findings if f.rule_id == "DET203"]) == 2


class TestSuppressionSyntax:
    def test_bare_noqa_silences_all_rules(self):
        assert is_suppressed("x = 1  # repro: noqa", "DET101")
        assert is_suppressed("x = 1  # repro: noqa", "DET105")

    def test_bracketed_noqa_is_rule_specific(self):
        line = "x = 1  # repro: noqa[DET101, DET104]"
        assert is_suppressed(line, "DET101")
        assert is_suppressed(line, "det104")
        assert not is_suppressed(line, "DET102")

    def test_empty_bracket_list_suppresses_nothing(self):
        assert not is_suppressed("x = 1  # repro: noqa[]", "DET101")

    def test_unmarked_line(self):
        assert parse_noqa("x = 1  # plain comment") is None

    def test_plain_flake8_noqa_is_not_ours(self):
        assert parse_noqa("import x  # noqa: F401") is None


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        expected = tuple(
            rule_id
            for family in ALL_RULE_FAMILIES
            for rule_id in family
        )
        assert tuple(r.id for r in all_rules()) == expected

    def test_every_det1xx_rule_fires_somewhere_in_the_fixtures(self):
        # The newer families have their own fixture/coverage tests; this
        # one guards the original determinism family end to end.
        hit = set()
        for name in (
            ("core", "step_loop.py"),
            ("workloads", "gen.py"),
            ("potential", "energy.py"),
        ):
            hit |= rules_hit(findings_for(fixture(*name)))
        assert set(DETERMINISM_RULES) <= hit

    @pytest.mark.parametrize("rule_id", [rule.id for rule in all_rules()])
    def test_every_registered_rule_fires_on_the_fixtures(self, rule_id):
        # The fixture README's promise, checked one rule at a time so a
        # live rule cannot hide a dead one of the same family.
        report = lint_paths([FIXTURES], select=[rule_id])
        assert {f.rule_id for f in report.findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", DETERMINISM_RULES)
    def test_every_rule_has_a_working_suppression(self, rule_id):
        """Strip the fixtures' noqa comments and the finding count for
        the rule must grow — proving each noqa actually suppressed one."""
        for name in (
            ("core", "step_loop.py"),
            ("workloads", "gen.py"),
            ("potential", "energy.py"),
        ):
            path = fixture(*name)
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            with_noqa = [
                f for f in lint_file(path) if f.rule_id == rule_id
            ]
            stripped = source.replace("# repro: noqa", "# stripped")
            _, without_noqa = lint_source(stripped, path)
            without_noqa = [
                f for f in without_noqa if f.rule_id == rule_id
            ]
            if len(without_noqa) > len(with_noqa):
                return  # found the suppressed twin
        pytest.fail(f"no suppressed twin exercised for {rule_id}")


class TestModuleContext:
    def test_import_alias_resolution(self):
        context = ModuleContext(
            fixture("core", "alias.py"),
            "import time as t\nfrom datetime import datetime as dt\n",
        )
        import ast

        tree = ast.parse("t.monotonic()\ndt.now()\n")
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        resolved = {context.imports.resolve(c.func) for c in calls}
        assert resolved == {"time.monotonic", "datetime.datetime.now"}

    def test_relative_imports_do_not_resolve(self):
        context = ModuleContext(
            fixture("core", "rel.py"), "from . import sibling\n"
        )
        import ast

        node = ast.parse("sibling.thing()").body[0].value.func
        assert context.imports.resolve(node) is None
