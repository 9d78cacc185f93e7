"""Declarative case specs: canonical form, identity, validation."""

import pytest

from repro.campaign.spec import TOPOLOGIES, WORKLOADS, CaseSpec, spec_key


def _spec(**overrides):
    base = dict(
        topology="mesh",
        workload="random",
        policy="restricted-priority",
        seed=7,
        side=6,
        workload_params=(("k", 12),),
    )
    base.update(overrides)
    return CaseSpec(**base)


class TestRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        spec = _spec(params=(("label", "sweep-a"),), max_steps=200)
        assert CaseSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_preserves_identity(self):
        import json

        spec = _spec(priority=3)
        rebuilt = CaseSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert spec_key(rebuilt) == spec_key(spec)

    def test_from_dict_rejects_unknown_fields(self):
        payload = _spec().to_dict()
        payload["mesh_object"] = "nope"
        with pytest.raises(ValueError, match="unknown CaseSpec fields"):
            CaseSpec.from_dict(payload)

    def test_from_dict_rejects_missing_required_fields(self):
        payload = _spec().to_dict()
        del payload["policy"]
        with pytest.raises(ValueError, match="missing field 'policy'"):
            CaseSpec.from_dict(payload)

    def test_from_dict_fills_defaults(self):
        minimal = {
            "topology": "mesh",
            "workload": "permutation",
            "policy": "restricted-priority",
            "seed": 0,
        }
        spec = CaseSpec.from_dict(minimal)
        assert spec.side == 16
        assert spec.engine == "hot-potato"
        # The backend is an execution hint and defaults to "auto";
        # stored specs that name "object" keep it (see TestSpecKey).
        assert spec.backend == "auto"
        assert spec.priority == 0


class TestSpecKey:
    def test_equal_specs_share_a_key(self):
        assert spec_key(_spec()) == spec_key(_spec())

    def test_key_distinguishes_every_ingredient(self):
        base = _spec()
        keys = {spec_key(base)}
        variants = [
            _spec(seed=8),
            _spec(side=7),
            _spec(topology="torus"),
            _spec(workload="permutation", workload_params=()),
            _spec(workload_params=(("k", 13),)),
            _spec(policy="random-direction"),
            _spec(max_steps=99),
            _spec(strict_validation=False),
            _spec(strict_validation=False, backend="soa"),
        ]
        for variant in variants:
            keys.add(spec_key(variant))
        assert len(keys) == len(variants) + 1
        # "auto" is an execution hint: it keys as "object", so stores
        # written when "object" was the default keep matching, and an
        # explicit "soa" stays a different case.
        assert base.backend == "auto"
        assert spec_key(base) == spec_key(_spec(backend="object"))
        lean = _spec(strict_validation=False)
        assert spec_key(lean) == spec_key(
            _spec(strict_validation=False, backend="object")
        )
        assert spec_key(lean) != spec_key(
            _spec(strict_validation=False, backend="soa")
        )
        assert base.to_dict()["backend"] == "auto"

    def test_priority_does_not_change_the_key(self):
        # Re-prioritizing a queue must not orphan finished work.
        assert spec_key(_spec(priority=0)) == spec_key(_spec(priority=9))

    def test_key_is_sixteen_hex_digits(self):
        key = spec_key(_spec())
        assert len(key) == 16
        int(key, 16)


class TestValidation:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            _spec(topology="klein-bottle")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            _spec(workload="everything")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            _spec(engine="warp")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            _spec(backend="gpu")

    def test_soa_hot_potato_requires_lean_validation(self):
        with pytest.raises(ValueError, match="strict_validation"):
            _spec(backend="soa", strict_validation=True)

    def test_soa_rejects_fault_schedules(self):
        with pytest.raises(ValueError, match="fault schedules"):
            _spec(
                backend="soa",
                strict_validation=False,
                faults="schedule.json",
            )

    def test_auto_accepts_strict_stacks_and_fault_schedules(self):
        # "auto" falls back to the object loop where "soa" would raise.
        assert _spec(backend="auto", strict_validation=True).backend == "auto"
        spec = _spec(backend="auto", faults="schedule.json")
        assert spec.strict_validation and spec.faults == "schedule.json"

    def test_vocabularies_match_the_cli(self):
        assert TOPOLOGIES == ("mesh", "torus", "hypercube")
        assert len(WORKLOADS) == 7


class TestShape:
    def test_shape_is_the_mesh_cache_key(self):
        assert _spec(side=6, dimension=2).shape == ("mesh", 2, 6)

    def test_hypercube_shape_ignores_the_side_field(self):
        left = _spec(topology="hypercube", dimension=4, side=16)
        right = _spec(topology="hypercube", dimension=4, side=2)
        assert left.shape == right.shape == ("hypercube", 4, 2)
