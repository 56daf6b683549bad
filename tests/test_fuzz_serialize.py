"""Round-trip serialization: scenarios, configs, and the generic codec."""

import json
import random

import pytest

from repro.fuzz.generate import generate_scenario, scenario_for
from repro.fuzz.scenario import AdversarySpec, FuzzScenario
from repro.fuzz.serialize import (
    SerializationError,
    decode_dataclass,
    encode,
)
from repro.netsim.faults import LinkDegradation, NodeOutage, Partition
from repro.server.ratelimit import RateLimitAction


class TestGenericCodec:
    def test_enum_round_trip(self):
        assert encode(RateLimitAction.DROP) == RateLimitAction.DROP.value

    def test_callable_rejected_with_context(self):
        with pytest.raises(SerializationError, match="field"):
            encode({"field": lambda: None})

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(SerializationError, match="not a string"):
            encode({1: "x"})

    def test_unknown_field_rejected_on_decode(self):
        with pytest.raises(SerializationError, match="unknown fields"):
            decode_dataclass(AdversarySpec, {"strategy": "nx", "bogus": 1})

    def test_missing_fields_use_defaults(self):
        spec = decode_dataclass(AdversarySpec, {"strategy": "wc", "zone": "z0."})
        assert spec.rate == AdversarySpec().rate

    def test_set_encodes_to_sorted_list(self):
        assert encode(frozenset(["b", "a"])) == ["a", "b"]


class TestFuzzScenarioRoundTrip:
    @pytest.mark.parametrize("seed", [1, 7, 42, 1234])
    def test_generated_scenario_survives_json(self, seed):
        scenario = generate_scenario(random.Random(seed), seed=seed)
        wire = json.dumps(scenario.to_dict())
        restored = FuzzScenario.from_dict(json.loads(wire))
        assert restored.to_dict() == scenario.to_dict()
        assert restored.scenario_id == scenario.scenario_id

    def test_fault_specs_survive(self):
        scenario = FuzzScenario(
            faults=[
                NodeOutage(address="10.0.40.1", at=1.0, duration=2.0, flaps=2),
                LinkDegradation(
                    src="10.0.41.1", dst="10.0.40.1", start=1.0, end=3.0, loss=0.5
                ),
                Partition(a="10.0.41.1", b="10.0.40.2", start=2.0, end=4.0),
            ]
        )
        restored = FuzzScenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert restored.faults == scenario.faults

    def test_scenario_id_is_content_addressed(self):
        a = scenario_for(5, 0)
        b = scenario_for(5, 0)
        assert a.scenario_id == b.scenario_id
        b.duration += 1
        assert a.scenario_id != b.scenario_id

