"""Schema v2: v1 upgrade, fingerprints, tolerant loaders, discovery.

The golden v1 payload below is frozen in the exact layout the v1-era
code wrote (no ``schema_version``/``problem`` keys); the golden
fingerprint is the SHA-256 ``stable_hash`` the v1 code computed for it.
Both must stay valid forever: request files, cache dedup and run
registries written before the v2 schema keep working bit-identically.
"""

import json
import warnings

import pytest

from repro.service import CampaignConfig, run_campaign
from repro.service.api import (
    SCHEMA_VERSION,
    CampaignRequest,
    CampaignResponse,
    FrontierPoint,
    SpecRequest,
)
from repro.service.campaign import execute_request
from repro.store import RunStore

GOLDEN_V1_JSON = json.dumps(
    {
        "specs": [
            {"wstore": 4096, "precision": "INT4", "max_l": 64,
             "max_h": 2048, "min_n_factor": 4, "max_n": None},
            {"wstore": 4096, "precision": "INT8", "max_l": 64,
             "max_h": 2048, "min_n_factor": 4, "max_n": None},
        ],
        "population_size": 16,
        "generations": 4,
        "seed": 1,
        "backend": "serial",
        "workers": 1,
        "chunk_size": None,
        "engine": "auto",
    },
    sort_keys=True,
)

#: stable_hash of the payload above, as computed by the v1-era code.
GOLDEN_V1_FINGERPRINT = (
    "b06efebc6d3294e3a91511ee5c712c2101937ceec0ebe894fa439cc1fa974ec3"
)

#: Fingerprints computed while ``engine``/``backend``/``chunk_size``/
#: ``ga_backend`` were still request and config fields, pinned so that
#: retiring those knobs cannot move them.
DCIM_CAMPAIGN_FINGERPRINT = (  # [DcimSpec(4096, "INT8")], CampaignConfig()
    "447bf75d88ea068dbc2a3227eb914f1f0d1d51c4edbfb91e3597e7bb6723bb95"
)
MAPPING_CAMPAIGN_FINGERPRINT = (  # tiny_cnn at 4096, mapping config
    "b01c8a2eac35292325b92ce73ce6dcae54d83144c34a871edf926b96add781aa"
)
MAPPING_REQUEST_FINGERPRINT = (  # CampaignRequest(problem="mapping", ...)
    "79a6125532eb411a5a69ca5c281df8a2a2482a84ca13dd8dd2f654abb6e6465a"
)


def equivalent_v2_request() -> CampaignRequest:
    """The same campaign, written in the v2 layout."""
    return CampaignRequest.from_dict(
        {
            "schema_version": 2,
            "problem": "dcim",
            "specs": [
                {"wstore": 4096, "precision": "INT4"},
                {"wstore": 4096, "precision": "INT8"},
            ],
            "population_size": 16,
            "generations": 4,
            "seed": 1,
        }
    )


class TestV1Upgrade:
    def test_v1_payload_upgrades_to_dcim(self):
        request = CampaignRequest.from_json(GOLDEN_V1_JSON)
        assert request.schema_version == SCHEMA_VERSION
        assert request.problem == "dcim"
        assert request.specs == (
            SpecRequest(4096, "INT4"), SpecRequest(4096, "INT8"),
        )

    def test_v1_fingerprint_is_frozen(self):
        """The dcim fingerprint must never drift across schema bumps."""
        request = CampaignRequest.from_json(GOLDEN_V1_JSON)
        assert request.fingerprint() == GOLDEN_V1_FINGERPRINT

    def test_v1_and_v2_payloads_share_fingerprint(self):
        v1 = CampaignRequest.from_json(GOLDEN_V1_JSON)
        v2 = equivalent_v2_request()
        assert v1 == v2
        assert v2.fingerprint() == GOLDEN_V1_FINGERPRINT

    def test_v1_and_v2_produce_bit_identical_campaigns(self):
        v1_response = execute_request(CampaignRequest.from_json(GOLDEN_V1_JSON))
        v2_response = execute_request(equivalent_v2_request())
        assert [p.to_dict() for p in v1_response.frontier] == [
            p.to_dict() for p in v2_response.frontier
        ]
        assert v1_response.evaluations == v2_response.evaluations

    def test_v1_and_v2_record_identical_store_fingerprints(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            for request in (
                CampaignRequest.from_json(GOLDEN_V1_JSON),
                equivalent_v2_request(),
            ):
                store.record_response(execute_request(request), request)
            a, b = store.list_runs()
            assert a.fingerprint == b.fingerprint == GOLDEN_V1_FINGERPRINT
            assert a.problem == b.problem == "dcim"

    def test_unsupported_schema_version_rejected(self):
        payload = json.loads(GOLDEN_V1_JSON)
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            CampaignRequest.from_dict(payload)
        with pytest.raises(ValueError, match="schema_version"):
            CampaignRequest(
                specs=({"wstore": 4096, "precision": "INT8"},),
                schema_version=3,
            )

    def test_constructed_requests_write_v2(self):
        request = CampaignRequest(
            specs=({"wstore": 4096, "precision": "INT8"},)
        )
        payload = request.to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["problem"] == "dcim"

    def test_omitted_ga_sizing_resolves_to_problem_defaults(self):
        """The wire layer honours the sizing GET /api/problems
        advertises: omitted fields resolve per problem, and dcim's
        resolution reproduces the v1-era 64x60 exactly."""
        dcim = CampaignRequest(specs=({"wstore": 4096, "precision": "INT8"},))
        assert (dcim.population_size, dcim.generations) == (64, 60)
        mapping = CampaignRequest.from_dict(
            {"problem": "mapping", "schema_version": 2,
             "specs": [{"network": "tiny_cnn", "wstore": 4096}]}
        )
        assert (mapping.population_size, mapping.generations) == (32, 24)
        # explicit values always win
        explicit = CampaignRequest(
            problem="mapping",
            specs=({"network": "tiny_cnn", "wstore": 4096},),
            population_size=16,
        )
        assert (explicit.population_size, explicit.generations) == (16, 24)

    def test_no_problem_hashes_schema_version(self):
        """Fingerprints identify workloads: a future schema bump must
        not silently re-fingerprint any problem's requests."""
        request = CampaignRequest(
            problem="mapping",
            specs=({"network": "tiny_cnn", "wstore": 4096},),
        )
        assert request.fingerprint() == MAPPING_REQUEST_FINGERPRINT

    def test_dcim_wire_spec_fails_fast_on_bad_precision(self):
        """A dict payload with a bad precision is rejected at the API
        boundary (HTTP submits answer 400) instead of queueing a
        campaign doomed to fail; programmatic SpecRequest instances
        stay trusted (their failure path is covered elsewhere)."""
        from repro.problems import SpecValidationError

        with pytest.raises(SpecValidationError, match="NOPE"):
            CampaignRequest(specs=({"wstore": 4096, "precision": "NOPE"},))
        # instance pass-through is not re-validated
        CampaignRequest(specs=(SpecRequest(4096, "NOPE"),))


class TestForwardCompatibility:
    def test_retired_knobs_load_silently_and_keep_the_fingerprint(self):
        """Files written while the evaluation knobs existed still load,
        without a warning, as the same workload."""
        payload = json.loads(GOLDEN_V1_JSON)
        payload.update(
            engine="python", backend="process", chunk_size=7,
            ga_backend="python", workers=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            request = CampaignRequest.from_dict(payload)
        assert request.fingerprint() == GOLDEN_V1_FINGERPRINT

    def test_request_loader_ignores_unknown_keys_with_warning(self):
        payload = json.loads(GOLDEN_V1_JSON)
        payload["added_in_v3"] = {"x": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            request = CampaignRequest.from_dict(payload)
        assert request.fingerprint() == GOLDEN_V1_FINGERPRINT
        assert any("added_in_v3" in str(w.message) for w in caught)

    def test_spec_loader_ignores_unknown_keys_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = SpecRequest.from_dict(
                {"wstore": 4096, "precision": "INT8", "novel": True}
            )
        assert spec == SpecRequest(4096, "INT8")
        assert any("novel" in str(w.message) for w in caught)

    def test_response_loader_ignores_unknown_keys_with_warning(self):
        payload = {
            "frontier": [
                {"precision": "INT8", "n": 64, "h": 64, "l": 1, "k": 8,
                 "objectives": [1.0, 2.0, 3.0, -4.0], "hologram": 9}
            ],
            "evaluations": 1,
            "from_the_future": "yes",
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            response = CampaignResponse.from_dict(payload)
        assert response.evaluations == 1
        assert response.frontier[0].n == 64
        assert len(caught) >= 2  # one per unknown-key site


class TestFrontierPointExtras:
    def test_empty_extras_serialise_identically_to_v1(self):
        point = FrontierPoint("INT8", 64, 64, 1, 8, (1.0, 2.0))
        payload = point.to_dict()
        assert "extras" not in payload
        assert FrontierPoint.from_dict(payload) == point

    def test_non_empty_extras_round_trip(self):
        point = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0,), extras={"n_macros": 4}
        )
        clone = FrontierPoint.from_dict(point.to_dict())
        assert clone == point

    def test_points_stay_hashable(self):
        """extras must not cost FrontierPoint its set/dict-key use."""
        plain = FrontierPoint("INT8", 64, 64, 1, 8, (1.0,))
        extended = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0,), extras={"n_macros": 4}
        )
        twin = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0,), extras={"n_macros": 4}
        )
        assert len({plain, extended, twin}) == 2
        assert hash(extended) == hash(twin)
        # custom problems may put nested JSON in extras; still hashable
        nested = FrontierPoint(
            "-", 0, 0, 0, 0, (1.0,), extras={"tiles": [4, 2]}
        )
        assert hash(nested) == hash(
            FrontierPoint("-", 0, 0, 0, 0, (1.0,), extras={"tiles": [4, 2]})
        )

    def test_point_hash_unchanged_without_extras(self):
        from repro.service.cache import stable_hash
        from repro.store.runstore import point_hash

        point = FrontierPoint("INT8", 64, 64, 1, 8, (1.0, 2.0))
        legacy = stable_hash(
            {"precision": "INT8", "n": 64, "h": 64, "l": 1, "k": 8,
             "objectives": [1.0, 2.0]}
        )
        assert point_hash(point) == legacy
        extended = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0, 2.0), extras={"n_macros": 2}
        )
        assert point_hash(extended) != legacy


class TestProgrammaticFingerprint:
    def test_dcim_config_fingerprint_matches_pre_v2_layout(self):
        """run_campaign(store=...) fingerprints must not drift either."""
        from repro.core.spec import DcimSpec
        from repro.service.campaign import _campaign_fingerprint

        specs = [DcimSpec(wstore=4096, precision="INT8")]
        assert (
            _campaign_fingerprint(specs, CampaignConfig())
            == DCIM_CAMPAIGN_FINGERPRINT
        )

    def test_mapping_config_fingerprint_is_pinned(self):
        from repro.problems import get_problem
        from repro.service.campaign import _campaign_fingerprint

        definition = get_problem("mapping")
        spec = definition.to_spec(
            definition.parse_spec({"network": "tiny_cnn", "wstore": 4096})
        )
        assert (
            _campaign_fingerprint([spec], CampaignConfig(problem="mapping"))
            == MAPPING_CAMPAIGN_FINGERPRINT
        )

    def test_explicit_threshold_512_hashes_while_the_default_does_not(self):
        """Before the default became 4096, a request naming 512 ran the
        default and hashed like one; it now runs a different strategy
        for FP32 32K-256K, so its threshold enters the hash."""
        from repro.core.spec import DcimSpec
        from repro.service.campaign import _campaign_fingerprint

        payload = json.loads(GOLDEN_V1_JSON)
        default = CampaignRequest.from_dict(payload)
        explicit = CampaignRequest.from_dict({**payload, "exhaustive_threshold": 512})
        unset = CampaignRequest.from_dict({**payload, "exhaustive_threshold": None})
        assert default.fingerprint() == unset.fingerprint() == GOLDEN_V1_FINGERPRINT
        assert explicit.fingerprint() != GOLDEN_V1_FINGERPRINT

        specs = [DcimSpec(wstore=4096, precision="INT8")]
        assert (
            _campaign_fingerprint(specs, CampaignConfig(exhaustive_threshold=None))
            == DCIM_CAMPAIGN_FINGERPRINT
        )
        assert (
            _campaign_fingerprint(specs, CampaignConfig(exhaustive_threshold=512))
            != DCIM_CAMPAIGN_FINGERPRINT
        )
