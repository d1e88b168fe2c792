"""Canonical (de)serialization of MINLPOptions (satellite of the spec PR).

Options land in TuneSpec payloads and cross process boundaries, so their
dict form must be stable (field order), exact (enums by value, nested
blocks as dicts), and strict (unknown keys rejected, live-object fields
warned about and dropped).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.lp.simplex import SimplexOptions
from repro.minlp.options import (
    BranchRule,
    MINLPOptions,
    NON_SERIALIZABLE_FIELDS,
    NodeSelection,
    VarBranchRule,
    minlp_options_from_dict,
    minlp_options_to_dict,
)
from repro.nlp.barrier import BarrierOptions


class TestRoundTrip:
    def test_defaults_round_trip_field_equal(self):
        options = MINLPOptions()
        assert minlp_options_from_dict(minlp_options_to_dict(options)) == options

    def test_non_defaults_round_trip(self):
        options = MINLPOptions(
            rel_gap=1e-4,
            max_nodes=777,
            branch_rule=BranchRule.INTEGER_ONLY,
            var_branch_rule=VarBranchRule.MOST_FRACTIONAL,
            node_selection=NodeSelection.DEPTH_FIRST,
            workers=4,
            evaluator="scalar",
            lp_options=SimplexOptions(max_iterations=123),
            nlp_options=BarrierOptions(tol=1e-9),
        )
        rebuilt = minlp_options_from_dict(minlp_options_to_dict(options))
        assert rebuilt == options

    def test_json_round_trip_is_exact(self):
        options = MINLPOptions(rel_gap=0.1 + 0.2)  # an ugly double on purpose
        payload = json.loads(json.dumps(minlp_options_to_dict(options)))
        assert minlp_options_from_dict(payload) == options

    def test_methods_delegate(self):
        options = MINLPOptions(max_nodes=42)
        assert MINLPOptions.from_dict(options.to_dict()) == options


class TestCanonicalForm:
    def test_field_order_is_declaration_order(self):
        serializable = [
            f.name
            for f in dataclasses.fields(MINLPOptions)
            if f.name not in NON_SERIALIZABLE_FIELDS
        ]
        assert list(minlp_options_to_dict(MINLPOptions())) == serializable

    def test_enums_serialize_by_value(self):
        payload = minlp_options_to_dict(MINLPOptions())
        assert payload["branch_rule"] == "sos_first"
        assert payload["var_branch_rule"] == "pseudo_cost"
        assert payload["node_selection"] == "best_bound"

    def test_nested_blocks_are_plain_dicts(self):
        payload = minlp_options_to_dict(MINLPOptions())
        assert isinstance(payload["lp_options"], dict)
        assert isinstance(payload["nlp_options"], dict)
        json.dumps(payload)  # the whole payload is pure JSON


class TestStrictness:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown option keys"):
            minlp_options_from_dict({"rel_gap": 1e-6, "rel_gapp": 1e-6})

    def test_unknown_nested_key_rejected(self):
        # ``nlp_options.feas_margin`` was a BarrierOptions field until it was
        # deleted as dead; payloads that still carry it must fail clearly.
        for block, key, value in (
            ("lp_options", "pivot_magic", 3),
            ("nlp_options", "feas_margin", 1e-10),
        ):
            payload = minlp_options_to_dict(MINLPOptions())
            payload[block][key] = value
            with pytest.raises(ConfigurationError, match="unknown option keys"):
                minlp_options_from_dict(payload)

    def test_unknown_enum_value_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown value"):
            minlp_options_from_dict({"branch_rule": "coin_flip"})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a dict"):
            minlp_options_from_dict("rel_gap=1e-6")

    @pytest.mark.parametrize("field", sorted(NON_SERIALIZABLE_FIELDS))
    def test_live_fields_cannot_be_smuggled_in(self, field):
        with pytest.raises(ConfigurationError, match="unknown option keys"):
            minlp_options_from_dict({field: None})


class TestLiveObjectFields:
    def test_set_check_hook_warns_and_drops(self):
        options = MINLPOptions(check_hook=lambda: False)
        with pytest.warns(UserWarning, match="check_hook"):
            payload = minlp_options_to_dict(options)
        assert "check_hook" not in payload
        assert minlp_options_from_dict(payload).check_hook is None

    def test_set_reuse_warns_and_drops(self):
        options = MINLPOptions(reuse=object())
        with pytest.warns(UserWarning, match="reuse"):
            payload = minlp_options_to_dict(options)
        assert "reuse" not in payload
        assert minlp_options_from_dict(payload).reuse is None

    def test_unset_live_fields_serialize_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            minlp_options_to_dict(MINLPOptions())
