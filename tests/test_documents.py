import json
import os
import re
from fractions import Fraction

import pytest

from mcdeform import library as lib
from mcdeform.artin import tensor_dgla
from mcdeform.documents import (
    canonical_json,
    digest,
    dimension_guard,
    load_raw,
    parse_dgla_body,
    parse_document,
    parse_scalar,
    resolve_tensor_element,
    serialize_artin,
    serialize_dgla,
    serialize_extension,
    serialize_morphism,
    serialize_pair,
)
from mcdeform.dgla import Dgla, DglaMorphism, identity_morphism, validate_dgla
from mcdeform.errors import (
    AxiomViolation,
    DocumentSyntaxError,
    ResourceLimitExceeded,
    SchemaError,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def roundtrip(doc: dict) -> str:
    text = canonical_json(doc)
    parsed = parse_document(text)
    return parsed, text


class TestRoundTrips:
    def test_all_builtin_dglas_byte_identical(self):
        for name, fn in lib.EXAMPLE_DGLAS.items():
            doc = serialize_dgla(fn())
            text = canonical_json(doc)
            L = parse_document(text)
            assert isinstance(L, Dgla), name
            assert canonical_json(serialize_dgla(L)) == text, name

    def test_all_builtin_pairs_byte_identical(self):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            doc = serialize_pair(*fn())
            text = canonical_json(doc)
            h, g = parse_document(text)
            assert canonical_json(serialize_pair(h, g)) == text, name

    def test_all_builtin_artin_byte_identical(self):
        for name, fn in lib.EXAMPLE_ARTIN.items():
            doc = serialize_artin(fn())
            text = canonical_json(doc)
            A = parse_document(text)
            assert canonical_json(serialize_artin(A)) == text, name

    def test_extension_round_trip(self):
        ext = lib.extension_poly2_mod_uu()
        doc = serialize_extension(ext)
        text = canonical_json(doc)
        parsed = parse_document(text)
        assert canonical_json(serialize_extension(parsed)) == text

    def test_morphism_round_trip(self):
        doc = serialize_morphism(identity_morphism(lib.heis()))
        text = canonical_json(doc)
        phi = parse_document(text)
        assert isinstance(phi, DglaMorphism)
        assert canonical_json(serialize_morphism(phi)) == text


class TestGoldenFiles:
    @pytest.mark.parametrize("name", (
        "obstructed", "xt_obstructed", "artin_kt2", "pair_idid_obstructed",
        "triple_idid_obstructed", "hpair_heis"))
    def test_golden_byte_identity(self, name):
        path = os.path.join(GOLDEN, f"{name}.json")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        raw = load_raw(path)
        assert canonical_json(raw) == text

    def test_golden_obstructed_parses_and_validates(self):
        text = open(os.path.join(GOLDEN, "obstructed.json")).read()
        L = parse_document(text)
        assert validate_dgla(L) == []

    def test_golden_element_resolves(self):
        raw = parse_document(open(os.path.join(GOLDEN, "xt_obstructed.json")).read())
        L = parse_document(open(os.path.join(GOLDEN, "obstructed.json")).read())
        A = parse_document(open(os.path.join(GOLDEN, "artin_kt2.json")).read())
        T = tensor_dgla(L, A)
        elem = resolve_tensor_element(
            raw, T, digest(serialize_dgla(L)), digest(serialize_artin(A)))
        assert elem == T.element_from_labels({"x@t": 1}, 1)

    def test_cross_wiring_rejected(self):
        raw = parse_document(open(os.path.join(GOLDEN, "xt_obstructed.json")).read())
        L = lib.heis()
        A = lib.artin_kt(2)
        T = tensor_dgla(L, A)
        with pytest.raises(SchemaError):
            resolve_tensor_element(
                raw, T, digest(serialize_dgla(L)), digest(serialize_artin(A)))


class TestScalars:
    def test_zero_denominator_named(self):
        with pytest.raises(SchemaError) as e:
            parse_scalar("1/0", "differential.x.y")
        assert "differential.x.y" in str(e.value)

    def test_float_rejected(self):
        with pytest.raises(SchemaError):
            parse_scalar(1.5, "field")

    def test_canonical_integer_form(self):
        from mcdeform.documents import format_scalar
        assert format_scalar(Fraction(3)) == "3"
        assert format_scalar(Fraction(-1, 2)) == "-1/2"


class TestSchemaErrors:
    def test_not_json(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document("{nope")

    def test_unknown_fields_rejected(self):
        doc = serialize_dgla(lib.heis0())
        doc["extra"] = 1
        with pytest.raises(SchemaError) as e:
            parse_document(json.dumps(doc))
        assert "extra" in str(e.value)

    def test_unknown_kind(self):
        doc = serialize_dgla(lib.heis0())
        doc["kind"] = "mystery"
        with pytest.raises(SchemaError):
            parse_document(json.dumps(doc))

    def test_bad_convention(self):
        doc = serialize_dgla(lib.heis0())
        doc["convention"] = "other-v9"
        with pytest.raises(SchemaError):
            parse_document(json.dumps(doc))

    def test_axiom_violation_forwarded(self):
        doc = serialize_dgla(lib.heis0())
        doc["bracket"].append({"a": "p", "b": "p", "value": {"z": "1"}})
        with pytest.raises(AxiomViolation) as e:
            parse_document(json.dumps(doc))
        assert e.value.report

    def test_differential_degree_checked(self):
        doc = serialize_dgla(lib.acyclic())
        doc["differential"]["v"] = {"u": "1"}
        with pytest.raises(SchemaError):
            parse_document(json.dumps(doc))

    def test_at_sign_in_basis_labels_rejected(self):
        # with L's degree-1 labels {a@b, a} and A's labels {c, b@c}, the tensor
        # labels a@b ⊗ c and a ⊗ b@c would both read a@b@c
        from mcdeform.artin import artin_from_labels
        from mcdeform.dgla import abelian_dgla
        from mcdeform.graded import ChainComplex, GradedMap, GradedSpace

        space = GradedSpace(1, 1, {1: ("a@b", "a")})
        L = abelian_dgla(ChainComplex(space, GradedMap(space, space, 1, {})))
        A = artin_from_labels(("c", "b@c"), {})
        with pytest.raises(SchemaError, match=r"dgla\.basis\.1: label 'a@b'"):
            parse_document(json.dumps(serialize_dgla(L)))
        with pytest.raises(SchemaError, match=r"artin\.basis: label 'b@c'"):
            parse_document(json.dumps(serialize_artin(A)))

    def test_duplicate_bracket_entries_rejected(self):
        doc = serialize_dgla(lib.heis0())
        doc["bracket"].append(dict(doc["bracket"][0]))
        with pytest.raises(SchemaError):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize("key", ["01", "+2", "1_0", " 1", "1 ", "-0", "٢", "x", ""])
    def test_degree_keys_are_canonical_decimals(self, key):
        # "01" and "1" would both name degree 1, the later dropping the earlier
        body = {"window": [0, 20], "basis": {"1": ["x"], key: ["y"], "2": ["z"]},
                "differential": {}, "bracket": []}
        with pytest.raises(SchemaError, match=re.escape(f"bad degree key {key!r}")):
            parse_dgla_body(body)

    def test_golden_with_a_zero_padded_degree_is_refused(self):
        with open(os.path.join(GOLDEN, "obstructed.json")) as f:
            doc = json.load(f)
        doc["basis"]["02"] = doc["basis"].pop("2")
        with pytest.raises(SchemaError, match="bad degree key '02'"):
            parse_document(json.dumps(doc))


def test_dimension_guard(monkeypatch):
    monkeypatch.setenv("MCDEFORM_MAX_DIM", "2")
    with pytest.raises(ResourceLimitExceeded):
        dimension_guard(3)
    monkeypatch.setenv("MCDEFORM_MAX_DIM", "4")
    dimension_guard(3)
    monkeypatch.delenv("MCDEFORM_MAX_DIM")
    dimension_guard(512)
    with pytest.raises(ResourceLimitExceeded):
        dimension_guard(513)
