import io
import json
import os
import subprocess
import sys

import pytest

import mutations
from mcdeform import cli, documents
from mcdeform import library as lib
from mcdeform.cli import main
from mcdeform.dgla import identity_morphism

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def golden(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.json")


@pytest.fixture()
def docs(tmp_path):
    """Materialize the example documents into a temp dir via the CLI."""
    paths = {}
    for name in ("obstructed", "xt_obstructed", "artin_kt2", "artin_kt3",
                 "pair_idid_obstructed", "triple_idid_obstructed", "hpair_heis",
                 "pair_idid_heis", "pair_m_zero", "heis", "acyclic", "ext_poly2_mod_uu"):
        p = tmp_path / f"{name}.json"
        code, _o, _e = run_cli(["examples", "--write", name, "--out", str(p)])
        assert code == 0
        paths[name] = str(p)
    return paths


class TestExamples:
    def test_list(self):
        code, out, _ = run_cli(["examples", "--list", "--json"])
        assert code == 0
        report = json.loads(out)
        names = report["result"]["examples"]
        assert "obstructed" in names and "pair_idid_heis" in names
        # the listing is built without the documents; it names each of them
        assert sorted(names) == sorted(cli._examples())

    def test_unknown_name(self):
        code, _out, err = run_cli(["examples", "--write", "nope"])
        assert code == 2

    def test_written_files_match_golden(self, docs):
        for name in ("obstructed", "xt_obstructed", "artin_kt2",
                     "pair_idid_obstructed", "triple_idid_obstructed", "hpair_heis"):
            with open(docs[name]) as fh:
                got = fh.read()
            with open(golden(name)) as fh:
                want = fh.read()
            assert got == want, name


class TestValidateCommand:
    def test_valid_document(self, docs):
        code, out, _ = run_cli(["validate", docs["obstructed"], "--json"])
        assert code == 0
        assert json.loads(out)["result"]["valid"] is True

    def test_invalid_document_exit_one(self, tmp_path, docs):
        with open(docs["obstructed"]) as fh:
            doc = json.load(fh)
        doc["bracket"][0]["value"] = {"x": "1"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run_cli(["validate", str(bad), "--json"])
        assert code == 1
        report = json.loads(out)
        assert report["result"]["valid"] is False
        assert report["result"]["violations"]

    def test_syntax_error(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{")
        code, _out, err = run_cli(["validate", str(p)])
        assert code == 1

    def test_missing_file(self):
        code, _out, err = run_cli(["validate", "/nonexistent/x.json"])
        assert code == 1


class TestMathCommands:
    def test_cohomology(self, docs):
        code, out, _ = run_cli(["cohomology", docs["obstructed"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["dims"] == {"1": 1, "2": 1}

    def test_pair_cone(self, docs):
        code, out, _ = run_cli(["pair-cone", docs["pair_idid_obstructed"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["d_squared_zero"] is True
        assert r["cohomology"] == {"1": 1, "2": 1, "3": 0}

    def test_cone_single_morphism(self, tmp_path):
        p = tmp_path / "morphism.json"
        code, _o, _e = run_cli(["examples", "--write", "morphism_inj_acyclic",
                                "--out", str(p)])
        assert code == 0
        code, out, _ = run_cli(["cone", str(p), "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["d_squared_zero"] is True
        # cone of an inclusion of an acyclic summand is acyclic
        assert all(v == 0 for v in r["cohomology"].values())

    def test_tangent_pair(self, docs):
        code, out, _ = run_cli(["tangent", "--pair", docs["pair_idid_heis"], "--json"])
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 2

    def test_tangent_pair_m_zero_is_dim_sum(self, tmp_path):
        # on the M = 0 pair the tangent dimension is dim H¹(L) + dim H¹(N)
        p = tmp_path / "pair_m_zero.json"
        code, _o, _e = run_cli(["examples", "--write", "pair_m_zero", "--out", str(p)])
        assert code == 0
        code, out, _ = run_cli(["tangent", "--pair", str(p), "--json"])
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 2  # 0 (heis0) + 2 (abelian2)

    def test_tangent_usage_error(self, docs):
        code, _out, _err = run_cli(["tangent", "--json"])
        assert code == 2

    def test_mc_residual(self, docs):
        code, out, _ = run_cli([
            "mc-residual", "--dgla", docs["obstructed"], "--artin", docs["artin_kt2"],
            "--element", docs["xt_obstructed"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["is_mc"] is True

    def test_mc_check_triple(self, docs):
        code, out, _ = run_cli([
            "mc-check", "--pair", docs["pair_idid_obstructed"],
            "--artin", docs["artin_kt2"],
            "--element", docs["triple_idid_obstructed"], "--json"])
        assert code == 0
        assert json.loads(out)["result"]["verified"] is True

    def test_obstruction_walkthrough(self, docs):
        code, out, _ = run_cli([
            "obstruction", "--dgla", docs["obstructed"], "--tower", "3",
            "--element", docs["xt_obstructed"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["nonzero"] is True
        assert r["class"] == {"y@t^2": "1"}

    def test_lift_returns_no_lift(self, docs):
        code, out, _ = run_cli([
            "lift", "--dgla", docs["obstructed"], "--tower", "3",
            "--element", docs["xt_obstructed"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["lifted"] is False

    def test_pair_obstruction(self, docs):
        code, out, _ = run_cli([
            "obstruction", "--pair", docs["pair_idid_obstructed"], "--tower", "3",
            "--element", docs["triple_idid_obstructed"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["nonzero"] is True

    def test_pair_lift_no_lift(self, docs):
        code, out, _ = run_cli([
            "lift", "--pair", docs["pair_idid_obstructed"], "--tower", "3",
            "--element", docs["triple_idid_obstructed"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["lifted"] is False and r["triple"] is None

    def test_gauge_and_bch_and_equiv(self, tmp_path, docs):
        # build parameter and element docs over heis ⊗ K[t]/t³
        from mcdeform import library as lib
        from mcdeform.artin import tensor_dgla
        from mcdeform.documents import (
            canonical_json, digest, serialize_artin, serialize_dgla,
            serialize_element)
        L, A = lib.heis(), lib.artin_kt(3)
        T = tensor_dgla(L, A)
        ld, ad = digest(serialize_dgla(L)), digest(serialize_artin(A))

        def write(name, coords, degree):
            p = tmp_path / name
            elem = T.element_from_labels(coords, degree)
            p.write_text(canonical_json(serialize_element(elem, ld, ad, degree)))
            return str(p)

        a_doc = write("a.json", {"a@t": 1}, 0)
        b_doc = write("b.json", {"a@t^2": 1}, 0)
        x_doc = write("x.json", {"x@t": 1}, 1)
        y_doc = write("y.json", {"x@t": 1, "y@t^2": 1}, 1)

        code, out, _ = run_cli(["gauge-apply", "--dgla", docs["heis"],
                                "--artin", docs["artin_kt3"], "--param", a_doc,
                                "--element", x_doc, "--json"])
        assert code == 0
        assert json.loads(out)["result"]["result"] == {"x@t": "1", "y@t^2": "1"}

        code, out, _ = run_cli(["bch", "--dgla", docs["heis"],
                                "--artin", docs["artin_kt3"], "--a", a_doc,
                                "--b", b_doc, "--json"])
        assert code == 0
        assert json.loads(out)["result"]["result"] == {"a@t": "1", "a@t^2": "1"}

        code, out, _ = run_cli(["gauge-equiv", "--dgla", docs["heis"],
                                "--artin", docs["artin_kt3"], "--x", x_doc,
                                "--y", y_doc, "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["status"] == "equivalent"
        # the decision has no search budget to set
        with pytest.raises(SystemExit) as exit_:
            run_cli(["gauge-equiv", "--dgla", docs["heis"], "--artin", docs["artin_kt3"],
                     "--x", x_doc, "--y", y_doc, "--budget", "5", "--json"])
        assert exit_.value.code == 2

    def test_h_trunc(self, docs):
        code, out, _ = run_cli(["h-trunc", "--pair", docs["pair_idid_heis"],
                                "--trunc", "2", "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["matches_cone"] is True and r["stable"] is True

    def test_h_embed(self, docs):
        code, out, _ = run_cli(["h-embed", "--pair", docs["pair_idid_heis"],
                                "--element", docs["hpair_heis"], "--json"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["verified"] is True
        assert r["k_element"]["m1"]["t"]["1"] == {"x": "1/2"}

    def test_digest_cross_wiring_rejected(self, docs):
        code, _out, err = run_cli([
            "obstruction", "--dgla", docs["heis"], "--tower", "3",
            "--element", docs["xt_obstructed"]])
        assert code == 1


class TestDocumentBoundary:
    """Endpoint validation, the triple resolver, and field-type guards."""

    def test_validate_checks_morphism_and_pair_endpoints(self, tmp_path):
        from mcdeform.dgla import identity_morphism
        from mcdeform.documents import canonical_json, serialize_morphism, serialize_pair

        _name, bad = mutations.corpus()[0]
        phi = identity_morphism(bad)
        for kind, doc in (("morphism", serialize_morphism(phi)),
                          ("pair", serialize_pair(phi, phi))):
            p = tmp_path / f"{kind}.json"
            p.write_text(canonical_json(doc))
            code, out, _ = run_cli(["validate", str(p), "--json"])
            assert code == 1, kind
            report = json.loads(out)["result"]
            assert report["valid"] is False
            assert any(v["axiom"] == "jacobi" for v in report["violations"])
            if kind == "pair":
                code, out, _ = run_cli(["pair-cone", str(p), "--json"])
                assert code == 1 and json.loads(out)["error"] == "AxiomViolation"

    def test_equal_pair_reports_both_morphisms(self, tmp_path):
        # validate_morphism runs once for h = g, and its violations still
        # appear once for h and once for g
        from mcdeform.dgla import DglaMorphism
        from mcdeform.graded import identity_map

        L = lib.heis0()
        twice = DglaMorphism(L, L, identity_map(L.space).scale(2))
        reports = {}
        for kind, doc in (("morphism", documents.serialize_morphism(twice)),
                          ("pair", documents.serialize_pair(twice, twice))):
            p = tmp_path / f"{kind}.json"
            p.write_text(documents.canonical_json(doc))
            code, out, _ = run_cli(["validate", str(p), "--json"])
            assert code == 1, kind
            reports[kind] = json.loads(out)["result"]["violations"]
        assert reports["morphism"]
        assert reports["pair"] == reports["morphism"] * 2

    def test_valid_pair_still_valid(self, docs):
        code, out, _ = run_cli(["validate", docs["pair_idid_obstructed"], "--json"])
        assert code == 0
        assert json.loads(out)["result"] == {"kind": "pair", "valid": True, "violations": []}

    @pytest.mark.parametrize("command", ["obstruction", "lift"])
    def test_pair_commands_reject_element_documents(self, docs, command):
        code, out, _ = run_cli([
            command, "--pair", docs["pair_idid_obstructed"], "--tower", "3",
            "--element", docs["xt_obstructed"], "--json"])
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    def test_unknown_triple_label_is_schema_error(self, tmp_path, docs):
        with open(docs["triple_idid_obstructed"]) as fh:
            doc = json.load(fh)
        doc["x"]["nope@t"] = "1"
        bad = tmp_path / "triple.json"
        bad.write_text(json.dumps(doc))
        for argv in (["mc-check", "--artin", docs["artin_kt2"]],
                     ["obstruction", "--tower", "3"], ["lift", "--tower", "3"]):
            code, out, _ = run_cli(argv + ["--pair", docs["pair_idid_obstructed"],
                                           "--element", str(bad), "--json"])
            assert code == 1, argv[0]
            assert json.loads(out)["error"] == "SchemaError", argv[0]

    def test_repeated_json_key_is_schema_error(self, tmp_path, docs):
        # json.loads alone keeps the last value, and [x, x] = 0 is the abelian DGLA
        with open(docs["obstructed"]) as fh:
            text = json.dumps(json.load(fh))
        assert text.count('"y": "2"') == 1
        bad = tmp_path / "obstructed_dup_key.json"
        bad.write_text(text.replace('"y": "2"', '"y": "2", "y": "0"'))
        proc = subprocess.run([sys.executable, "-m", "mcdeform.cli", "cohomology", str(bad),
                               "--json"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report["error"] == "SchemaError" and "repeated key 'y'" in report["message"]

    @pytest.mark.parametrize("name, path, value", [
        ("obstructed", ("differential",), []),
        ("obstructed", ("bracket",), {}),
        ("artin_kt2", ("table",), {}),
        ("pair_idid_obstructed", ("h", "matrix"), []),
        ("ext_poly2_mod_uu", ("alpha",), []),
        ("ext_poly2_mod_uu", ("section",), "x"),
        ("ext_poly2_mod_uu", ("source",), []),
        ("ext_poly2_mod_uu", ("target",), 1.5),
        ("ext_poly2_mod_uu", ("kernel",), {}),
        ("artin_kt3", ("table", 0, "a"), []),
        ("artin_kt3", ("table", 0, "b"), {}),
        ("pair_idid_obstructed", ("h",), []),
        ("pair_idid_obstructed", ("g",), "x"),
        ("hpair_heis", ("m", "t"), []),
        ("hpair_heis", ("m", "dt"), "x"),
        ("hpair_heis", ("m", "t"), {"a": {}}),
        ("hpair_heis", ("degree",), None),
        ("hpair_heis", ("degree",), "1"),
    ])
    def test_wrong_field_types_are_schema_errors(self, tmp_path, docs, name, path, value):
        with open(docs[name]) as fh:
            doc = json.load(fh)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in ("validate", "cohomology") if name == "obstructed" else ("validate",):
            code, out, _ = run_cli([command, str(bad), "--json"])
            assert code == 1, command
            assert json.loads(out)["error"] == "SchemaError", command
        if name == "hpair_heis":
            code, out, _ = run_cli(["h-embed", "--pair", docs["pair_idid_heis"],
                                    "--element", str(bad), "--json"])
            assert code == 1
            assert json.loads(out)["error"] == "SchemaError"

    def test_h_embed_rejects_a_dgla_document(self, docs):
        code, out, _ = run_cli(["h-embed", "--pair", docs["pair_idid_heis"],
                                "--element", docs["heis"], "--json"])
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    def test_wrong_degree_terms_are_schema_errors(self, tmp_path, docs):
        with open(docs["xt_obstructed"]) as fh:
            element = json.load(fh)
        element["coords"] = {"y@t": "1"}  # degree 2 in a degree-1 element
        with open(docs["hpair_heis"]) as fh:
            hpair = json.load(fh)
        hpair["m"]["t"]["1"] = {"a": "1"}  # degree 0 in a degree-1 path element
        for doc, argv in ((element, ["mc-residual", "--dgla", docs["obstructed"],
                                     "--artin", docs["artin_kt2"]]),
                          (hpair, ["h-embed", "--pair", docs["pair_idid_heis"]])):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            code, out, _ = run_cli(argv + ["--element", str(bad), "--json"])
            assert code == 1, argv[0]
            assert json.loads(out)["error"] == "SchemaError", argv[0]

    def test_window_width_is_bounded(self, tmp_path, docs):
        with open(docs["heis"]) as fh:
            doc = json.load(fh)
        doc["window"] = [0, 100_000_000]  # three basis vectors, 10^8 degrees
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(doc))
        for command in ("validate", "cohomology"):
            code, out, _ = run_cli([command, str(wide), "--json"])
            assert code == 1, command
            assert json.loads(out)["error"] == "ResourceLimitExceeded", command


    def test_unknown_dg_algebra_differential_label_is_schema_error(self, tmp_path):
        from mcdeform.artin import epsilon_algebra
        from mcdeform.documents import canonical_json, serialize_artin

        doc = serialize_artin(epsilon_algebra())
        doc["differential"] = {"eps": {"nope": "1"}}
        bad = tmp_path / "eps.json"
        bad.write_text(canonical_json(doc))
        code, out, _ = run_cli(["validate", str(bad), "--json"])
        assert code == 1
        error = json.loads(out)
        assert error["error"] == "SchemaError"
        assert "dg_algebra.differential.eps.nope" in error["message"]

    def test_largest_square_zero_algebra_validates(self, tmp_path):
        # 512 labels, the MCDEFORM_MAX_DIM default: no product, so no
        # associativity triple is visited
        from mcdeform.artin import square_zero_algebra
        from mcdeform.documents import DEFAULT_MAX_DIM, canonical_json, serialize_artin

        A = square_zero_algebra(tuple(f"x{i}" for i in range(DEFAULT_MAX_DIM)))
        path = tmp_path / "square_zero.json"
        path.write_text(canonical_json(serialize_artin(A)))
        code, out, _ = run_cli(["validate", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["result"] == {"kind": "artin", "valid": True, "violations": []}

    @pytest.mark.parametrize("end", ["source", "target"])
    def test_extension_with_a_dg_algebra_end_is_refused(self, tmp_path, end):
        # a degree-0 dg algebra with d = 0 holds the same products, and is
        # still not an Artin algebra
        from mcdeform.documents import canonical_json, serialize_extension

        doc = serialize_extension(lib.extension_poly2_mod_uu())
        alg = doc[end]
        alg.update(kind="dg_algebra", degrees={lab: 0 for lab in alg["basis"]}, differential={})
        path = tmp_path / "ext.json"
        path.write_text(canonical_json(doc))
        code, out, _ = run_cli(["validate", str(path), "--json"])
        assert code == 1
        error = json.loads(out)
        assert error["error"] == "AxiomViolation"
        assert error["message"] == f"small_extension: {end} is a dg algebra, not an Artin algebra"

    def _bch_documents(self, tmp_path, a_coords, b_coords):
        """heis0 and K[t]/t³ documents with two degree-0 element documents."""
        from mcdeform.artin import tensor_dgla

        L, A = lib.heis0(), lib.artin_kt(3)
        T = tensor_dgla(L, A)
        dgla_doc, artin_doc = documents.serialize_dgla(L), documents.serialize_artin(A)
        paths = []
        for name, doc in (("L", dgla_doc), ("A", artin_doc)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(documents.canonical_json(doc))
        for name, coords in (("a", a_coords), ("b", b_coords)):
            doc = documents.serialize_element(
                T.element_from_labels({}, 0), documents.digest(dgla_doc),
                documents.digest(artin_doc), 0)
            doc["coords"] = coords
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        return ["bch", "--dgla", str(paths[0]), "--artin", str(paths[1]),
                "--a", str(paths[2]), "--b", str(paths[3]), "--json"]

    @pytest.mark.parametrize("scalar", ["1e2000000", "1e999999999", "1E-4300",
                                        "1e0000000000000000005000", "1" * 4301],
                             ids=["e2000000", "e999999999", "e-4300", "e0005000",
                                  "4301_digits"])
    def test_scalar_digits_are_bounded(self, tmp_path, scalar):
        # an exponent counts the digits it writes out: unbounded, "1e2000000"
        # fails in formatting the report and "1e999999999" runs without end
        argv = self._bch_documents(tmp_path, {"p@t": scalar}, {"q@t": "1"})
        code, out, _ = run_cli(argv)
        assert code == 1
        error = json.loads(out)
        assert error["error"] == "ResourceLimitExceeded"
        assert "element.coords.p@t" in error["message"]

    def test_scalar_within_the_bound_still_parses(self, tmp_path):
        argv = self._bch_documents(tmp_path, {"p@t": "1e10"}, {"q@t": "1_0"})
        code, out, _ = run_cli(argv)
        assert code == 0
        assert json.loads(out)["result"]["result"] == {
            "p@t": "10000000000", "q@t": "10", "z@t^2": "50000000000"}

    def test_result_digits_are_bounded(self, tmp_path):
        # each input has 3001 digits, the bracket term of a•b about 6000
        argv = self._bch_documents(tmp_path, {"p@t": "1e3000"}, {"q@t": "1e3000"})
        code, out, _ = run_cli(argv)
        assert code == 1
        assert json.loads(out)["error"] == "ResourceLimitExceeded"

    @pytest.mark.parametrize("text", ['{"format": ' + "1" * 5000 + "}",
                                      "[" * 100_000 + "]" * 100_000],
                             ids=["5000_digit_integer", "nested_100000_deep"])
    def test_json_integer_and_depth_are_bounded(self, tmp_path, text):
        # json.loads raises ValueError on the one, RecursionError on the other
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, _ = run_cli(["validate", str(bad), "--json"])
        assert code == 1
        assert json.loads(out)["error"] == "ResourceLimitExceeded"

    def test_tower_is_bounded(self, docs, monkeypatch):
        # K[t]/t^m is guarded by the dimension of m ⊗ m, (m − 1)²
        monkeypatch.setenv("MCDEFORM_MAX_DIM", "16")
        for command in ("obstruction", "lift"):
            argv = [command, "--dgla", docs["obstructed"], "--element", docs["xt_obstructed"]]
            code, out, _ = run_cli(argv + ["--tower", "6", "--json"])
            assert code == 1, command
            assert json.loads(out)["error"] == "ResourceLimitExceeded", command
            # the largest tower the limit admits gets past the guard to the digest check
            code, out, _ = run_cli(argv + ["--tower", "5", "--json"])
            assert code == 1, command
            assert json.loads(out)["error"] == "SchemaError", command

    @pytest.mark.parametrize("pair, trunc", [
        ("pair_idid_heis", ["--trunc", "1", "--trunc-to", "100000"]),
        ("pair_m_zero", ["--trunc", "1", "--trunc-to", "100000"]),
        ("pair_m_zero", ["--trunc", "20000"])])
    def test_truncation_range_is_bounded_before_any_window(self, docs, pair, trunc):
        # on heis, window N has dimension 6 + 3(2N + 1): the default 512 admits
        # N ≤ 83, and windows 1-20 alone take seconds; with M = 0 each window
        # still builds K[t,dt]_N, counted as if dim M were 1; the timeout fails
        # the test
        proc = subprocess.run(
            [sys.executable, "-m", "mcdeform.cli", "h-trunc", "--pair", docs[pair], *trunc,
             "--json"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "ResourceLimitExceeded"

    def test_largest_truncation_window_decides(self, docs, monkeypatch):
        monkeypatch.setenv("MCDEFORM_MAX_DIM", "21")  # 6 + 3·5: N = 2 at most
        argv = ["h-trunc", "--pair", docs["pair_idid_heis"], "--trunc", "1", "--json"]
        code, out, _ = run_cli(argv + ["--trunc-to", "3"])
        assert code == 1
        assert json.loads(out)["error"] == "ResourceLimitExceeded"
        code, out, _ = run_cli(argv + ["--trunc-to", "2"])
        assert code == 0
        assert sorted(json.loads(out)["result"]["windows"]) == ["1", "2"]


@pytest.fixture()
def validations(monkeypatch):
    """The DGLAs and morphisms validate_dgla and validate_morphism are called
    on, however a command reaches them."""
    calls = {"validate_dgla": [], "validate_morphism": []}
    for name, seen in calls.items():
        def counting(x, seen=seen, real=getattr(documents, name)):
            seen.append(x)
            return real(x)

        monkeypatch.setattr(documents, name, counting)
    return calls


@pytest.mark.parametrize("argv", [["pair-cone", "{pair}"], ["tangent", "--pair", "{pair}"],
                                  ["validate", "{pair}"], ["validate", "{morphism}"]])
def test_each_document_dgla_validated_once(tmp_path, docs, validations, argv):
    # the (id, id) pair has one DGLA at all four ends and h = g; the morphism
    # maps heis to itself
    morphism = tmp_path / "morphism.json"
    morphism.write_text(documents.canonical_json(
        documents.serialize_morphism(identity_morphism(lib.heis()))))
    argv = [a.format(pair=docs["pair_idid_heis"], morphism=morphism) for a in argv]
    code, _out, _err = run_cli(argv + ["--json"])
    assert code == 0
    assert len(validations["validate_dgla"]) == 1
    assert len(validations["validate_morphism"]) == 1


@pytest.mark.parametrize("argv", [
    ["pair-cone", "{pair_idid_heis}"],
    ["bch", "--dgla", "{heis}", "--artin", "{artin_kt3}", "--a", "{a_kt3}", "--b", "{b_kt3}"],
    ["lift", "--pair", "{pair_idid_obstructed}", "--tower", "3",
     "--element", "{triple_idid_obstructed}"],
])
def test_each_input_read_once(tmp_path, docs, monkeypatch, argv):
    # the report's input digests come from the documents the command parsed
    import cli_reports

    for name, doc in cli_reports.series_documents().items():
        docs[name] = str(tmp_path / f"{name}.json")
        with open(docs[name], "w", encoding="utf-8") as fh:
            fh.write(documents.canonical_json(doc))
    argv = [a.format(**docs) for a in argv]
    paths = {a for a in argv if a.endswith(".json")}
    reads = []

    def counting(file, *args, **kwargs):
        reads.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(documents, "open", counting, raising=False)
    code, out, _err = run_cli(argv + ["--json"])
    monkeypatch.undo()
    assert code == 0
    assert sorted(reads) == sorted(paths)
    assert json.loads(out)["inputs"] == {p: documents.digest(documents.load_raw(p))
                                         for p in paths}


class TestDeterminism:
    def test_json_outputs_byte_identical_across_runs(self, docs):
        argv = ["obstruction", "--dgla", docs["obstructed"], "--tower", "3",
                "--element", docs["xt_obstructed"], "--json"]
        _c1, out1, _ = run_cli(argv)
        _c2, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_subprocess_determinism(self, docs):
        cmd = [sys.executable, "-m", "mcdeform.cli", "cohomology",
               docs["obstructed"], "--json"]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_unknown_command_exit_two(self):
        code = subprocess.run(
            [sys.executable, "-m", "mcdeform.cli", "frobnicate"],
            capture_output=True).returncode
        assert code == 2


class TestClosedPipe:
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_reader_gone_before_the_report(self, fmt):
        # as under `mcdeform examples --list | head`, every write fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "mcdeform.cli", "examples", "--list",
                                   *fmt], stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


# a cold process that runs one command (none without arguments) and prints
# the mcdeform modules it loaded as the last line of its standard error
COLD = """
import json, sys
from mcdeform.cli import main
status = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("mcdeform."))), file=sys.stderr)
sys.exit(status)
"""

LAZY = ("mcdeform.artin", "mcdeform.maurer_cartan", "mcdeform.path_object", "mcdeform.library")


def cold_modules(argv) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", COLD, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


class TestColdImports:
    def test_cli_import_is_lazy(self):
        loaded = cold_modules([])
        assert "mcdeform.cli" in loaded
        assert not loaded & set(LAZY)

    @pytest.mark.parametrize("command, name", [("validate", "pair_idid_heis"),
                                               ("cohomology", "heis"),
                                               ("pair-cone", "pair_idid_heis")])
    def test_dgla_and_pair_commands_stay_lazy(self, docs, command, name):
        loaded = cold_modules([command, docs[name], "--json"])
        assert not loaded & set(LAZY), command

    def test_examples_write_builds_only_its_example(self, tmp_path):
        loaded = cold_modules(["examples", "--write", "heis", "--out", str(tmp_path / "h.json")])
        assert not loaded & {"mcdeform.maurer_cartan", "mcdeform.path_object"}

    def test_every_command_has_a_golden_report(self):
        # a handler that misses one of its imports fails its golden report
        with open(os.path.join(GOLDEN, "cli_reports.txt"), encoding="utf-8") as fh:
            ran = {line.split()[2] for line in fh if line.startswith("$ mcdeform ")}
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        assert set(sub.choices) <= ran


def test_resource_guard(tmp_path, docs, monkeypatch):
    monkeypatch.setenv("MCDEFORM_MAX_DIM", "1")
    code, _out, err = run_cli(["cohomology", docs["obstructed"]])
    assert code == 1
