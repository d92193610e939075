"""The one document reader: every document option refuses a kind it does not
accept, every nested document is read under its own envelope and kind, and
axioms are checked after parsing, in one place."""

import contextlib
import inspect
import io
import json
import time

import pytest

import cli_reports
from mcdeform import documents
from mcdeform import library as lib
from mcdeform.artin import epsilon_algebra
from mcdeform.cli import main
from mcdeform.errors import AxiomViolation

# one example of each of the nine kinds
KIND_EXAMPLES = {
    "dgla": "obstructed", "artin": "artin_kt2", "dg_algebra": "eps1",
    "morphism": "morphism_inj_acyclic", "pair": "pair_idid_obstructed",
    "small_extension": "ext_poly2_mod_uu", "element": "xt_obstructed",
    "triple": "triple_idid_obstructed", "hpair": "hpair_heis",
}
ALL = tuple(KIND_EXAMPLES)


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reader")
    paths = {}
    for name in ("obstructed", "artin_kt2", "artin_kt3", "morphism_inj_acyclic", "heis",
                 "pair_idid_obstructed", "pair_idid_heis", "ext_poly2_mod_uu",
                 "xt_obstructed", "triple_idid_obstructed", "hpair_heis"):
        paths[name] = str(tmp / f"{name}.json")
        assert run(["examples", "--write", name, "--out", paths[name]])[0] == 0
    written = dict(cli_reports.series_documents(),
                   eps1=documents.serialize_artin(epsilon_algebra(1)))
    for name, doc in written.items():
        paths[name] = str(tmp / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(documents.canonical_json(doc))
    return paths


# (argv with every document option filled by an accepted example, and for each
# document option the kinds it accepts); "doc" is the positional document
ELEMENT, ALGEBRA = ("element",), ("artin", "dg_algebra")
CASES = {
    "validate": (["validate", "{obstructed}"], {"doc": ALL}),
    "cohomology": (["cohomology", "{obstructed}"], {"doc": ("dgla",)}),
    "cone": (["cone", "{morphism_inj_acyclic}"], {"doc": ("morphism",)}),
    "pair-cone": (["pair-cone", "{pair_idid_obstructed}"], {"doc": ("pair",)}),
    "tangent-dgla": (["tangent", "--dgla", "{obstructed}"], {"--dgla": ("dgla",)}),
    "tangent-pair": (["tangent", "--pair", "{pair_idid_obstructed}"], {"--pair": ("pair",)}),
    "mc-residual": (["mc-residual", "--dgla", "{obstructed}", "--artin", "{artin_kt2}",
                     "--element", "{xt_obstructed}"],
                    {"--dgla": ("dgla",), "--artin": ALGEBRA, "--element": ELEMENT}),
    "mc-check": (["mc-check", "--pair", "{pair_idid_obstructed}", "--artin", "{artin_kt2}",
                  "--element", "{triple_idid_obstructed}"],
                 {"--pair": ("pair",), "--artin": ALGEBRA, "--element": ("triple",)}),
    "gauge-apply": (["gauge-apply", "--dgla", "{heis}", "--artin", "{artin_kt3}",
                     "--param", "{a_kt3}", "--element", "{x_kt3}"],
                    {"--dgla": ("dgla",), "--artin": ALGEBRA, "--param": ELEMENT,
                     "--element": ELEMENT}),
    "gauge-equiv": (["gauge-equiv", "--dgla", "{heis}", "--artin", "{artin_kt3}",
                     "--x", "{x_kt3}", "--y", "{y_kt3}"],
                    {"--dgla": ("dgla",), "--artin": ALGEBRA, "--x": ELEMENT, "--y": ELEMENT}),
    "bch": (["bch", "--dgla", "{heis}", "--artin", "{artin_kt3}", "--a", "{a_kt3}",
             "--b", "{b_kt3}"],
            {"--dgla": ("dgla",), "--artin": ALGEBRA, "--a": ELEMENT, "--b": ELEMENT}),
    **{f"{command}-{end}": (
        [command, f"--{end}", "{%s}" % doc, "--tower", "3", "--element", "{%s}" % element],
        {f"--{end}": (end,), "--element": (kind,)})
       for command in ("obstruction", "lift")
       for end, doc, element, kind in (("dgla", "obstructed", "xt_obstructed", "element"),
                                       ("pair", "pair_idid_obstructed",
                                        "triple_idid_obstructed", "triple"))},
    "h-trunc": (["h-trunc", "--pair", "{pair_idid_heis}", "--trunc", "1"],
                {"--pair": ("pair",)}),
    "h-embed": (["h-embed", "--pair", "{pair_idid_heis}", "--element", "{hpair_heis}"],
                {"--pair": ("pair",), "--element": ("hpair",)}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_document_option_enforces_its_kinds(docs, case):
    argv, options = CASES[case]
    argv = [a.format(**docs) for a in argv] + ["--json"]
    assert run(argv)[0] == 0, case
    for option, kinds in options.items():
        at = 1 if option == "doc" else argv.index(option) + 1
        for kind, name in KIND_EXAMPLES.items():
            code, out, err = run(argv[:at] + [docs[name]] + argv[at + 1:])
            assert err == "", (case, option, kind)
            if kind not in kinds:
                assert code == 1, (case, option, kind)
                assert json.loads(out) == {"error": "SchemaError", "message": (
                    f"{docs[name]}: expected a {' or '.join(kinds)} document, "
                    f"got kind '{kind}'")}, (case, option, kind)
            elif docs[name] == argv[at] or case == "validate":
                assert code == 0, (case, option, kind)
            else:  # another accepted document, whose digest the other inputs do not name
                assert "expected a" not in out, (case, option, kind)


NESTED = [("format", "mcdeform/0", "format must be 'mcdeform/1', got 'mcdeform/0'"),
          ("convention", "some-other-cone", "convention must be 'iacono-cone-v1'"),
          ("kind", "hpair", "expected a {kinds} document, got kind 'hpair'")]


@pytest.mark.parametrize("key, value, message", NESTED, ids=[k for k, _v, _m in NESTED])
@pytest.mark.parametrize("name, path, command", [
    ("morphism_inj_acyclic", ("source",), "cone"),
    ("morphism_inj_acyclic", ("target",), "cone"),
    ("pair_idid_obstructed", ("h", "source"), "pair-cone"),
    ("pair_idid_obstructed", ("h", "target"), "pair-cone"),
    ("pair_idid_obstructed", ("g", "source"), "pair-cone"),
    ("pair_idid_obstructed", ("g", "target"), "pair-cone"),
    ("ext_poly2_mod_uu", ("source",), None),
    ("ext_poly2_mod_uu", ("target",), None),
])
def test_nested_envelopes_and_kinds_are_enforced(tmp_path, docs, name, path, command,
                                                 key, value, message):
    with open(docs[name]) as fh:
        doc = json.load(fh)
    node = doc
    for step in path:
        node = node[step]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    kinds = "artin or dg_algebra" if name == "ext_poly2_mod_uu" else "dgla"
    where = ".".join((doc["kind"],) + path)
    for argv in [["validate"]] + ([[command]] if command else []):
        code, out, err = run(argv + [str(bad), "--json"])
        assert (code, err) == (1, ""), argv
        assert json.loads(out) == {"error": "SchemaError",
                                   "message": f"{where}: {message.format(kinds=kinds)}"}, argv


def test_pair_morphisms_are_bare_bodies(tmp_path, docs):
    # h and g are written without an envelope, and one with an envelope is refused
    with open(docs["pair_idid_obstructed"]) as fh:
        doc = json.load(fh)
    doc["h"]["format"] = "mcdeform/1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(bad), "--json"])
    assert code == 1
    assert json.loads(out) == {"error": "SchemaError",
                               "message": "pair.h: unknown fields ['format']"}


def test_extension_with_non_associative_ends_reports_both(tmp_path, docs):
    # u·vv = uv in both ends keeps alpha an algebra map and breaks associativity
    with open(docs["ext_poly2_mod_uu"]) as fh:
        doc = json.load(fh)
    for end in ("source", "target"):
        doc[end]["table"].append({"a": "u", "b": "vv", "value": {"uv": "1"}})
    bad = tmp_path / "ext.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(bad), "--json"])
    assert code == 1
    violation = [{"axiom": "associativity", "detail": f"{end}: (a·b)·c ≠ a·(b·c)",
                  "witness": witness}
                 for end in ("source", "target") for witness in (["u", "v", "v"], ["v", "v", "u"])]
    assert json.loads(out)["result"] == {"kind": "small_extension", "valid": False,
                                         "violations": violation}
    with pytest.raises(AxiomViolation) as e:
        documents.parse_document(json.dumps(doc))
    assert str(e.value) == ("small_extension.source: coefficient-algebra axioms violated "
                            "(associativity violated at (u, v, v): (a·b)·c ≠ a·(b·c))")


def test_invalid_endpoints_are_named_before_the_morphism():
    # a pair whose target breaks Jacobi and whose h is no morphism: the
    # loader names the target, validate lists its violations first
    from mcdeform.dgla import DglaMorphism
    from mcdeform.graded import identity_map
    import mutations

    _name, bad = mutations.corpus()[0]
    twice = DglaMorphism(bad, bad, identity_map(bad.space).scale(2))
    with pytest.raises(AxiomViolation) as e:
        documents.parse_document(documents.canonical_json(documents.serialize_pair(twice, twice)))
    assert str(e.value).startswith("pair.h.source: DGLA axioms violated (jacobi")
    kinds = [what for _role, what, report in
             documents.axiom_checks("pair", (twice, twice)) if report]
    assert kinds == ["DGLA", "morphism", "morphism"]
    # valid sources and an invalid target: the target is named as the pair's own
    into_bad = DglaMorphism(lib.sl2(), bad, identity_map(bad.space))
    with pytest.raises(AxiomViolation) as e:
        documents.parse_document(documents.canonical_json(
            documents.serialize_pair(into_bad, into_bad)))
    assert str(e.value).startswith("pair.target: DGLA axioms violated (jacobi")


def test_no_check_axioms_keyword():
    text = documents.canonical_json(documents.serialize_dgla(lib.heis()))
    for fn in (documents.parse_document, documents.load_document, documents.parse_doc,
               documents.parse_valid, documents.parse_dgla_body, documents.parse_artin_body,
               documents.parse_morphism_body, documents.parse_pair_body,
               documents.parse_extension_body):
        assert "check_axioms" not in inspect.signature(fn).parameters, fn.__name__
    with pytest.raises(TypeError):
        documents.parse_document(text, check_axioms=False)


@pytest.mark.parametrize("part, exponent", [("t", "1" * 5000), ("t", "6000"), ("dt", "5999")],
                         ids=["5000_digits", "t^6000", "t^5999_dt"])
def test_hpair_exponents_are_bounded(tmp_path, docs, part, exponent):
    # m = x·(t − t^E) is an H-element of the heis pair for every E; its
    # embedding expands t^E, so E sets the window that is guarded, and so
    # does E + 1 for a term a·t^E dt
    with open(docs["hpair_heis"]) as fh:
        doc = json.load(fh)
    if part == "t":
        doc["m"]["t"][exponent] = doc["m"]["t"].pop("2")
    else:
        doc["m"]["dt"][exponent] = {"a": "1"}
    bad = tmp_path / "hpair.json"
    bad.write_text(json.dumps(doc))
    commands = [["h-embed", "--pair", docs["pair_idid_heis"], "--element", str(bad)]]
    if len(exponent) > 4300:
        commands.append(["validate", str(bad)])
    for argv in commands:
        start = time.perf_counter()
        code, out, err = run(argv + ["--json"])
        assert time.perf_counter() - start < 2, argv[0]
        assert (code, err) == (1, ""), argv[0]
        assert json.loads(out)["error"] == "ResourceLimitExceeded", argv[0]


def test_hpair_exponent_given_twice_is_refused(tmp_path, docs):
    # "01" and "1" name one exponent; the last one read used to win silently
    with open(docs["hpair_heis"]) as fh:
        doc = json.load(fh)
    doc["m"]["t"]["01"] = {"x": "5"}
    bad = tmp_path / "hpair.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(bad), "--json"])
    assert code == 1
    assert json.loads(out) == {"error": "SchemaError",
                               "message": "hpair.m.t.01: exponent 1 given twice"}
