"""JSON document formats: parsing, canonical serialization, digests.

Scalars travel as decimal-free "p/q" strings.  Canonical form is
json.dumps(sort_keys=True, indent=2) plus a trailing newline; round-trips
are byte-identical.  Elements reference their owning documents by sha256
content digest so inputs from different algebras cannot be cross-wired.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Mapping

from . import linalg as la
from .artin import (
    ArtinLocalAlgebra,
    DgNilpotentAlgebra,
    SmallExtension,
    TensorDgla,
)
from .dgla import CONE_CONVENTION, Dgla, DglaMorphism, validate_dgla, validate_morphism
from .artin import validate_artin
from .errors import (
    AxiomViolation,
    DocumentSyntaxError,
    ResourceLimitExceeded,
    SchemaError,
    TargetMismatch,
)
from .graded import ChainComplex, GradedElement, GradedSpace, map_from_basis_images

FORMAT_TAG = "mcdeform/1"

DEFAULT_MAX_DIM = 512


def dimension_guard(total: int) -> None:
    cap = int(os.environ.get("MCDEFORM_MAX_DIM", DEFAULT_MAX_DIM))
    if total > cap:
        raise ResourceLimitExceeded(
            f"total basis dimension {total} exceeds MCDEFORM_MAX_DIM={cap}")


def format_scalar(c: Fraction) -> str:
    c = la.frac(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def parse_scalar(text, where: str) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise SchemaError(f"{where}: scalar must be a 'p/q' string, got {text!r}")
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"{where}: bad scalar {text!r} ({e})") from None
    return c


def _scalar_map(d, where: str) -> dict[str, Fraction]:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object of label -> scalar")
    return {lab: parse_scalar(v, f"{where}.{lab}") for lab, v in d.items()}


def _field(doc: dict, key: str, kind: type, where: str):
    """doc[key], which must be a JSON object (dict) or array (list)."""
    val = doc[key]
    if not isinstance(val, kind):
        raise SchemaError(f"{where}.{key}: expected {'an object' if kind is dict else 'a list'}")
    return val


def _expect_keys(obj: Mapping, required: set[str], optional: set[str], where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def digest(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _envelope(kind: str, body: dict) -> dict:
    return {"format": FORMAT_TAG, "convention": CONE_CONVENTION, "kind": kind, **body}


# --- serializers --------------------------------------------------------------


def serialize_dgla(L: Dgla) -> dict:
    space = L.space
    basis = {str(i): list(space.labels(i)) for i in space.degrees() if space.dim(i)}
    differential = {}
    for i in space.degrees():
        for p, lab in enumerate(space.labels(i)):
            img = L.differential_of(GradedElement(space, {(i, p): Fraction(1)}, i))
            if not img.is_zero():
                differential[lab] = {
                    space.label(d, q): format_scalar(c) for (d, q), c in sorted(img.coords.items())}
    bracket = []
    for (a, b) in sorted(L.brackets):
        val = L.brackets[(a, b)]
        bracket.append({
            "a": space.label(*a),
            "b": space.label(*b),
            "value": {space.label(d, q): format_scalar(c)
                      for (d, q), c in sorted(val.coords.items())},
        })
    return _envelope("dgla", {
        "window": [space.dmin, space.dmax],
        "basis": basis,
        "differential": differential,
        "bracket": bracket,
    })


def serialize_artin(A: ArtinLocalAlgebra | DgNilpotentAlgebra) -> dict:
    body = {"basis": list(A.labels)}
    table = []
    for (i, j) in sorted(A.table):
        table.append({
            "a": A.labels[i],
            "b": A.labels[j],
            "value": {A.labels[k]: format_scalar(c)
                      for k, c in sorted(A.table[(i, j)].items())},
        })
    body["table"] = table
    if isinstance(A, DgNilpotentAlgebra):
        body["degrees"] = {lab: A.degrees[i] for i, lab in enumerate(A.labels)}
        body["differential"] = {
            A.labels[i]: {A.labels[k]: format_scalar(c) for k, c in sorted(vec.items())}
            for i, vec in sorted(A.diff.items())
        }
        return _envelope("dg_algebra", body)
    return _envelope("artin", body)


def _morphism_body(phi: DglaMorphism) -> dict:
    src, tgt = phi.source.space, phi.target.space
    matrix = {}
    for i in src.degrees():
        for p, lab in enumerate(src.labels(i)):
            img = phi.apply(GradedElement(src, {(i, p): Fraction(1)}, i))
            if not img.is_zero():
                matrix[lab] = {tgt.label(d, q): format_scalar(c)
                               for (d, q), c in sorted(img.coords.items())}
    return {
        "source": serialize_dgla(phi.source),
        "target": serialize_dgla(phi.target),
        "matrix": matrix,
    }


def serialize_morphism(phi: DglaMorphism) -> dict:
    return _envelope("morphism", _morphism_body(phi))


def serialize_pair(h: DglaMorphism, g: DglaMorphism) -> dict:
    return _envelope("pair", {"h": _morphism_body(h), "g": _morphism_body(g)})


def serialize_extension(ext: SmallExtension) -> dict:
    alpha = {}
    for i, blab in enumerate(ext.B.labels):
        col = {ext.A.labels[r]: format_scalar(ext.alpha[r][i])
               for r in range(ext.A.dim) if ext.alpha[r][i] != 0}
        if col:
            alpha[blab] = col
    section = {}
    for r, alab in enumerate(ext.A.labels):
        col = {ext.B.labels[i]: format_scalar(ext.section[i][r])
               for i in range(ext.B.dim) if ext.section[i][r] != 0}
        if col:
            section[alab] = col
    kernel = [{ext.B.labels[i]: format_scalar(c) for i, c in enumerate(vec) if c != 0}
              for vec in ext.kernel]
    return _envelope("small_extension", {
        "source": serialize_artin(ext.B),
        "target": serialize_artin(ext.A),
        "alpha": alpha,
        "section": section,
        "kernel": kernel,
    })


def element_coords_map(space: GradedSpace, x: GradedElement) -> dict[str, str]:
    return {space.label(d, q): format_scalar(c) for (d, q), c in sorted(x.coords.items())}


def serialize_element(x: GradedElement, owner_dgla: str, owner_coeff: str | None,
                      degree: int | None = None) -> dict:
    return _envelope("element", {
        "owner": {"dgla": owner_dgla, "coeff": owner_coeff},
        "degree": degree if degree is not None else x.degree,
        "coords": element_coords_map(x.space, x),
    })


def serialize_triple(x: GradedElement, y: GradedElement, p: GradedElement,
                     owner_pair: str, owner_coeff: str) -> dict:
    return _envelope("triple", {
        "owner": {"pair": owner_pair, "coeff": owner_coeff},
        "x": element_coords_map(x.space, x),
        "y": element_coords_map(y.space, y),
        "p": element_coords_map(p.space, p),
    })


def serialize_hpair(l: GradedElement, n: GradedElement, m, owner_pair: str) -> dict:
    t_part = {str(e): element_coords_map(coeff.space, coeff)
              for e, coeff in sorted(m.t_part.items())}
    dt_part = {str(e): element_coords_map(coeff.space, coeff)
               for e, coeff in sorted(m.dt_part.items())}
    return _envelope("hpair", {
        "owner": {"pair": owner_pair},
        "l": element_coords_map(l.space, l),
        "n": element_coords_map(n.space, n),
        "degree": m.degree,
        "m": {"t": t_part, "dt": dt_part},
    })


# --- parsers ------------------------------------------------------------------


def _check_envelope(doc: dict, where: str) -> str:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: document must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise SchemaError(f"{where}: format must be {FORMAT_TAG!r}, got {doc.get('format')!r}")
    if doc.get("convention") != CONE_CONVENTION:
        raise SchemaError(f"{where}: convention must be {CONE_CONVENTION!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise SchemaError(f"{where}: missing kind")
    return kind


def parse_dgla_body(doc: dict, where: str = "dgla", check_axioms: bool = True) -> Dgla:
    _expect_keys(doc, {"format", "convention", "kind", "window", "basis",
                       "differential", "bracket"}, set(), where)
    window = doc["window"]
    if (not isinstance(window, list) or len(window) != 2
            or not all(isinstance(w, int) for w in window)):
        raise SchemaError(f"{where}.window: expected [dmin, dmax]")
    basis_raw = doc["basis"]
    if not isinstance(basis_raw, dict):
        raise SchemaError(f"{where}.basis: expected an object degree -> [labels]")
    basis = {}
    for k, labels in basis_raw.items():
        try:
            deg = int(k)
        except ValueError:
            raise SchemaError(f"{where}.basis: bad degree key {k!r}") from None
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise SchemaError(f"{where}.basis.{k}: expected a list of labels")
        basis[deg] = tuple(labels)
    try:
        space = GradedSpace(window[0], window[1], basis)
    except Exception as e:
        raise SchemaError(f"{where}: {e}") from None
    dimension_guard(space.total_dim())

    images = {}
    for lab, val in _field(doc, "differential", dict, where).items():
        if not space.has_label(lab):
            raise SchemaError(f"{where}.differential.{lab}: unknown label")
        deg = space.locate(lab)[0]
        coords = {}
        for tl, c in _scalar_map(val, f"{where}.differential.{lab}").items():
            if not space.has_label(tl):
                raise SchemaError(f"{where}.differential.{lab}.{tl}: unknown label")
            tdeg = space.locate(tl)[0]
            if tdeg != deg + 1:
                raise SchemaError(
                    f"{where}.differential.{lab}.{tl}: differential entry must raise degree by 1")
            coords[space.locate(tl)] = c
        images[lab] = GradedElement(space, coords, deg + 1)
    d = map_from_basis_images(space, space, 1, images)
    cx = ChainComplex(space, d)

    entries = {}
    for k, ent in enumerate(_field(doc, "bracket", list, where)):
        _expect_keys(ent, {"a", "b", "value"}, set(), f"{where}.bracket[{k}]")
        a, b = ent["a"], ent["b"]
        for lab in (a, b):
            if not isinstance(lab, str) or not space.has_label(lab):
                raise SchemaError(f"{where}.bracket[{k}]: unknown label {lab!r}")
        val = _scalar_map(ent["value"], f"{where}.bracket[{k}].value")
        for tl in val:
            if not space.has_label(tl):
                raise SchemaError(f"{where}.bracket[{k}].value.{tl}: unknown label")
        if (a, b) in entries:
            raise SchemaError(f"{where}.bracket[{k}]: duplicate entry for ({a}, {b})")
        entries[(a, b)] = val
    from .dgla import dgla_from_labels
    L = dgla_from_labels(cx, entries)
    if check_axioms:
        report = validate_dgla(L)
        if report:
            raise AxiomViolation(
                f"{where}: DGLA axioms violated ({report[0]})", report)
    return L


def parse_artin_body(doc: dict, where: str = "artin", check_axioms: bool = True):
    kind = doc.get("kind")
    graded = kind == "dg_algebra"
    required = {"format", "convention", "kind", "basis", "table"}
    if graded:
        required |= {"degrees", "differential"}
    _expect_keys(doc, required, set(), where)
    labels = doc["basis"]
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise SchemaError(f"{where}.basis: expected a list of labels")
    labels = tuple(labels)
    dimension_guard(len(labels))
    idx = {lab: i for i, lab in enumerate(labels)}
    if len(idx) != len(labels):
        raise SchemaError(f"{where}.basis: duplicate labels")
    table = {}
    for k, ent in enumerate(_field(doc, "table", list, where)):
        _expect_keys(ent, {"a", "b", "value"}, set(), f"{where}.table[{k}]")
        if ent["a"] not in idx or ent["b"] not in idx:
            raise SchemaError(f"{where}.table[{k}]: unknown label")
        i, j = idx[ent["a"]], idx[ent["b"]]
        if j < i:
            i, j = j, i
        vec = {}
        for tl, c in _scalar_map(ent["value"], f"{where}.table[{k}].value").items():
            if tl not in idx:
                raise SchemaError(f"{where}.table[{k}].value.{tl}: unknown label")
            vec[idx[tl]] = c
        if (i, j) in table:
            raise SchemaError(f"{where}.table[{k}]: duplicate product entry")
        table[(i, j)] = vec
    if graded:
        degrees_raw = doc["degrees"]
        if set(degrees_raw) != set(labels):
            raise SchemaError(f"{where}.degrees: must cover exactly the basis labels")
        degrees = tuple(int(degrees_raw[lab]) for lab in labels)
        diff = {}
        for lab, val in _field(doc, "differential", dict, where).items():
            if lab not in idx:
                raise SchemaError(f"{where}.differential.{lab}: unknown label")
            diff[idx[lab]] = {idx[tl]: c
                              for tl, c in _scalar_map(val, f"{where}.differential.{lab}").items()
                              if tl in idx}
        A = DgNilpotentAlgebra(labels, degrees, diff, table)
    else:
        A = ArtinLocalAlgebra(labels, table)
    if check_axioms:
        report = validate_artin(A)
        if report:
            raise AxiomViolation(f"{where}: coefficient-algebra axioms violated ({report[0]})",
                                 report)
    return A


def parse_morphism_body(doc: dict, where: str = "morphism",
                        check_axioms: bool = True) -> DglaMorphism:
    _expect_keys(doc, {"format", "convention", "kind", "source", "target", "matrix"},
                 set(), where)
    src = parse_dgla_body(doc["source"], f"{where}.source", check_axioms)
    tgt = parse_dgla_body(doc["target"], f"{where}.target", check_axioms)
    images = {}
    for lab, val in _field(doc, "matrix", dict, where).items():
        if not src.space.has_label(lab):
            raise SchemaError(f"{where}.matrix.{lab}: unknown source label")
        deg = src.space.locate(lab)[0]
        coords = {}
        for tl, c in _scalar_map(val, f"{where}.matrix.{lab}").items():
            if not tgt.space.has_label(tl):
                raise SchemaError(f"{where}.matrix.{lab}.{tl}: unknown target label")
            if tgt.space.locate(tl)[0] != deg:
                raise SchemaError(f"{where}.matrix.{lab}.{tl}: morphism must preserve degree")
            coords[tgt.space.locate(tl)] = c
        images[lab] = GradedElement(tgt.space, coords, deg)
    phi = DglaMorphism(src, tgt, map_from_basis_images(src.space, tgt.space, 0, images))
    if check_axioms:
        report = validate_morphism(phi)
        if report:
            raise AxiomViolation(f"{where}: morphism axioms violated ({report[0]})", report)
    return phi


def parse_pair_body(doc: dict, where: str = "pair",
                    check_axioms: bool = True) -> tuple[DglaMorphism, DglaMorphism]:
    _expect_keys(doc, {"format", "convention", "kind", "h", "g"}, set(), where)
    h_doc = dict(doc["h"])
    g_doc = dict(doc["g"])
    for sub in (h_doc, g_doc):
        sub.setdefault("format", FORMAT_TAG)
        sub.setdefault("convention", CONE_CONVENTION)
        sub.setdefault("kind", "morphism")
    h = parse_morphism_body(h_doc, f"{where}.h", check_axioms)
    g = parse_morphism_body(g_doc, f"{where}.g", check_axioms)
    if h.target != g.target:
        raise TargetMismatch(f"{where}: h and g have different targets")
    return h, g


def parse_extension_body(doc: dict, where: str = "small_extension",
                         check_axioms: bool = True) -> SmallExtension:
    _expect_keys(doc, {"format", "convention", "kind", "source", "target",
                       "alpha", "section", "kernel"}, set(), where)
    B = parse_artin_body(doc["source"], f"{where}.source", check_axioms)
    A = parse_artin_body(doc["target"], f"{where}.target", check_axioms)
    alpha = la.zeros(A.dim, B.dim)
    for blab, col in doc["alpha"].items():
        if blab not in B.labels:
            raise SchemaError(f"{where}.alpha.{blab}: unknown source label")
        for alab, c in _scalar_map(col, f"{where}.alpha.{blab}").items():
            if alab not in A.labels:
                raise SchemaError(f"{where}.alpha.{blab}.{alab}: unknown target label")
            alpha[A.locate(alab)][B.locate(blab)] = c
    section = la.zeros(B.dim, A.dim)
    for alab, col in doc["section"].items():
        if alab not in A.labels:
            raise SchemaError(f"{where}.section.{alab}: unknown target label")
        for blab, c in _scalar_map(col, f"{where}.section.{alab}").items():
            if blab not in B.labels:
                raise SchemaError(f"{where}.section.{alab}.{blab}: unknown source label")
            section[B.locate(blab)][A.locate(alab)] = c
    kernel = []
    for k, vec in enumerate(doc["kernel"]):
        dense = la.zero_vector(B.dim)
        for blab, c in _scalar_map(vec, f"{where}.kernel[{k}]").items():
            if blab not in B.labels:
                raise SchemaError(f"{where}.kernel[{k}].{blab}: unknown label")
            dense[B.locate(blab)] = c
        kernel.append(tuple(dense))
    try:
        return SmallExtension(B, A, alpha, section, tuple(kernel))
    except Exception as e:
        raise AxiomViolation(f"{where}: {e}", []) from None


def parse_element_body(doc: dict, where: str = "element") -> dict:
    _expect_keys(doc, {"format", "convention", "kind", "owner", "degree", "coords"},
                 set(), where)
    owner = doc["owner"]
    _expect_keys(owner, {"dgla", "coeff"}, set(), f"{where}.owner")
    coords = _scalar_map(doc["coords"], f"{where}.coords")
    degree = doc["degree"]
    if degree is not None and not isinstance(degree, int):
        raise SchemaError(f"{where}.degree: expected an integer or null")
    return {"owner": owner, "degree": degree, "coords": coords}


def parse_triple_body(doc: dict, where: str = "triple") -> dict:
    _expect_keys(doc, {"format", "convention", "kind", "owner", "x", "y", "p"},
                 set(), where)
    owner = doc["owner"]
    _expect_keys(owner, {"pair", "coeff"}, set(), f"{where}.owner")
    return {
        "owner": owner,
        "x": _scalar_map(doc["x"], f"{where}.x"),
        "y": _scalar_map(doc["y"], f"{where}.y"),
        "p": _scalar_map(doc["p"], f"{where}.p"),
    }


def parse_hpair_body(doc: dict, where: str = "hpair") -> dict:
    _expect_keys(doc, {"format", "convention", "kind", "owner", "l", "n", "degree", "m"},
                 set(), where)
    _expect_keys(doc["owner"], {"pair"}, set(), f"{where}.owner")
    _expect_keys(doc["m"], {"t", "dt"}, set(), f"{where}.m")
    t_part = {}
    for e, val in doc["m"]["t"].items():
        t_part[int(e)] = _scalar_map(val, f"{where}.m.t.{e}")
    dt_part = {}
    for e, val in doc["m"]["dt"].items():
        dt_part[int(e)] = _scalar_map(val, f"{where}.m.dt.{e}")
    return {
        "owner": doc["owner"],
        "l": _scalar_map(doc["l"], f"{where}.l"),
        "n": _scalar_map(doc["n"], f"{where}.n"),
        "degree": doc["degree"],
        "m": {"t": t_part, "dt": dt_part},
    }


PARSERS = {
    "dgla": parse_dgla_body,
    "artin": parse_artin_body,
    "dg_algebra": parse_artin_body,
    "morphism": parse_morphism_body,
    "pair": parse_pair_body,
    "small_extension": parse_extension_body,
}


def parse_document(text: str, check_axioms: bool = True):
    """Parse any document; axiom violations from validators are forwarded."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"not valid JSON: {e}") from None
    kind = _check_envelope(doc, "document")
    if kind in PARSERS:
        return PARSERS[kind](doc, kind, check_axioms)
    if kind == "element":
        return parse_element_body(doc)
    if kind == "triple":
        return parse_triple_body(doc)
    if kind == "hpair":
        return parse_hpair_body(doc)
    raise SchemaError(f"document: unknown kind {kind!r}")


def load_document(path: str, check_axioms: bool = True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read(), check_axioms)


def load_raw(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"{path}: not valid JSON: {e}") from None
    _check_envelope(doc, path)
    return doc


def resolve_tensor_element(raw: dict, tensor: TensorDgla, dgla_digest: str,
                           coeff_digest: str | None, where: str = "element") -> GradedElement:
    """Check owner digests and build the element in the tensor space."""
    owner = raw["owner"]
    if owner["dgla"] != dgla_digest:
        raise SchemaError(f"{where}: owner.dgla digest does not match the supplied DGLA")
    if owner["coeff"] != coeff_digest:
        raise SchemaError(f"{where}: owner.coeff digest does not match the coefficient algebra")
    space = tensor.space
    coords = {}
    for lab, c in raw["coords"].items():
        if not space.has_label(lab):
            raise SchemaError(f"{where}.coords.{lab}: unknown tensor label")
        coords[space.locate(lab)] = c
    return GradedElement(space, coords, raw["degree"])


def resolve_triple(raw: dict, setting, pair_digest: str, coeff_digest: str,
                   where: str) -> tuple[GradedElement, GradedElement, GradedElement]:
    """Check a triple document's kind, owner digests and labels, and build
    (x, y, p) in the tensor spaces of a pair setting."""
    if raw.get("kind") != "triple":
        raise SchemaError(f"{where}: expected a triple document, got kind {raw.get('kind')!r}")
    body = parse_triple_body(raw, where)
    if body["owner"]["pair"] != pair_digest or body["owner"]["coeff"] != coeff_digest:
        raise SchemaError(f"{where}: owner digests do not match the pair and coefficient algebra")

    def build(part: str, tensor: TensorDgla, degree: int) -> GradedElement:
        coords = {}
        for lab, c in body[part].items():
            if not tensor.space.has_label(lab):
                raise SchemaError(f"{where}.{part}.{lab}: unknown tensor label")
            coords[tensor.space.locate(lab)] = c
        return GradedElement(tensor.space, coords, degree)

    return build("x", setting.tL, 1), build("y", setting.tN, 1), build("p", setting.tM, 0)
