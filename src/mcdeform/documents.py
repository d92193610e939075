"""JSON document formats: parsing, canonical serialization, digests.

Scalars travel as decimal-free "p/q" strings.  Canonical form is
json.dumps(sort_keys=True, indent=2) plus a trailing newline; round-trips
are byte-identical.  Elements reference their owning documents by sha256
content digest so inputs from different algebras cannot be cross-wired.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Iterable, Mapping

from . import linalg as la
from .artin import (
    ArtinLocalAlgebra,
    DgNilpotentAlgebra,
    SmallExtension,
    TensorDgla,
)
from .dgla import (
    CONE_CONVENTION,
    Dgla,
    DglaMorphism,
    Violation,
    make_dgla,
    validate_dgla,
    validate_morphism,
)
from .artin import validate_artin
from .errors import (
    AxiomViolation,
    DocumentSyntaxError,
    ResourceLimitExceeded,
    SchemaError,
    TargetMismatch,
)
from .graded import ChainComplex, GradedElement, GradedSpace, map_from_images
from .path_object import PolyElement

FORMAT_TAG = "mcdeform/1"

DEFAULT_MAX_DIM = 512


def _max_dim() -> int:
    return int(os.environ.get("MCDEFORM_MAX_DIM", DEFAULT_MAX_DIM))


def dimension_guard(total: int) -> None:
    if total > _max_dim():
        raise ResourceLimitExceeded(
            f"total basis dimension {total} exceeds MCDEFORM_MAX_DIM={_max_dim()}")


def _max_digits() -> int:
    """The interpreter's int digit limit; its default, 4300, where off or absent."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def format_scalar(c: Fraction) -> str:
    c = la.frac(c)
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError:
        raise ResourceLimitExceeded(f"a result scalar has over {_max_digits()} digits") from None


_EXPONENT = re.compile(r"[eE][-+]?0*([0-9_]*)")


def parse_scalar(text, where: str) -> Fraction:
    """The scalar of a JSON int or string; a string's digits, counting those
    its exponent writes out, are bounded before any Fraction is built."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise SchemaError(f"{where}: scalar must be a 'p/q' string, got {text!r}")
    if isinstance(text, str):
        limit = _max_digits()
        exponent = _EXPONENT.search(text)
        written = exponent.group(1).replace("_", "") if exponent else ""
        if len(written) > len(str(limit)) or len(text) + int(written or 0) > limit:
            raise ResourceLimitExceeded(f"{where}: scalar has more than {limit} digits")
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


def _integer(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(f"{where}: expected an integer, got {val!r}")
    return val


def _key(space: GradedSpace, lab, where: str) -> tuple[int, int]:
    if not isinstance(lab, str) or not space.has_label(lab):
        raise SchemaError(f"{where}: unknown label {lab!r}")
    return space.locate(lab)


def _element(space: GradedSpace, coeffs: Mapping[str, Fraction], degree: int | None,
             where: str) -> GradedElement:
    """The element with these label coefficients (already parsed scalars); an
    unknown label or a term outside the declared degree is a SchemaError."""
    coords = {}
    for lab, c in coeffs.items():
        key = _key(space, lab, where)
        if degree is not None and key[0] != degree:
            raise SchemaError(f"{where}.{lab}: term in degree {key[0]}, expected {degree}")
        coords[key] = c
    return GradedElement(space, coords, degree)


def _labels(raw, where: str) -> tuple[str, ...]:
    """A basis label list; '@' is reserved, because a tensor label joins a
    factor label and a coefficient label with it."""
    if not isinstance(raw, list) or not all(isinstance(l, str) for l in raw):
        raise SchemaError(f"{where}: expected a list of labels")
    for lab in raw:
        if "@" in lab:
            raise SchemaError(f"{where}: label {lab!r} contains '@', which joins tensor labels")
    return tuple(raw)


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
    import hashlib  # loads OpenSSL, about 3.5 MiB resident: only digests need it
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _envelope(kind: str, body: dict) -> dict:
    return {"format": FORMAT_TAG, "convention": CONE_CONVENTION, "kind": kind, **body}


# --- serializers --------------------------------------------------------------


def _images(apply, source: GradedSpace, target: GradedSpace) -> dict:
    """label -> coordinates in target of apply(e), for each basis e with apply(e) ≠ 0."""
    out = {}
    for i in source.degrees():
        for p, lab in enumerate(source.labels(i)):
            img = apply(GradedElement(source, {(i, p): Fraction(1)}, i))
            if not img.is_zero():
                out[lab] = element_coords_map(target, img)
    return out


def serialize_dgla(L: Dgla) -> dict:
    space = L.space
    basis = {str(i): list(space.labels(i)) for i in space.degrees() if space.dim(i)}
    bracket = [{"a": space.label(*a), "b": space.label(*b),
                "value": element_coords_map(space, L.brackets[(a, b)])}
               for (a, b) in sorted(L.brackets)]
    return _envelope("dgla", {
        "window": [space.dmin, space.dmax],
        "basis": basis,
        "differential": _images(L.differential_of, space, space),
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
    return {
        "source": serialize_dgla(phi.source),
        "target": serialize_dgla(phi.target),
        "matrix": _images(phi.apply, phi.source.space, phi.target.space),
    }


def serialize_morphism(phi: DglaMorphism) -> dict:
    return _envelope("morphism", _morphism_body(phi))


def serialize_pair(h: DglaMorphism, g: DglaMorphism) -> dict:
    return _envelope("pair", {"h": _morphism_body(h), "g": _morphism_body(g)})


def _columns(matrix: la.Matrix, rows: tuple[str, ...], cols: tuple[str, ...]) -> dict:
    """column label -> {row label: entry} for each nonzero column."""
    out = {}
    for j, lab in enumerate(cols):
        col = {rows[r]: format_scalar(row[j]) for r, row in enumerate(matrix) if row[j] != 0}
        if col:
            out[lab] = col
    return out


def serialize_extension(ext: SmallExtension) -> dict:
    kernel = [{ext.B.labels[i]: format_scalar(c) for i, c in enumerate(vec) if c != 0}
              for vec in ext.kernel]
    return _envelope("small_extension", {
        "source": serialize_artin(ext.B),
        "target": serialize_artin(ext.A),
        "alpha": _columns(ext.alpha, ext.A.labels, ext.B.labels),
        "section": _columns(ext.section, ext.B.labels, ext.A.labels),
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


# --- axiom checks -------------------------------------------------------------


def _validate_once(D: Dgla | DglaMorphism, seen: list) -> list[Violation]:
    """validate_dgla(D) or validate_morphism(D), or [] when D equals one in
    seen, validated earlier in the same document; D joins seen.  The DGLAs
    and morphisms of one document are validated by this rule, when parsed and
    by endpoint_violations."""
    if D in seen:
        return []
    seen.append(D)
    return validate_dgla(D) if isinstance(D, Dgla) else validate_morphism(D)


def endpoint_violations(dglas: Iterable[tuple[str, Dgla]]) -> list[Violation]:
    """Violations of the (where, DGLA) endpoints of one document, each
    distinct DGLA validated once; a violation's detail names its endpoint."""
    seen: list[Dgla] = []
    return [replace(v, detail=f"{where}: {v.detail}")
            for where, D in dglas for v in _validate_once(D, seen)]


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


def parse_dgla_body(doc: dict, where: str = "dgla", check_axioms: bool = True,
                    seen: list[Dgla] | None = None) -> Dgla:
    """The DGLA of a document body; with check_axioms its axioms are
    validated unless it equals a DGLA in seen (see _validate_once)."""
    _expect_keys(doc, {"format", "convention", "kind", "window", "basis",
                       "differential", "bracket"}, set(), where)
    window = doc["window"]
    if not isinstance(window, list) or len(window) != 2:
        raise SchemaError(f"{where}.window: expected [dmin, dmax]")
    dmin, dmax = (_integer(w, f"{where}.window") for w in window)
    # every degree of the window is looped over, so its width is a dimension too
    if dmax - dmin + 1 > _max_dim():
        raise ResourceLimitExceeded(
            f"{where}.window: width {dmax - dmin + 1} exceeds MCDEFORM_MAX_DIM={_max_dim()}")
    basis_raw = doc["basis"]
    if not isinstance(basis_raw, dict):
        raise SchemaError(f"{where}.basis: expected an object degree -> [labels]")
    basis = {}
    for k, labels in basis_raw.items():
        try:
            deg = int(k)
        except ValueError:
            raise SchemaError(f"{where}.basis: bad degree key {k!r}") from None
        basis[deg] = _labels(labels, f"{where}.basis.{k}")
    try:
        space = GradedSpace(dmin, dmax, basis)
    except Exception as e:
        raise SchemaError(f"{where}: {e}") from None
    dimension_guard(space.total_dim())

    images = {}
    for lab, val in _field(doc, "differential", dict, where).items():
        key = _key(space, lab, f"{where}.differential")
        at = f"{where}.differential.{lab}"
        images[key] = _element(space, _scalar_map(val, at), key[0] + 1, at)
    cx = ChainComplex(space, map_from_images(space, space, 1, images))

    entries = {}
    for k, ent in enumerate(_field(doc, "bracket", list, where)):
        at = f"{where}.bracket[{k}]"
        _expect_keys(ent, {"a", "b", "value"}, set(), at)
        a, b = _key(space, ent["a"], at), _key(space, ent["b"], at)
        # degrees of bracket values are an axiom, reported by validate_dgla
        val = _element(space, _scalar_map(ent["value"], f"{at}.value"), None, f"{at}.value")
        if (a, b) in entries:
            raise SchemaError(f"{at}: duplicate entry for ({ent['a']}, {ent['b']})")
        entries[(a, b)] = val
    L = make_dgla(cx, [(a, b, val) for (a, b), val in entries.items()])
    if check_axioms:
        report = _validate_once(L, [] if seen is None else seen)
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
    labels = _labels(doc["basis"], f"{where}.basis")
    dimension_guard(len(labels))
    idx = {lab: i for i, lab in enumerate(labels)}
    if len(idx) != len(labels):
        raise SchemaError(f"{where}.basis: duplicate labels")
    table = {}
    for k, ent in enumerate(_field(doc, "table", list, where)):
        _expect_keys(ent, {"a", "b", "value"}, set(), f"{where}.table[{k}]")
        if not all(isinstance(ent[ab], str) and ent[ab] in idx for ab in "ab"):
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
        degrees_raw = _field(doc, "degrees", dict, where)
        if set(degrees_raw) != set(labels):
            raise SchemaError(f"{where}.degrees: must cover exactly the basis labels")
        degrees = tuple(_integer(degrees_raw[lab], f"{where}.degrees.{lab}") for lab in labels)
        diff = {}
        for lab, val in _field(doc, "differential", dict, where).items():
            if lab not in idx:
                raise SchemaError(f"{where}.differential.{lab}: unknown label")
            at = f"{where}.differential.{lab}"
            vec = {}
            for tl, c in _scalar_map(val, at).items():
                if tl not in idx:
                    raise SchemaError(f"{at}.{tl}: unknown label")
                vec[idx[tl]] = c
            diff[idx[lab]] = vec
        A = DgNilpotentAlgebra(labels, degrees, diff, table)
    else:
        A = ArtinLocalAlgebra(labels, table)
    if check_axioms:
        report = validate_artin(A)
        if report:
            raise AxiomViolation(f"{where}: coefficient-algebra axioms violated ({report[0]})",
                                 report)
    return A


def parse_morphism_body(doc: dict, where: str = "morphism", check_axioms: bool = True,
                        seen: list | None = None) -> DglaMorphism:
    _expect_keys(doc, {"format", "convention", "kind", "source", "target", "matrix"},
                 set(), where)
    seen = [] if seen is None else seen
    src = parse_dgla_body(doc["source"], f"{where}.source", check_axioms, seen)
    tgt = parse_dgla_body(doc["target"], f"{where}.target", check_axioms, seen)
    images = {}
    for lab, val in _field(doc, "matrix", dict, where).items():
        key = _key(src.space, lab, f"{where}.matrix")
        at = f"{where}.matrix.{lab}"
        images[key] = _element(tgt.space, _scalar_map(val, at), key[0], at)
    phi = DglaMorphism(src, tgt, map_from_images(src.space, tgt.space, 0, images))
    if check_axioms:
        report = _validate_once(phi, seen)
        if report:
            raise AxiomViolation(f"{where}: morphism axioms violated ({report[0]})", report)
    return phi


def parse_pair_body(doc: dict, where: str = "pair",
                    check_axioms: bool = True) -> tuple[DglaMorphism, DglaMorphism]:
    _expect_keys(doc, {"format", "convention", "kind", "h", "g"}, set(), where)
    h_doc = dict(_field(doc, "h", dict, where))
    g_doc = dict(_field(doc, "g", dict, where))
    for sub in (h_doc, g_doc):
        sub.setdefault("format", FORMAT_TAG)
        sub.setdefault("convention", CONE_CONVENTION)
        sub.setdefault("kind", "morphism")
    seen: list = []
    h = parse_morphism_body(h_doc, f"{where}.h", check_axioms, seen)
    g = parse_morphism_body(g_doc, f"{where}.g", check_axioms, seen)
    if h.target != g.target:
        raise TargetMismatch(f"{where}: h and g have different targets")
    return h, g


def parse_extension_body(doc: dict, where: str = "small_extension",
                         check_axioms: bool = True) -> SmallExtension:
    _expect_keys(doc, {"format", "convention", "kind", "source", "target",
                       "alpha", "section", "kernel"}, set(), where)
    B = parse_artin_body(_field(doc, "source", dict, where), f"{where}.source", check_axioms)
    A = parse_artin_body(_field(doc, "target", dict, where), f"{where}.target", check_axioms)
    alpha = la.zeros(A.dim, B.dim)
    for blab, col in _field(doc, "alpha", dict, where).items():
        if blab not in B.labels:
            raise SchemaError(f"{where}.alpha.{blab}: unknown source label")
        for alab, c in _scalar_map(col, f"{where}.alpha.{blab}").items():
            if alab not in A.labels:
                raise SchemaError(f"{where}.alpha.{blab}.{alab}: unknown target label")
            alpha[A.locate(alab)][B.locate(blab)] = c
    section = la.zeros(B.dim, A.dim)
    for alab, col in _field(doc, "section", dict, where).items():
        if alab not in A.labels:
            raise SchemaError(f"{where}.section.{alab}: unknown target label")
        for blab, c in _scalar_map(col, f"{where}.section.{alab}").items():
            if blab not in B.labels:
                raise SchemaError(f"{where}.section.{alab}.{blab}: unknown source label")
            section[B.locate(blab)][A.locate(alab)] = c
    kernel = []
    for k, vec in enumerate(_field(doc, "kernel", list, where)):
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
    if degree is not None:
        _integer(degree, f"{where}.degree")
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

    def part(name: str) -> dict[int, dict[str, Fraction]]:
        out = {}
        for e, val in _field(doc["m"], name, dict, f"{where}.m").items():
            if not e.isascii() or not e.isdigit():
                raise SchemaError(f"{where}.m.{name}.{e}: exponent must be a non-negative integer")
            out[int(e)] = _scalar_map(val, f"{where}.m.{name}.{e}")
        return out

    return {
        "owner": doc["owner"],
        "l": _scalar_map(doc["l"], f"{where}.l"),
        "n": _scalar_map(doc["n"], f"{where}.n"),
        "degree": _integer(doc["degree"], f"{where}.degree"),
        "m": {"t": part("t"), "dt": part("dt")},
    }


PARSERS = {
    "dgla": parse_dgla_body,
    "artin": parse_artin_body,
    "dg_algebra": parse_artin_body,
    "morphism": parse_morphism_body,
    "pair": parse_pair_body,
    "small_extension": parse_extension_body,
}


def _loads(text: str, prefix: str):
    """The JSON value of text.  Malformed JSON is a DocumentSyntaxError; an
    integer longer than the interpreter's digit limit (a ValueError) or
    nesting deeper than its recursion limit is ResourceLimitExceeded."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"{prefix}not valid JSON: {e}") from None
    except (ValueError, RecursionError) as e:
        raise ResourceLimitExceeded(f"{prefix}{e}") from None


def parse_document(text: str, check_axioms: bool = True):
    """Parse any document; axiom violations from validators are forwarded."""
    doc = _loads(text, "")
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
        doc = _loads(fh.read(), f"{path}: ")
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
    return _element(tensor.space, raw["coords"], raw["degree"], f"{where}.coords")


def resolve_triple(raw: dict, setting, pair_digest: str, coeff_digest: str,
                   where: str) -> tuple[GradedElement, GradedElement, GradedElement]:
    """Check a triple document's kind, owner digests and labels, and build
    (x, y, p) in the tensor spaces of a pair setting."""
    if raw.get("kind") != "triple":
        raise SchemaError(f"{where}: expected a triple document, got kind {raw.get('kind')!r}")
    body = parse_triple_body(raw, where)
    if body["owner"]["pair"] != pair_digest or body["owner"]["coeff"] != coeff_digest:
        raise SchemaError(f"{where}: owner digests do not match the pair and coefficient algebra")
    return (_element(setting.tL.space, body["x"], 1, f"{where}.x"),
            _element(setting.tN.space, body["y"], 1, f"{where}.y"),
            _element(setting.tM.space, body["p"], 0, f"{where}.p"))


def resolve_hpair(raw: dict, h: DglaMorphism, g: DglaMorphism, pair_digest: str,
                  where: str) -> tuple[GradedElement, GradedElement, PolyElement]:
    """Check an hpair document's kind, owner digest and labels, and build
    (l, n, m) over the pair (h, g)."""
    if raw.get("kind") != "hpair":
        raise SchemaError(f"{where}: expected an hpair document, got kind {raw.get('kind')!r}")
    body = parse_hpair_body(raw, where)
    if body["owner"]["pair"] != pair_digest:
        raise SchemaError(f"{where}: owner digest does not match the pair")
    M, deg = h.target, body["degree"]

    def coefficients(part: str, degree: int) -> dict[int, GradedElement]:
        return {e: _element(M.space, v, degree, f"{where}.m.{part}.{e}")
                for e, v in body["m"][part].items()}

    return (_element(h.source.space, body["l"], deg, f"{where}.l"),
            _element(g.source.space, body["n"], deg, f"{where}.n"),
            PolyElement(M, deg, coefficients("t", deg), coefficients("dt", deg - 1)))
