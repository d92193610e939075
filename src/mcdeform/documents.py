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
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from . import linalg as la
from .dgla import (
    CONE_CONVENTION,
    Dgla,
    DglaMorphism,
    Violation,
    make_dgla,
    validate_dgla,
    validate_morphism,
)
from .errors import (
    AxiomViolation,
    DocumentSyntaxError,
    InvalidInput,
    ResourceLimitExceeded,
    SchemaError,
    TargetMismatch,
)
from .graded import ChainComplex, GradedElement, GradedMap, GradedSpace, map_from_images

if TYPE_CHECKING:  # artin and path_object load only for the documents that use them
    from .artin import CoefficientAlgebra, SmallExtension, TensorDgla
    from .path_object import PolyElement

FORMAT_TAG = "mcdeform/1"

DEFAULT_MAX_DIM = 512


def _max_dim() -> int:
    raw = os.environ.get("MCDEFORM_MAX_DIM", DEFAULT_MAX_DIM)
    try:
        return int(raw)
    except ValueError:
        raise InvalidInput(f"MCDEFORM_MAX_DIM={raw!r} is not an integer") from None


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


def _label_vector(raw, idx: Mapping[str, int], where: str,
                  unknown: str = "unknown label") -> dict[int, Fraction]:
    """A label -> scalar object as an index -> scalar vector, each label
    looked up in idx."""
    vec = {}
    for lab, c in _scalar_map(raw, where).items():
        if lab not in idx:
            raise SchemaError(f"{where}.{lab}: {unknown}")
        vec[idx[lab]] = c
    return vec


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


def _vector(vec: dict, labels: tuple[str, ...]) -> dict:
    return {labels[i]: format_scalar(c) for i, c in sorted(vec.items())}


def _images(f: GradedMap) -> dict:
    """label -> coordinates in f's target of f(e), for each basis e with f(e) ≠ 0,
    read off f's columns."""
    return {f.source.label(i, q): _vector(col, f.target.labels(i + f.degree))
            for i, cs in f.cols.items() for q, col in cs.items()}


def serialize_dgla(L: Dgla) -> dict:
    space = L.space
    basis = {str(i): list(space.labels(i)) for i in space.degrees() if space.dim(i)}
    bracket = [{"a": space.label(*a), "b": space.label(*b),
                "value": element_coords_map(space, L.brackets[(a, b)])}
               for (a, b) in sorted(L.brackets)]
    return _envelope("dgla", {
        "window": [space.dmin, space.dmax],
        "basis": basis,
        "differential": _images(L.d),
        "bracket": bracket,
    })


def serialize_artin(A: CoefficientAlgebra) -> dict:
    body = {"basis": list(A.labels)}
    table = []
    for (i, j) in sorted(A.table):
        table.append({
            "a": A.labels[i],
            "b": A.labels[j],
            "value": _vector(A.table[(i, j)], A.labels),
        })
    body["table"] = table
    if A.degrees is None:
        return _envelope("artin", body)
    body["degrees"] = {lab: A.degrees[i] for i, lab in enumerate(A.labels)}
    body["differential"] = {A.labels[i]: _vector(vec, A.labels) for i, vec in sorted(A.diff.items())}
    return _envelope("dg_algebra", body)


def _morphism_body(phi: DglaMorphism) -> dict:
    return {
        "source": serialize_dgla(phi.source),
        "target": serialize_dgla(phi.target),
        "matrix": _images(phi.map),
    }


def serialize_morphism(phi: DglaMorphism) -> dict:
    return _envelope("morphism", _morphism_body(phi))


def serialize_pair(h: DglaMorphism, g: DglaMorphism) -> dict:
    return _envelope("pair", {"h": _morphism_body(h), "g": _morphism_body(g)})


def serialize_extension(ext: SmallExtension) -> dict:
    return _envelope("small_extension", {
        "source": serialize_artin(ext.B),
        "target": serialize_artin(ext.A),
        "alpha": {ext.B.labels[j]: _vector(col, ext.A.labels) for j, col in ext.alpha.items()},
        "section": {ext.A.labels[j]: _vector(col, ext.B.labels) for j, col in ext.section.items()},
        "kernel": [_vector(vec, ext.B.labels) for vec in ext.kernel],
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


def poly_coords_map(m) -> dict:
    """The t- and dt-parts of a PolyElement: exponent -> element_coords_map."""
    return {part: {str(e): element_coords_map(c.space, c) for e, c in sorted(coeffs.items())}
            for part, coeffs in (("t", m.t_part), ("dt", m.dt_part))}


def serialize_hpair(l: GradedElement, n: GradedElement, m, owner_pair: str) -> dict:
    return _envelope("hpair", {
        "owner": {"pair": owner_pair},
        "l": element_coords_map(l.space, l),
        "n": element_coords_map(n.space, n),
        "degree": m.degree,
        "m": poly_coords_map(m),
    })


# --- parsers ------------------------------------------------------------------
#
# A body parser reads the fields of one kind, its envelope already checked and
# removed by parse_doc, and checks no axiom: see axiom_checks.


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


def parse_dgla_body(doc: dict, where: str = "dgla") -> Dgla:
    _expect_keys(doc, {"window", "basis", "differential", "bracket"}, set(), where)
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
            deg = None
        if deg is None or str(deg) != k:  # "01", "+1" or " 1" would repeat degree 1
            raise SchemaError(f"{where}.basis: bad degree key {k!r}")
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
    return make_dgla(cx, [(a, b, val) for (a, b), val in entries.items()])


def parse_artin_body(doc: dict, where: str = "artin", graded: bool = False):
    """The algebra of an artin body, or with graded of a dg_algebra body."""
    from .artin import CoefficientAlgebra

    required = {"basis", "table"} | ({"degrees", "differential"} if graded else set())
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
        vec = _label_vector(ent["value"], idx, f"{where}.table[{k}].value")
        if (i, j) in table:
            raise SchemaError(f"{where}.table[{k}]: duplicate product entry")
        table[(i, j)] = vec
    degrees, diff = None, {}
    if graded:
        degrees_raw = _field(doc, "degrees", dict, where)
        if set(degrees_raw) != set(labels):
            raise SchemaError(f"{where}.degrees: must cover exactly the basis labels")
        degrees = tuple(_integer(degrees_raw[lab], f"{where}.degrees.{lab}") for lab in labels)
        for lab, val in _field(doc, "differential", dict, where).items():
            if lab not in idx:
                raise SchemaError(f"{where}.differential.{lab}: unknown label")
            diff[idx[lab]] = _label_vector(val, idx, f"{where}.differential.{lab}")
    return CoefficientAlgebra(labels, table, degrees, diff)


def parse_morphism_body(doc: dict, where: str = "morphism") -> DglaMorphism:
    """The morphism of a morphism body, also the bare h and g of a pair."""
    _expect_keys(doc, {"source", "target", "matrix"}, set(), where)
    src = parse_doc(doc["source"], ("dgla",), f"{where}.source")
    tgt = parse_doc(doc["target"], ("dgla",), f"{where}.target")
    images = {}
    for lab, val in _field(doc, "matrix", dict, where).items():
        key = _key(src.space, lab, f"{where}.matrix")
        at = f"{where}.matrix.{lab}"
        images[key] = _element(tgt.space, _scalar_map(val, at), key[0], at)
    return DglaMorphism(src, tgt, map_from_images(src.space, tgt.space, 0, images))


def parse_pair_body(doc: dict, where: str = "pair") -> tuple[DglaMorphism, DglaMorphism]:
    _expect_keys(doc, {"h", "g"}, set(), where)
    h = parse_morphism_body(doc["h"], f"{where}.h")
    g = parse_morphism_body(doc["g"], f"{where}.g")
    if h.target != g.target:
        raise TargetMismatch(f"{where}: h and g have different targets")
    return h, g


def parse_extension_body(doc: dict, where: str = "small_extension") -> SmallExtension:
    from .artin import SmallExtension

    _expect_keys(doc, {"source", "target", "alpha", "section", "kernel"}, set(), where)
    B = parse_doc(doc["source"], ALGEBRAS, f"{where}.source")
    A = parse_doc(doc["target"], ALGEBRAS, f"{where}.target")
    idx = {"source": {lab: i for i, lab in enumerate(B.labels)},
           "target": {lab: i for i, lab in enumerate(A.labels)}}

    def columns(key: str, cols: str, rows: str) -> dict:
        """The sparse columns doc[key] gives, column label -> {row label: scalar}."""
        out = {}
        for lab, col in _field(doc, key, dict, where).items():
            if lab not in idx[cols]:
                raise SchemaError(f"{where}.{key}.{lab}: unknown {cols} label")
            out[idx[cols][lab]] = _label_vector(col, idx[rows], f"{where}.{key}.{lab}",
                                                f"unknown {rows} label")
        return out

    alpha, section = columns("alpha", "source", "target"), columns("section", "target", "source")
    kernel = [_label_vector(vec, idx["source"], f"{where}.kernel[{k}]")
              for k, vec in enumerate(_field(doc, "kernel", list, where))]
    try:
        return SmallExtension(B, A, alpha, section, tuple(kernel))
    except InvalidInput as e:
        raise AxiomViolation(f"{where}: {e}", []) from None


def parse_element_body(doc: dict, where: str = "element") -> dict:
    _expect_keys(doc, {"owner", "degree", "coords"}, set(), where)
    owner = doc["owner"]
    _expect_keys(owner, {"dgla", "coeff"}, set(), f"{where}.owner")
    coords = _scalar_map(doc["coords"], f"{where}.coords")
    degree = doc["degree"]
    if degree is not None:
        _integer(degree, f"{where}.degree")
    return {"owner": owner, "degree": degree, "coords": coords}


def parse_triple_body(doc: dict, where: str = "triple") -> dict:
    _expect_keys(doc, {"owner", "x", "y", "p"}, set(), where)
    owner = doc["owner"]
    _expect_keys(owner, {"pair", "coeff"}, set(), f"{where}.owner")
    return {
        "owner": owner,
        "x": _scalar_map(doc["x"], f"{where}.x"),
        "y": _scalar_map(doc["y"], f"{where}.y"),
        "p": _scalar_map(doc["p"], f"{where}.p"),
    }


def parse_hpair_body(doc: dict, where: str = "hpair") -> dict:
    _expect_keys(doc, {"owner", "l", "n", "degree", "m"}, set(), where)
    _expect_keys(doc["owner"], {"pair"}, set(), f"{where}.owner")
    _expect_keys(doc["m"], {"t", "dt"}, set(), f"{where}.m")

    def part(name: str) -> dict[int, dict[str, Fraction]]:
        out = {}
        for e, val in _field(doc["m"], name, dict, f"{where}.m").items():
            if not e.isascii() or not e.isdigit():
                raise SchemaError(f"{where}.m.{name}.{e}: exponent must be a non-negative integer")
            if len(e) > _max_digits():  # its size is guarded by resolve_hpair
                raise ResourceLimitExceeded(
                    f"{where}.m.{name}: exponent has more than {_max_digits()} digits")
            if int(e) in out:
                raise SchemaError(f"{where}.m.{name}.{e}: exponent {int(e)} given twice")
            out[int(e)] = _scalar_map(val, f"{where}.m.{name}.{e}")
        return out

    return {
        "owner": doc["owner"],
        "l": _scalar_map(doc["l"], f"{where}.l"),
        "n": _scalar_map(doc["n"], f"{where}.n"),
        "degree": _integer(doc["degree"], f"{where}.degree"),
        "m": {"t": part("t"), "dt": part("dt")},
    }


ALGEBRAS = ("artin", "dg_algebra")

PARSERS = {
    "dgla": parse_dgla_body,
    "artin": parse_artin_body,
    "dg_algebra": lambda doc, where: parse_artin_body(doc, where, graded=True),
    "morphism": parse_morphism_body,
    "pair": parse_pair_body,
    "small_extension": parse_extension_body,
    "element": parse_element_body,
    "triple": parse_triple_body,
    "hpair": parse_hpair_body,
}


def parse_doc(doc: dict, kinds: Iterable[str], where: str, top: bool = False):
    """The parsed document doc, whose kind must be one of kinds: a library
    object, or for an element, triple or hpair its parsed fields.  Envelope
    and kind are checked under where; the fields are parsed under where, or
    under the kind of a top-level document (top).  Every document and nested
    document is read here; no axiom is checked (see axiom_checks)."""
    kind = _check_envelope(doc, where)
    if kind not in kinds:
        raise SchemaError(f"{where}: expected a {' or '.join(kinds)} document, got kind {kind!r}")
    body = {k: v for k, v in doc.items() if k not in ("format", "convention", "kind")}
    return PARSERS[kind](body, kind if top else where)


# --- axiom checks -------------------------------------------------------------


def _validated(x) -> tuple[str, list[Violation]]:
    if isinstance(x, Dgla):
        return "DGLA", validate_dgla(x)
    if isinstance(x, DglaMorphism):
        return "morphism", validate_morphism(x)
    from .artin import validate_artin  # loaded only for the documents that hold algebras

    return "coefficient-algebra", validate_artin(x)


def axiom_checks(kind: str, obj) -> Iterator[tuple[str, str, list[Violation]]]:
    """The axiom checks of a parsed document of this kind, as (role, what,
    violations), endpoints first: a pair's h.source, g.source, target, h and
    g; a morphism's source, target and itself; an extension's source and
    target; a DGLA or an algebra itself.  The role of the document itself is
    "".  Each distinct object is validated once, when first reached: a DGLA
    or algebra is listed under its first role only, a morphism under every
    role it has.  Element, triple and hpair fields are checked when resolved
    against their owners."""
    if kind == "pair":
        h, g = obj
        roles = [("h.source", h.source), ("g.source", g.source), ("target", h.target),
                 ("h", h), ("g", g)]
    elif kind == "morphism":
        roles = [("source", obj.source), ("target", obj.target), ("", obj)]
    elif kind == "small_extension":
        roles = [("source", obj.B), ("target", obj.A)]
    else:
        roles = [] if isinstance(obj, dict) else [("", obj)]
    checked: list[tuple[object, str, list[Violation]]] = []
    for role, x in roles:
        entry = next((c for c in checked if c[0] == x), None)
        if entry is None:
            entry = (x, *_validated(x))
            checked.append(entry)
        elif not isinstance(x, DglaMorphism):
            continue
        yield role, entry[1], entry[2]


def parse_valid(doc: dict, kinds: Iterable[str], where: str):
    """parse_doc of a top-level document, which must pass every check of
    axiom_checks: the first that fails raises AxiomViolation, named by the
    kind and the role."""
    obj = parse_doc(doc, kinds, where, top=True)
    for role, what, report in axiom_checks(doc["kind"], obj):
        if report:
            at = f"{doc['kind']}.{role}" if role else doc["kind"]
            raise AxiomViolation(f"{at}: {what} axioms violated ({report[0]})", report)
    return obj


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key it repeats is a SchemaError, not the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, n in Counter(k for k, _v in pairs).items() if n > 1)
        raise SchemaError(f"repeated key {key!r} in one JSON object")
    return obj


def _loads(text: str, prefix: str):
    """The JSON value of text.  Malformed JSON is a DocumentSyntaxError, a key repeated
    in one object a SchemaError; an integer longer than the interpreter's digit limit
    (a ValueError) or nesting deeper than its recursion limit is ResourceLimitExceeded."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"{prefix}not valid JSON: {e}") from None
    except (ValueError, RecursionError) as e:
        raise ResourceLimitExceeded(f"{prefix}{e}") from None


def parse_document(text: str):
    """The parsed document of any kind in text, its axioms checked (see
    parse_valid)."""
    return parse_valid(_loads(text, ""), tuple(PARSERS), "document")


def load_document(path: str):
    return parse_valid(load_raw(path), tuple(PARSERS), "document")


def load_raw(path: str):
    """The JSON value of the document at path, not yet read by parse_doc; bytes
    that are not UTF-8 are a DocumentSyntaxError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DocumentSyntaxError(f"{path}: not UTF-8: {e}") from None
    return _loads(text, f"{path}: ")


def truncation_guard(h: DglaMorphism, g: DglaMorphism, N: int) -> None:
    """dimension_guard of the truncation window N of the pair (h, g):
    dim L + dim N + (2N + 1)·max(dim M, 1), which bounds N even when M = 0
    (K[t,dt]_N is built whatever M is)."""
    dimension_guard(h.source.space.total_dim() + g.source.space.total_dim()
                    + max(h.target.space.total_dim(), 1) * (2 * N + 1))


def tensor_guard(A: CoefficientAlgebra, *dglas: Dgla) -> None:
    """dimension_guard of the tensor L ⊗ m_A of each L in dglas:
    dim L · max(dim m_A, 1)."""
    for L in dglas:
        dimension_guard(L.space.total_dim() * max(A.dim, 1))


def resolve_tensor_element(body: dict, tensor: TensorDgla, dgla_digest: str,
                           coeff_digest: str | None, where: str = "element") -> GradedElement:
    """Check a parsed element's owner digests and build it in the tensor space."""
    owner = body["owner"]
    if owner["dgla"] != dgla_digest:
        raise SchemaError(f"{where}: owner.dgla digest does not match the supplied DGLA")
    if owner["coeff"] != coeff_digest:
        raise SchemaError(f"{where}: owner.coeff digest does not match the coefficient algebra")
    return _element(tensor.space, body["coords"], body["degree"], f"{where}.coords")


def resolve_triple(body: dict, setting, pair_digest: str, coeff_digest: str,
                   where: str) -> tuple[GradedElement, GradedElement, GradedElement]:
    """Check a parsed triple's owner digests and labels, and build (x, y, p)
    in the tensor spaces of a pair setting."""
    if body["owner"]["pair"] != pair_digest or body["owner"]["coeff"] != coeff_digest:
        raise SchemaError(f"{where}: owner digests do not match the pair and coefficient algebra")
    return (_element(setting.tL.space, body["x"], 1, f"{where}.x"),
            _element(setting.tN.space, body["y"], 1, f"{where}.y"),
            _element(setting.tM.space, body["p"], 0, f"{where}.p"))


def resolve_hpair(body: dict, h: DglaMorphism, g: DglaMorphism, pair_digest: str,
                  where: str) -> tuple[GradedElement, GradedElement, PolyElement]:
    """Check a parsed hpair's owner digest and labels, and build (l, n, m)
    over the pair (h, g); m, with its t-exponents up to N and its
    dt-exponents up to N − 1, lies in the truncation window N, which is
    guarded."""
    if body["owner"]["pair"] != pair_digest:
        raise SchemaError(f"{where}: owner digest does not match the pair")
    m = body["m"]
    truncation_guard(h, g, max([*m["t"], *(e + 1 for e in m["dt"])], default=0))
    from .path_object import PolyElement

    M, deg = h.target, body["degree"]

    def coefficients(part: str, degree: int) -> dict[int, GradedElement]:
        return {e: _element(M.space, v, degree, f"{where}.m.{part}.{e}")
                for e, v in m[part].items()}

    return (_element(h.source.space, body["l"], deg, f"{where}.l"),
            _element(g.source.space, body["n"], deg, f"{where}.n"),
            PolyElement(M, deg, coefficients("t", deg), coefficients("dt", deg - 1)))
