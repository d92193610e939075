"""Command dispatch for the mcdeform CLI.

Exit status: 0 on success, 1 on domain error (validation failures, axiom
violations, math preconditions), 2 on usage error.  With --json the report
is canonical JSON, byte-deterministic across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dgla import (
    cone_pair,
    cone_single,
    gamma_quotient_map,
    validate_dgla,
    validate_morphism,
)
from .documents import (
    canonical_json,
    digest,
    dimension_guard,
    element_coords_map,
    endpoint_violations,
    load_raw,
    parse_artin_body,
    parse_dgla_body,
    parse_extension_body,
    parse_hpair_body,
    parse_morphism_body,
    parse_pair_body,
    parse_element_body,
    parse_triple_body,
    resolve_hpair,
    resolve_tensor_element,
    resolve_triple,
    serialize_artin,
    serialize_dgla,
    serialize_element,
    serialize_extension,
    serialize_morphism,
    serialize_pair,
    serialize_triple,
    serialize_hpair,
)
from .errors import McdeformError, MissingDocument, SchemaError
from .graded import basis_element, compute_cohomology, zero_element

# artin, maurer_cartan, path_object and library are imported by the handlers
# that use them, so a cold process loads only what its command runs


def _violations_json(report) -> list:
    return [{"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
            for v in report]


def _scalars(m: dict) -> dict:
    return {k: str(v) for k, v in m.items()}


def _load(args, path: str) -> dict:
    """The document at path, read and parsed once per command; the report's
    input digests are taken from the same parsed documents."""
    if path not in args.loaded:
        args.loaded[path] = load_raw(path)
    return args.loaded[path]


def _tower_extension(step: int):
    from .artin import tower_step

    if step < 2:
        raise SchemaError("--tower must be ≥ 2 (the extension K[t]/t^m → K[t]/t^{m-1})")
    # building K[t]/t^m multiplies basis pairs of its maximal ideal, so the
    # guarded dimension is that of m ⊗ m
    dimension_guard((step - 1) ** 2)
    return tower_step(step - 1)


def _load_tensor_context(args):
    """Common --dgla/--artin resolution; returns (tensor, dgla_digest, coeff_digest)."""
    from .artin import tensor_dgla

    if not args.dgla:
        raise MissingDocument("this command needs --dgla")
    if not args.artin:
        raise MissingDocument("this command needs --artin")
    dgla_doc = _load(args, args.dgla)
    L = parse_dgla_body(dgla_doc, "dgla")
    artin_doc = _load(args, args.artin)
    A = parse_artin_body(artin_doc, artin_doc.get("kind", "artin"))
    dimension_guard(L.space.total_dim() * max(A.dim, 1))
    T = tensor_dgla(L, A)
    return T, digest(serialize_dgla(L)), digest(serialize_artin(A))


def _element_from(args, path, tensor, dgla_digest, coeff_digest, degree=None):
    raw = _load(args, path)
    if raw["kind"] != "element":
        raise SchemaError(f"{path}: expected an element document")
    elem = resolve_tensor_element(parse_element_body(raw), tensor, dgla_digest, coeff_digest,
                                  path)
    if degree is not None and not elem.is_zero():
        got = elem.homogeneous_degree()
        if got != degree:
            raise SchemaError(f"{path}: element must be homogeneous of degree {degree}")
    return elem


# --- command handlers ----------------------------------------------------------


def cmd_validate(args):
    raw = _load(args, args.document)
    kind = raw["kind"]
    if kind == "dgla":
        report = validate_dgla(parse_dgla_body(raw, "dgla", check_axioms=False))
    elif kind in ("artin", "dg_algebra"):
        from .artin import validate_artin

        report = validate_artin(parse_artin_body(raw, kind, check_axioms=False))
    elif kind == "morphism":
        phi = parse_morphism_body(raw, "morphism", check_axioms=False)
        report = endpoint_violations([("source", phi.source), ("target", phi.target)])
        report += validate_morphism(phi)
    elif kind == "pair":
        h, g = parse_pair_body(raw, "pair", check_axioms=False)
        report = endpoint_violations([("h.source", h.source), ("g.source", g.source),
                                      ("target", h.target)])
        vh = validate_morphism(h)
        report += vh + (vh if g == h else validate_morphism(g))
    elif kind == "small_extension":
        parse_extension_body(raw, "small_extension", check_axioms=True)
        report = []
    elif kind in ("element", "triple", "hpair"):
        {"element": parse_element_body, "triple": parse_triple_body,
         "hpair": parse_hpair_body}[kind](raw, kind)
        report = []
    else:
        raise SchemaError(f"unknown kind {kind!r}")
    result = {"kind": kind, "valid": not report, "violations": _violations_json(report)}
    return result, 0 if not report else 1


def cmd_cohomology(args):
    L = parse_dgla_body(_load(args, args.document), "dgla")
    H = compute_cohomology(L.complex)
    space = L.space
    dims = {str(i): H.dim(i) for i in space.degrees()}
    reps = {str(i): [element_coords_map(space, r) for r in H.representatives[i]]
            for i in space.degrees() if H.dim(i)}
    return {"window": [space.dmin, space.dmax], "dims": dims, "representatives": reps}, 0


def _cone_report(cone):
    cx = cone.complex
    H = compute_cohomology(cx)
    return {
        "convention": cone.convention,
        "window": [cx.space.dmin, cx.space.dmax],
        "dims": {str(i): cx.space.dim(i) for i in cx.space.degrees()},
        "cohomology": {str(i): H.dim(i) for i in cx.space.degrees()},
        "d_squared_zero": not cx.d_squared_witnesses(),
    }


def cmd_cone(args):
    h = parse_morphism_body(_load(args, args.document), "morphism")
    return _cone_report(cone_single(h)), 0


def cmd_pair_cone(args):
    h, g = parse_pair_body(_load(args, args.document), "pair")
    report = _cone_report(cone_pair(h, g))
    try:
        gamma_quotient_map(h, g)
        report["gamma_quotient"] = "quasi-isomorphism available (h injective)"
    except McdeformError:
        report["gamma_quotient"] = "not available (h not injective)"
    return report, 0


def cmd_tangent(args):
    from .maurer_cartan import tangent_dim_pair, tangent_dim_single

    if bool(args.dgla) == bool(args.pair):
        raise MissingDocument("tangent needs exactly one of --dgla or --pair")
    if args.dgla:
        L = parse_dgla_body(_load(args, args.dgla), "dgla")
        dim = tangent_dim_single(L, args.shift)
    else:
        h, g = parse_pair_body(_load(args, args.pair), "pair")
        dim = tangent_dim_pair(h, g, args.shift)
    return {"shift": args.shift, "dimension": dim,
            "checked": "cohomology and direct MC/gauge linear algebra agree"}, 0


def cmd_mc_residual(args):
    from .maurer_cartan import mc_residual

    T, ld, ad = _load_tensor_context(args)
    x = _element_from(args, args.element, T, ld, ad, degree=1)
    res = mc_residual(T, x)
    return {"residual": _scalars(element_coords_map(T.space, res)),
            "is_mc": res.is_zero()}, 0


def cmd_gauge_apply(args):
    from .maurer_cartan import gauge_apply

    T, ld, ad = _load_tensor_context(args)
    a = _element_from(args, args.param, T, ld, ad, degree=0)
    x = _element_from(args, args.element, T, ld, ad, degree=1)
    out = gauge_apply(T, a, x)
    return {"result": _scalars(element_coords_map(T.space, out))}, 0


def cmd_bch(args):
    from .maurer_cartan import bch_product

    T, ld, ad = _load_tensor_context(args)
    a = _element_from(args, args.a, T, ld, ad, degree=0)
    b = _element_from(args, args.b, T, ld, ad, degree=0)
    out = bch_product(T, a, b)
    return {"result": _scalars(element_coords_map(T.space, out))}, 0


def cmd_gauge_equiv(args):
    from .maurer_cartan import Equivalent, gauge_equiv_decide, mc_element

    T, ld, ad = _load_tensor_context(args)
    x = mc_element(T, _element_from(args, args.x, T, ld, ad, degree=1))
    y = mc_element(T, _element_from(args, args.y, T, ld, ad, degree=1))
    # without a cancel callback the decision is Equivalent or NotEquivalent
    res = gauge_equiv_decide(x, y)
    if isinstance(res, Equivalent):
        return {"status": "equivalent",
                "witness": _scalars(element_coords_map(T.space, res.witness))}, 0
    return {"status": "not_equivalent", "reason": res.reason}, 0


def cmd_mc_check(args):
    from .maurer_cartan import mc_pair_check, pair_setting

    if not args.pair:
        raise MissingDocument("mc-check needs --pair")
    h, g = parse_pair_body(_load(args, args.pair), "pair")
    pair_digest = digest(serialize_pair(h, g))
    if not args.artin:
        raise MissingDocument("mc-check needs --artin")
    artin_raw = _load(args, args.artin)
    A = parse_artin_body(artin_raw, artin_raw.get("kind"))
    coeff_digest = digest(serialize_artin(A))
    s = pair_setting(h, g, A)
    x, y, p = resolve_triple(_load(args, args.element), s, pair_digest, coeff_digest, args.element)
    triple, report = mc_pair_check(s, x, y, p)
    return {"verified": triple.verified, "violations": _violations_json(report)}, 0


def _obstruction_input(args):
    """The --tower extension's name, and over it the --element input of --dgla
    or --pair as (obstruct, lift, key, show): its class, its lift given the
    class, and the report key and coordinates of a lift."""
    from .artin import tensor_dgla
    from .maurer_cartan import (
        lift_if_unobstructed,
        lift_pair_if_unobstructed,
        mc_element,
        mc_triple,
        obstruction_pair,
        obstruction_single,
        pair_setting,
    )

    if bool(args.dgla) == bool(args.pair):
        raise MissingDocument("obstruction/lift need exactly one of --dgla or --pair")
    ext = _tower_extension(args.tower)
    coeff_digest = digest(serialize_artin(ext.A))
    ext_name = f"K[t]/t^{args.tower} -> K[t]/t^{args.tower - 1}"
    if args.dgla:
        L = parse_dgla_body(_load(args, args.dgla), "dgla")
        T = tensor_dgla(L, ext.A)
        x = mc_element(T, _element_from(args, args.element, T,
                                        digest(serialize_dgla(L)), coeff_digest, degree=1))
        TB = tensor_dgla(L, ext.B)
        return (ext_name, lambda: obstruction_single(ext, x, tensor_B=TB),
                lambda cls: lift_if_unobstructed(ext, x, cls, tensor_B=TB), "element",
                lambda got: _scalars(element_coords_map(TB.space, got.element)))
    h, g = parse_pair_body(_load(args, args.pair), "pair")
    s = pair_setting(h, g, ext.A)
    t = mc_triple(s, *resolve_triple(_load(args, args.element), s, digest(serialize_pair(h, g)),
                                     coeff_digest, args.element))
    sB = pair_setting(h, g, ext.B)
    return (ext_name, lambda: obstruction_pair(ext, t, setting_B=sB),
            lambda cls: lift_pair_if_unobstructed(ext, t, cls, setting_B=sB), "triple",
            lambda got: {n: _scalars(element_coords_map(T.space, e))
                         for n, T, e in (("x", sB.tL, got.x), ("y", sB.tN, got.y),
                                         ("p", sB.tM, got.p))})


def cmd_obstruction(args):
    ext_name, obstruct, _lift, _key, _show = _obstruction_input(args)
    cls = obstruct()
    return {
        "extension": ext_name,
        "class": _scalars(cls.label_map()),
        "nonzero": not cls.is_zero(),
        "space": f"H^2 ⊗ J, dim H^2 = {cls.cohomology.dim(2)}, dim J = {len(cls.kernel_labels)}",
    }, 0


def cmd_lift(args):
    from .maurer_cartan import NO_LIFT

    ext_name, obstruct, lift, key, show = _obstruction_input(args)
    cls = obstruct()
    got = lift(cls)
    if got is NO_LIFT:
        return {"extension": ext_name, "lifted": False, key: None,
                "class": _scalars(cls.label_map())}, 0
    return {"extension": ext_name, "lifted": True, key: show(got)}, 0


def cmd_h_trunc(args):
    from .path_object import TruncationWindow, truncated_H_cohomology

    if not args.pair:
        raise MissingDocument("h-trunc needs --pair")
    h, g = parse_pair_body(_load(args, args.pair), "pair")
    n_from = args.trunc
    n_to = args.trunc_to if args.trunc_to is not None else n_from + 1
    if n_to < n_from:
        raise SchemaError("--trunc-to must be ≥ --trunc")
    # window N has dimension dim L + dim N + (2N + 1)·dim M, largest at n_to
    dimension_guard((h.source.space.total_dim() + g.source.space.total_dim()
                     + h.target.space.total_dim() * (2 * n_to + 1)))
    cone = cone_pair(h, g)
    Hc = compute_cohomology(cone.complex)
    cone_dims = {str(i): Hc.dim(i) for i in cone.complex.space.degrees()}
    per_window = {}
    for N in range(n_from, n_to + 1):
        Ht = truncated_H_cohomology(h, g, TruncationWindow(N))
        per_window[str(N)] = {str(i): Ht.dim(i) for i in Ht.complex.space.degrees()}
    windows = sorted(per_window)
    stable = all(per_window[a] == per_window[b] for a, b in zip(windows, windows[1:]))
    matches = all(
        per_window[w].get(str(i), 0) == Hc.dim(i)
        for w in windows
        for i in range(cone.complex.space.dmin - 1, cone.complex.space.dmax + 2))
    return {
        "windows": per_window,
        "cone_cohomology": cone_dims,
        "matches_cone": matches,
        "stable": stable,
    }, 0


def cmd_h_embed(args):
    from .path_object import barycentric_embed, h_pair_element

    if not args.pair:
        raise MissingDocument("h-embed needs --pair")
    h, g = parse_pair_body(_load(args, args.pair), "pair")
    pair_digest = digest(serialize_pair(h, g))
    l, n, m = resolve_hpair(_load(args, args.element), h, g, pair_digest, args.element)
    L, N, M = h.source, g.source, h.target
    he = h_pair_element(h, g, l, n, m)
    k = barycentric_embed(he)

    def poly_json(p):
        return {"t": {str(e): _scalars(element_coords_map(M.space, c))
                      for e, c in sorted(p.t_part.items())},
                "dt": {str(e): _scalars(element_coords_map(M.space, c))
                       for e, c in sorted(p.dt_part.items())}}

    return {"verified": k.verified, "k_element": {
        "l": _scalars(element_coords_map(L.space, k.l)),
        "n": _scalars(element_coords_map(N.space, k.n)),
        "m1": poly_json(k.m1),
        "m2": poly_json(k.m2),
    }}, 0


def _examples() -> dict:
    """name -> (kind, build) for every built-in example: build gives the
    library object of a dgla, pair or artin example and the document of the
    others, so a command builds only the examples it names."""
    from . import library as lib

    def xt_obstructed():
        # the obstruction walk-through element: x⊗t over obstructed ⊗ m_{K[t]/t²}
        from .artin import tensor_dgla

        L, A = lib.obstructed(), lib.artin_kt(2)
        xt = tensor_dgla(L, A).element_from_labels({"x@t": 1}, 1)
        return serialize_element(xt, digest(serialize_dgla(L)), digest(serialize_artin(A)), 1)

    def triple_idid_obstructed():
        # a verified triple for the pair walk-through
        from .maurer_cartan import pair_setting

        h, g = lib.pair_idid_obstructed()
        A = lib.artin_kt(2)
        s = pair_setting(h, g, A)
        return serialize_triple(
            s.tL.element_from_labels({"x@t": 1}, 1), s.tN.element_from_labels({"x@t": 1}, 1),
            zero_element(s.tM.space, 0), digest(serialize_pair(h, g)),
            digest(serialize_artin(A)))

    def hpair_heis():
        # an H-element for h-embed: m = x·(t − t²) over the heis pair
        from .path_object import poly_t_term

        hh, gg = lib.pair_idid_heis()
        Lh = lib.heis()
        x_basis = basis_element(Lh.space, 1, 0)
        m = poly_t_term(Lh, 1, x_basis) + poly_t_term(Lh, 2, -x_basis)
        return serialize_hpair(zero_element(Lh.space, 1), zero_element(Lh.space, 1), m,
                               digest(serialize_pair(hh, gg)))

    table = {name: ("dgla", fn) for name, fn in lib.EXAMPLE_DGLAS.items()}
    table.update((name, ("pair", fn)) for name, fn in lib.EXAMPLE_PAIRS.items())
    table.update((f"artin_{name}", ("artin", fn)) for name, fn in lib.EXAMPLE_ARTIN.items())
    table.update((name, ("document", fn)) for name, fn in (
        ("ext_poly2_mod_uu", lambda: serialize_extension(lib.extension_poly2_mod_uu())),
        ("morphism_inj_acyclic", lambda: serialize_morphism(lib.pair_inj_abelian()[0])),
        ("xt_obstructed", xt_obstructed),
        ("triple_idid_obstructed", triple_idid_obstructed),
        ("hpair_heis", hpair_heis)))
    return table


def _listing(kind: str, build) -> dict:
    """The examples --list entry of one example; a document is not built."""
    if kind == "dgla":
        L = build()
        return {"kind": kind, "window": [L.space.dmin, L.space.dmax],
                "dims": {str(i): L.space.dim(i) for i in L.space.degrees()}}
    if kind == "pair":
        h, g = build()
        return {"kind": kind, "windows": {
            "L": [h.source.space.dmin, h.source.space.dmax],
            "N": [g.source.space.dmin, g.source.space.dmax],
            "M": [h.target.space.dmin, h.target.space.dmax],
        }}
    if kind == "artin":
        A = build()
        return {"kind": kind, "dim": A.dim, "nu": A.nu}
    return {"kind": kind}


def cmd_examples(args):
    table = _examples()
    if not args.write:
        return {"examples": {name: _listing(*entry) for name, entry in table.items()}}, 0
    if args.write not in table:
        raise MissingDocument(f"no built-in example named {args.write!r}; "
                              f"try one of {sorted(table)}")
    kind, build = table[args.write]
    serialize = {"dgla": serialize_dgla, "pair": lambda hg: serialize_pair(*hg),
                 "artin": serialize_artin, "document": lambda doc: doc}[kind]
    doc = serialize(build())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
        return {"written": args.out, "name": args.write, "digest": digest(doc)}, 0
    return doc, 0


# --- dispatch -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mcdeform",
        description="Deformation theory of differential graded Lie algebras, exactly.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(handler=handler)
        return sp

    sp = add("validate", cmd_validate, help="validate any document's axioms")
    sp.add_argument("document")
    sp = add("cohomology", cmd_cohomology, help="cohomology of a DGLA document")
    sp.add_argument("document")
    sp = add("cone", cmd_cone, help="suspended cone of a morphism")
    sp.add_argument("document")
    sp = add("pair-cone", cmd_pair_cone, help="suspended cone of a morphism pair")
    sp.add_argument("document")
    sp = add("tangent", cmd_tangent, help="tangent dimension of Def (single or pair)")
    sp.add_argument("--dgla")
    sp.add_argument("--pair")
    sp.add_argument("--shift", type=int, default=0)
    sp = add("mc-residual", cmd_mc_residual, help="Maurer-Cartan residual dx + ½[x,x]")
    sp.add_argument("--dgla", required=True)
    sp.add_argument("--artin", required=True)
    sp.add_argument("--element", required=True)
    sp = add("mc-check", cmd_mc_check, help="verify a Maurer-Cartan triple")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--artin", required=True)
    sp.add_argument("--element", required=True)
    sp = add("gauge-apply", cmd_gauge_apply, help="apply e^a * x")
    sp.add_argument("--dgla", required=True)
    sp.add_argument("--artin", required=True)
    sp.add_argument("--param", required=True)
    sp.add_argument("--element", required=True)
    sp = add("gauge-equiv", cmd_gauge_equiv, help="decide gauge equivalence of two MC elements")
    sp.add_argument("--dgla", required=True)
    sp.add_argument("--artin", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp = add("bch", cmd_bch, help="Baker-Campbell-Hausdorff product")
    sp.add_argument("--dgla", required=True)
    sp.add_argument("--artin", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp = add("obstruction", cmd_obstruction, help="obstruction class along a tower step")
    sp.add_argument("--dgla")
    sp.add_argument("--pair")
    sp.add_argument("--tower", type=int, required=True,
                    help="m for the extension K[t]/t^m → K[t]/t^{m−1}")
    sp.add_argument("--element", required=True)
    sp = add("lift", cmd_lift, help="constructive lift when the obstruction vanishes")
    sp.add_argument("--dgla")
    sp.add_argument("--pair")
    sp.add_argument("--tower", type=int, required=True)
    sp.add_argument("--element", required=True)
    sp = add("h-trunc", cmd_h_trunc, help="truncated-H cohomology vs the pair cone")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--trunc", type=int, required=True)
    sp.add_argument("--trunc-to", type=int, default=None)
    sp = add("h-embed", cmd_h_embed, help="barycentric embedding of an H-element into K")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--element", required=True)
    sp = add("examples", cmd_examples, help="list or write built-in examples")
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--write")
    sp.add_argument("--out")
    return p


def _print_human(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_human(val, indent + 1)
        elif isinstance(val, list):
            print(f"{pad}{key}: {json.dumps(val, sort_keys=True)}")
        else:
            print(f"{pad}{key}: {val}")


_DOC_ARGS = ("document", "dgla", "pair", "artin", "element", "param", "x", "y", "a", "b")


def _input_digests(args) -> dict[str, str]:
    out = {}
    for name in _DOC_ARGS:
        path = getattr(args, name, None)
        if not isinstance(path, str):
            continue
        try:
            out[path] = digest(_load(args, path))
        except (OSError, McdeformError):
            continue
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.loaded = {}
    try:
        result, status = args.handler(args)
    except MissingDocument as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except McdeformError as e:
        kind = type(e).__name__
        if getattr(args, "json", False):
            print(json.dumps({"error": kind, "message": str(e)}, sort_keys=True))
        else:
            print(f"error ({kind}): {e}", file=sys.stderr)
        return 1
    report = {"command": args.command, "inputs": _input_digests(args),
              "result": result, "exact": True}
    if args.json:
        sys.stdout.write(canonical_json(report))
    else:
        _print_human(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
