"""Command dispatch for the mcdeform CLI.

Exit status: 0 on success, 1 on domain error (validation failures, axiom
violations, math preconditions), 2 on usage error.  With --json the report
is canonical JSON, byte-deterministic across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .dgla import cone_pair, cone_single, gamma_quotient_map
from .documents import (
    ALGEBRAS,
    PARSERS,
    axiom_checks,
    canonical_json,
    digest,
    dimension_guard,
    element_coords_map,
    load_raw,
    parse_doc,
    parse_valid,
    poly_coords_map,
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
    truncation_guard,
)
from .errors import McdeformError, MissingDocument, SchemaError
from .graded import basis_element, cohomology_dims, compute_cohomology, zero_element

# artin, maurer_cartan, path_object and library are imported by the handlers
# that use them, so a cold process loads only what its command runs


def _violations_json(report) -> list:
    return [{"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
            for v in report]


def _scalars(m: dict) -> dict:
    return {k: str(v) for k, v in m.items()}


def _load(args, path: str) -> dict:
    """The JSON of the document at path, read once per command; the report's
    input digests are taken from the same documents."""
    if path not in args.loaded:
        args.loaded[path] = load_raw(path)
    return args.loaded[path]


def _read(args, path: str, *kinds: str):
    """The document at path, of one of kinds, parsed and axiom-checked."""
    return parse_valid(_load(args, path), kinds, path)


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

    L = _read(args, args.dgla, "dgla")
    A = _read(args, args.artin, *ALGEBRAS)
    dimension_guard(L.space.total_dim() * max(A.dim, 1))
    T = tensor_dgla(L, A)
    return T, digest(serialize_dgla(L)), digest(serialize_artin(A))


def _element_from(args, path, tensor, dgla_digest, coeff_digest, degree=None):
    elem = resolve_tensor_element(_read(args, path, "element"), tensor, dgla_digest,
                                  coeff_digest, path)
    if degree is not None and not elem.is_zero():
        got = elem.homogeneous_degree()
        if got != degree:
            raise SchemaError(f"{path}: element must be homogeneous of degree {degree}")
    return elem


# --- command handlers ----------------------------------------------------------


def cmd_validate(args):
    raw = _load(args, args.document)
    obj = parse_doc(raw, tuple(PARSERS), args.document, top=True)
    kind = raw["kind"]
    # every violation of every check, an endpoint's prefixed by its role, a morphism's not
    report = [replace(v, detail=f"{role}: {v.detail}") if role and what != "morphism" else v
              for role, what, found in axiom_checks(kind, obj) for v in found]
    result = {"kind": kind, "valid": not report, "violations": _violations_json(report)}
    return result, 0 if not report else 1


def cmd_cohomology(args):
    L = _read(args, args.document, "dgla")
    H = compute_cohomology(L.complex)
    space = L.space
    dims = {str(i): H.dim(i) for i in space.degrees()}
    reps = {str(i): [element_coords_map(space, r) for r in H.representatives[i]]
            for i in space.degrees() if H.dim(i)}
    return {"window": [space.dmin, space.dmax], "dims": dims, "representatives": reps}, 0


def _cone_report(cone):
    cx = cone.complex
    dims = cohomology_dims(cx)
    return {
        "convention": cone.convention,
        "window": [cx.space.dmin, cx.space.dmax],
        "dims": {str(i): cx.space.dim(i) for i in cx.space.degrees()},
        "cohomology": {str(i): d for i, d in dims.items()},
        "d_squared_zero": True,  # cohomology_dims raises DifferentialNotSquareZero otherwise
    }


def cmd_cone(args):
    h = _read(args, args.document, "morphism")
    return _cone_report(cone_single(h)), 0


def cmd_pair_cone(args):
    h, g = _read(args, args.document, "pair")
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
        L = _read(args, args.dgla, "dgla")
        dim = tangent_dim_single(L, args.shift)
    else:
        h, g = _read(args, args.pair, "pair")
        dim = tangent_dim_pair(h, g, args.shift)
    return {"shift": args.shift, "dimension": dim,
            "checked": "cohomology and direct MC/gauge linear algebra agree"}, 0


def cmd_mc_residual(args):
    from .maurer_cartan import mc_residual

    T, ld, ad = _load_tensor_context(args)
    x = _element_from(args, args.element, T, ld, ad, degree=1)
    res = mc_residual(T, x)
    return {"residual": element_coords_map(T.space, res),
            "is_mc": res.is_zero()}, 0


def cmd_gauge_apply(args):
    from .maurer_cartan import gauge_apply

    T, ld, ad = _load_tensor_context(args)
    a = _element_from(args, args.param, T, ld, ad, degree=0)
    x = _element_from(args, args.element, T, ld, ad, degree=1)
    out = gauge_apply(T, a, x)
    return {"result": element_coords_map(T.space, out)}, 0


def cmd_bch(args):
    from .maurer_cartan import bch_product

    T, ld, ad = _load_tensor_context(args)
    a = _element_from(args, args.a, T, ld, ad, degree=0)
    b = _element_from(args, args.b, T, ld, ad, degree=0)
    out = bch_product(T, a, b)
    return {"result": element_coords_map(T.space, out)}, 0


def cmd_gauge_equiv(args):
    from .maurer_cartan import Equivalent, gauge_equiv_decide, mc_element

    T, ld, ad = _load_tensor_context(args)
    x = mc_element(T, _element_from(args, args.x, T, ld, ad, degree=1))
    y = mc_element(T, _element_from(args, args.y, T, ld, ad, degree=1))
    # without a cancel callback the decision is Equivalent or NotEquivalent
    res = gauge_equiv_decide(x, y)
    if isinstance(res, Equivalent):
        return {"status": "equivalent",
                "witness": element_coords_map(T.space, res.witness)}, 0
    return {"status": "not_equivalent", "reason": res.reason}, 0


def cmd_mc_check(args):
    from .maurer_cartan import mc_pair_check, pair_setting

    h, g = _read(args, args.pair, "pair")
    pair_digest = digest(serialize_pair(h, g))
    A = _read(args, args.artin, *ALGEBRAS)
    coeff_digest = digest(serialize_artin(A))
    s = pair_setting(h, g, A)
    x, y, p = resolve_triple(_read(args, args.element, "triple"), s, pair_digest, coeff_digest,
                             args.element)
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
        L = _read(args, args.dgla, "dgla")
        T = tensor_dgla(L, ext.A)
        x = mc_element(T, _element_from(args, args.element, T,
                                        digest(serialize_dgla(L)), coeff_digest, degree=1))
        TB = tensor_dgla(L, ext.B)
        return (ext_name, lambda: obstruction_single(ext, x, tensor_B=TB),
                lambda cls: lift_if_unobstructed(ext, x, cls, tensor_B=TB), "element",
                lambda got: element_coords_map(TB.space, got.element))
    h, g = _read(args, args.pair, "pair")
    s = pair_setting(h, g, ext.A)
    t = mc_triple(s, *resolve_triple(_read(args, args.element, "triple"), s,
                                     digest(serialize_pair(h, g)), coeff_digest, args.element))
    sB = pair_setting(h, g, ext.B)
    return (ext_name, lambda: obstruction_pair(ext, t, setting_B=sB),
            lambda cls: lift_pair_if_unobstructed(ext, t, cls, setting_B=sB), "triple",
            lambda got: {n: element_coords_map(T.space, e)
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
    from .path_object import TruncationWindow, truncated_H_complex

    h, g = _read(args, args.pair, "pair")
    n_from = args.trunc
    n_to = args.trunc_to if args.trunc_to is not None else n_from + 1
    if n_to < n_from:
        raise SchemaError("--trunc-to must be ≥ --trunc")
    truncation_guard(h, g, n_to)  # the largest window
    cone = cone_pair(h, g)
    hc = cohomology_dims(cone.complex)
    per_window = {}
    for N in range(n_from, n_to + 1):
        dims = cohomology_dims(truncated_H_complex(h, g, TruncationWindow(N))[0])
        per_window[str(N)] = {str(i): d for i, d in dims.items()}
    windows = sorted(per_window)
    stable = all(per_window[a] == per_window[b] for a, b in zip(windows, windows[1:]))
    matches = all(
        per_window[w].get(str(i), 0) == hc.get(i, 0)
        for w in windows
        for i in range(cone.complex.space.dmin - 1, cone.complex.space.dmax + 2))
    return {
        "windows": per_window,
        "cone_cohomology": {str(i): d for i, d in hc.items()},
        "matches_cone": matches,
        "stable": stable,
    }, 0


def cmd_h_embed(args):
    from .path_object import barycentric_embed, h_pair_element

    h, g = _read(args, args.pair, "pair")
    pair_digest = digest(serialize_pair(h, g))
    l, n, m = resolve_hpair(_read(args, args.element, "hpair"), h, g, pair_digest, args.element)
    k = barycentric_embed(h_pair_element(h, g, l, n, m))
    return {"verified": k.verified, "k_element": {
        "l": element_coords_map(h.source.space, k.l),
        "n": element_coords_map(g.source.space, k.n),
        "m1": poly_coords_map(k.m1),
        "m2": poly_coords_map(k.m2),
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
    """Run one command; a reader that closes stdout early (`mcdeform … | head`)
    ends it with exit status 1 and no traceback."""
    try:
        status = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout to devnull: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(argv) -> int:
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
