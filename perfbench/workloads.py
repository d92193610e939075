"""The three workloads: their inputs, op cycles and oracles.

Each workload's `setup(seed)` builds the inputs and returns the *cycle*: a
fixed list of ops that the closed loop runs over and over, one op at a time.
An op is an id, a call that returns the result, and an independent check of
that result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import inputs
import oracles as O
from mcdeform import dgla as dg
from mcdeform import documents as docs
from mcdeform import graded
from mcdeform import maurer_cartan as mc
from mcdeform import path_object as po


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    fingerprint: Callable[[object], str] = repr


class Workload:
    name = ""
    children_sample = False     # True: ops run in children that sample host speed

    def setup(self, seed: int, scale: str = "full") -> list[Op]:
        raise NotImplementedError

    def manifest(self, seed: int) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup created (files, directories)."""


def _elem_fp(x) -> str:
    return repr(sorted((str(k), str(v)) for k, v in O.from_element(x).items()))


def _cohomology_fp(H) -> str:
    reps = {d: [sorted((str(k), str(c)) for k, c in r.coords.items()) for r in rs]
            for d, rs in sorted(H.representatives.items())}
    return repr((sorted(H.dims.items()), reps))


def end_matrices(L, seed: int) -> O.EndMatrices:
    """Matrix oracle for the series workload's End(V_1), signs undone."""
    signs = inputs.basis_signs(L.space, seed, "end1")
    return O.EndMatrices({L.space.label(*k): s for k, s in signs.items()},
                         ("u0", "w", "v0", "z"))


# --- api_cohomology -------------------------------------------------------------


class ApiCohomology(Workload):
    name = "api_cohomology"

    # (op kind, k, copies per cycle of the sparse variant, of the dense variant)
    FULL = (("coh", 1, 2, 2), ("coh", 2, 1, 1), ("tangent", 1, 1, 1), ("cone", 1, 1, 1),
            ("trunc1", 1, 1, 1), ("trunc2", 1, 2, 1))
    TINY = (("coh", 1, 1, 1), ("cone", 1, 1, 1), ("tangent", 1, 1, 1), ("trunc1", 1, 1, 1))

    def setup(self, seed, scale="full"):
        plan = self.FULL if scale == "full" else self.TINY
        dglas = {(k, dense): inputs.end_dgla(k, seed, dense)
                 for k in {entry[1] for entry in plan} for dense in (False, True)}
        # warm-up: one cheap call, outside the timed phase
        graded.compute_cohomology(dglas[(1, False)].complex)
        ops = []
        for kind, k, *copies in plan:
            for dense, n in zip((False, True), copies):
                op_id = f"{kind}:End(V{k}):{'dense' if dense else 'sparse'}"
                ops.extend([self._op(kind, op_id, dglas[(k, dense)])] * n)
        return ops

    def _op(self, kind, op_id, L):
        h, g = inputs.idid(L)

        def dims_ok(H):
            return (O.nonzero_dims(H.dims) == O.KUNNETH and O.representatives_are_cycles(H))

        if kind == "coh":
            return Op(op_id, lambda: graded.compute_cohomology(L.complex), dims_ok,
                      _cohomology_fp)
        if kind == "cone":
            return Op(op_id, lambda: graded.compute_cohomology(dg.cone_pair(h, g).complex),
                      dims_ok, _cohomology_fp)
        if kind == "tangent":
            # tangent_dim_pair raises unless its two routes agree
            return Op(op_id, lambda: mc.tangent_dim_pair(h, g), lambda r: r == O.KUNNETH[1])
        N = int(kind[-1])
        # truncated-H dims must equal the cone's, which are Kunneth's
        return Op(op_id, lambda: po.truncated_H_cohomology(h, g, po.TruncationWindow(N)),
                  lambda H: O.nonzero_dims(H.dims) == O.KUNNETH, _cohomology_fp)

    def manifest(self, seed):
        out = {}
        for k in (1, 2):
            for dense in (False, True):
                out[f"End(V{k}):{'dense' if dense else 'sparse'}"] = inputs.dgla_profile(
                    inputs.end_dgla(k, seed, dense))
        return {"inputs": out, "truncation_N": [1, 2]}


# --- api_series -------------------------------------------------------------------


class ApiSeries(Workload):
    name = "api_series"

    # op kind -> truncation orders n, repeated for copies per cycle.  The
    # heaviest BCH products run three times: BCH is a minority of the ops
    # and most of the time, and sets the 90th percentile.
    FULL = {
        "gauge": (3, 4, 5, 6), "residual": (3, 4, 5, 6), "equiv": (3, 4, 5, 6),
        "obstruction_lift": (3, 4, 5, 6), "pair_gauge": (3, 4),
        "pair_obstruction_lift": (3, 4, 5, 6),
        "bch:nilp3": (3, 4, 5, 6, 6, 6), "bch:end1": (3, 4, 5, 5, 5),
    }
    TINY = {"gauge": (3,), "residual": (3,), "equiv": (3,), "obstruction_lift": (3,),
            "pair_gauge": (3,), "pair_obstruction_lift": (3,), "bch:nilp3": (3,),
            "bch:end1": (3,)}
    EQUIV_BUDGET = 2000

    def setup(self, seed, scale="full"):
        plan = self.FULL if scale == "full" else self.TINY
        ns = sorted({n for orders in plan.values() for n in orders})
        cases = {}
        for n in ns:
            for name in inputs.SERIES_ALGEBRAS:
                case = inputs.series_case(name, n, seed)
                if name == "end1":
                    ext = case["ext"]
                    case["T_B"] = mc.tensor_dgla(case["L"], ext.B)
                    case["setting_B"] = mc.pair_setting(*inputs.idid(case["L"]), ext.B)
                    case["x_mc"] = mc.mc_element(case["T"], case["x"])
                    case["y_mc"] = mc.mc_element(
                        case["T"], mc.gauge_apply(case["T"], case["b"], case["x"]))
                case["oracle"] = O.SeriesOracle(case["L"])
                cases[(name, n)] = case
        self.end_matrices = end_matrices(cases[("end1", ns[0])]["L"], seed)
        ops = []
        for kind, orders in plan.items():
            for n in orders:
                algebra = kind.split(":")[1] if ":" in kind else "end1"
                ops.append(self._op(kind, n, cases[(algebra, n)]))
        return ops

    def _op(self, kind, n, c):
        T, o = c["T"], c["oracle"]
        op_id = f"{kind}:n={n}" if ":" in kind else f"{kind}:end1:n={n}"
        el = O.from_element
        if kind.startswith("bch"):
            a, b = el(c["a"]), el(c["b"])
            if c["name"] == "nilp3":
                check = lambda z: el(z) == o.bch_class3(a, b, n)  # noqa: E731
            else:
                em = self.end_matrices
                check = lambda z: em.matrix(el(z), n) == em.bch([a, b], n)  # noqa: E731
            return Op(op_id, lambda: mc.bch_product(T, c["a"], c["b"]), check, _elem_fp)
        x = el(c["x"])
        if kind == "gauge":
            a = el(c["a"])
            return Op(op_id, lambda: mc.gauge_apply(T, c["a"], c["x"]),
                      lambda y: el(y) == o.gauge(a, x, n) and not o.residual(el(y), n),
                      _elem_fp)
        if kind == "residual":
            return Op(op_id, lambda: mc.mc_residual(T, c["x"]),
                      lambda r: not el(r) and not o.residual(x, n), _elem_fp)
        if kind == "equiv":
            y = el(c["y_mc"].element)

            def check(res):
                return isinstance(res, mc.Equivalent) and o.gauge(el(res.witness), x, n) == y
            return Op(op_id, lambda: mc.gauge_equiv_decide(c["x_mc"], c["y_mc"],
                                                           budget=self.EQUIV_BUDGET),
                      check, lambda r: f"{type(r).__name__}:{_elem_fp(r.witness)}"
                      if isinstance(r, mc.Equivalent) else repr(r))
        ext, T_B = c["ext"], c["T_B"]
        if kind == "obstruction_lift":
            def run():
                cls = mc.obstruction_single(ext, c["x_mc"], tensor_B=T_B)
                return cls, mc.lift_if_unobstructed(ext, c["x_mc"], cls, tensor_B=T_B)

            def check(res):
                cls, lift = res
                if not cls.is_zero() or lift is mc.NO_LIFT:
                    return False
                xb = el(lift.element)
                return not o.residual(xb, n + 1) and O.truncate(xb, n) == x
            return Op(op_id, run, check,
                      lambda r: repr((r[0].coords, _elem_fp(r[1].element)
                                      if r[1] is not mc.NO_LIFT else "NoLift")))
        t = c["triple"]
        tx, ty, tp = el(t.x), el(t.y), el(t.p)
        if kind == "pair_gauge":
            pa, pb = el(c["pa"]), el(c["pb"])
            em = self.end_matrices

            def check(t2):
                x2, y2, p2 = el(t2.x), el(t2.y), el(t2.p)
                # (id, id): x2 = e^pa x, y2 = e^pb y, e^p2 = e^pb e^p e^-pa
                return (t2.verified and x2 == o.gauge(pa, tx, n) and y2 == o.gauge(pb, ty, n)
                        and y2 == o.gauge(p2, x2, n)
                        and em.matrix(p2, n) == em.bch([pb, tp, O.combine((-1, pa))], n))
            return Op(op_id, lambda: mc.gauge_apply_pair(c["pa"], c["pb"], t), check,
                      lambda r: repr((_elem_fp(r.x), _elem_fp(r.y), _elem_fp(r.p))))
        sB = c["setting_B"]

        def run_pair():
            cls = mc.obstruction_pair(ext, t, setting_B=sB)
            return cls, mc.lift_pair_if_unobstructed(ext, t, cls, setting_B=sB)

        def check_pair(res):
            cls, lift = res
            if not cls.is_zero() or lift is mc.NO_LIFT:
                return False
            xb, yb, pb_ = el(lift.x), el(lift.y), el(lift.p)
            return (not o.residual(xb, n + 1) and not o.residual(yb, n + 1)
                    and yb == o.gauge(pb_, xb, n + 1)
                    and (O.truncate(xb, n), O.truncate(yb, n), O.truncate(pb_, n)) == (tx, ty, tp))
        return Op(op_id, run_pair, check_pair,
                  lambda r: repr((r[0].coords, "NoLift" if r[1] is mc.NO_LIFT else
                                  (_elem_fp(r[1].x), _elem_fp(r[1].y), _elem_fp(r[1].p)))))

    def manifest(self, seed):
        out = {}
        for name in inputs.SERIES_ALGEBRAS:
            prof = inputs.dgla_profile(inputs.series_dgla(name, seed))
            case = inputs.series_case(name, 6, seed)
            prof["tensor_dims_by_n"] = {
                str(n): inputs.series_case(name, n, seed)["T"].space.total_dim()
                for n in (3, 4, 5, 6)}
            prof["element_max_coeff_bits"] = inputs.max_bits(
                c for key in ("a", "b", "x", "pa", "pb") if key in case
                for c in case[key].coords.values())
            out[name] = prof
        return {"inputs": out, "equiv_budget": self.EQUIV_BUDGET,
                "coefficient_algebras": "K[t]/t^n, n = 3..6 (nu = n)"}


# --- cli_cold --------------------------------------------------------------------------


class CliCold(Workload):
    name = "cli_cold"
    children_sample = True

    TOWER_N = 4     # tensor documents live over K[t]/t^4; --tower 5 lifts to t^5
    TINY = ("examples --list", "validate End(V1)", "cohomology End(V1)", "bch nilp3",
            "obstruction end1")

    def __init__(self, root: str):
        self.root = root
        self.workdir = None
        self.trace_dir = None      # set by the runner for the traced pass
        self.launches = 0
        self.child_sample = None   # last child's (mean unit time, seconds spent sampling)

    def _launch(self, argv) -> tuple[int, bytes]:
        cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py")]
        if self.trace_dir is not None:
            self.launches += 1
            cmd.append(os.path.join(self.trace_dir, f"span{self.launches:05d}.json"))
        else:
            cmd.append("-")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run(cmd + list(argv), env=env, cwd=self.root,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        last = proc.stderr.splitlines()[-1:]
        fields = last[0].split() if last else []
        self.child_sample = (tuple(float(f) for f in fields[1:3])
                             if len(fields) == 3 and fields[0] == b"hostspeed" else None)
        return proc.returncode, proc.stdout

    def _write(self, name, doc) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(docs.canonical_json(doc))
        return os.path.relpath(path, self.root)

    def setup(self, seed, scale="full"):
        self.close()
        self.workdir = os.path.join(self.root, ".perfbench_work", f"cli-{os.getpid()}")
        os.makedirs(self.workdir)
        n = self.TOWER_N
        end1 = inputs.end_dgla(1, seed, False)
        paths = {"end1": self._write("end1", docs.serialize_dgla(end1)),
                 "pair1": self._write("pair1", docs.serialize_pair(*inputs.idid(end1)))}
        series = {name: inputs.series_case(name, n, seed) for name in inputs.SERIES_ALGEBRAS}
        self.end_matrices = end_matrices(series["end1"]["L"], seed)
        artin = docs.serialize_artin(series["end1"]["A"])
        paths["artin"] = self._write("artin", artin)
        for name, case in series.items():
            ldoc = docs.serialize_dgla(case["L"])
            paths[f"{name}:dgla"] = self._write(f"{name}_dgla", ldoc)
            owner = (docs.digest(ldoc), docs.digest(artin))
            for key, degree in (("a", 0), ("b", 0), ("x", 1)):
                if key in case:
                    paths[f"{name}:{key}"] = self._write(
                        f"{name}_{key}", docs.serialize_element(case[key], *owner, degree))
        # warm-up: one cold process compiles and caches the library's bytecode
        self._launch(["examples", "--list", "--json"])
        ops = [self._examples_op()] + self._read_ops(paths) + self._series_ops(paths, series)
        # pair-cone twice: with tangent it fills the top fifth of the ops, where
        # the 90th percentile falls
        ops.append(next(op for op in ops if op.id.startswith("pair-cone")))
        if scale == "tiny":
            ops = [op for op in ops if op.id in self.TINY]
        return ops

    def _cli_op(self, op_id, argv, check_result) -> Op:
        def check(res):
            code, out = res
            if code != 0:
                return False
            report = json.loads(out)
            return report.get("exact") is True and check_result(report["result"])
        return Op(op_id, lambda: self._launch(list(argv) + ["--json"]), check,
                  lambda res: repr(res))

    def _examples_op(self):
        return self._cli_op("examples --list", ["examples", "--list"],
                            lambda r: bool(r.get("examples")))

    def _read_ops(self, p):
        kunneth = {str(k): v for k, v in O.KUNNETH.items()}
        return [
            self._cli_op("validate End(V1)", ["validate", p["end1"]],
                         lambda r: r["valid"] is True and r["violations"] == []),
            self._cli_op("cohomology End(V1)", ["cohomology", p["end1"]],
                         lambda r: r["dims"] == kunneth),
            self._cli_op("pair-cone End(V1)", ["pair-cone", p["pair1"]],
                         lambda r: O.nonzero_dims(r["cohomology"]) == O.KUNNETH
                         and r["d_squared_zero"] is True),
            self._cli_op("tangent --pair End(V1)", ["tangent", "--pair", p["pair1"]],
                         lambda r: r["dimension"] == O.KUNNETH[1]),
        ]

    def _series_ops(self, p, series):
        n = self.TOWER_N
        ops = []
        for name, case in series.items():
            o = O.SeriesOracle(case["L"])
            a, b = O.from_element(case["a"]), O.from_element(case["b"])
            if name == "nilp3":
                want = o.bch_class3(a, b, n)
                check = lambda r, want=want: O.from_report(r["result"]) == want  # noqa: E731
            else:
                want = self.end_matrices.bch([a, b], n)
                check = lambda r, want=want: (  # noqa: E731
                    self.end_matrices.matrix(O.from_report(r["result"]), n) == want)
            ops.append(self._cli_op(
                f"bch {name}", ["bch", "--dgla", p[f"{name}:dgla"], "--artin", p["artin"],
                                "--a", p[f"{name}:a"], "--b", p[f"{name}:b"]], check))
        case = series["end1"]
        o = O.SeriesOracle(case["L"])
        x, a = O.from_element(case["x"]), O.from_element(case["a"])
        dgla_doc, x_doc = p["end1:dgla"], p["end1:x"]
        ops.append(self._cli_op(
            "gauge-apply end1", ["gauge-apply", "--dgla", dgla_doc, "--artin", p["artin"],
                                 "--param", p["end1:a"], "--element", x_doc],
            lambda r: O.from_report(r["result"]) == o.gauge(a, x, n)))
        tower = ["--dgla", dgla_doc, "--tower", str(n + 1), "--element", x_doc]
        ops.append(self._cli_op("obstruction end1", ["obstruction"] + tower,
                                lambda r: r["nonzero"] is False))

        def lift_ok(r):
            if r["lifted"] is not True:
                return False
            xb = O.from_report(r["element"])
            return not o.residual(xb, n + 1) and O.truncate(xb, n) == x
        ops.append(self._cli_op("lift end1", ["lift"] + tower, lift_ok))
        return ops

    def close(self):
        if self.workdir and os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir)
        parent = os.path.join(self.root, ".perfbench_work")
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
        self.workdir = None

    def manifest(self, seed):
        n = self.TOWER_N
        return {"documents": {
            "End(V1) dgla / (id, id) pair": inputs.dgla_profile(inputs.end_dgla(1, seed, False)),
            "tensor documents": {name: inputs.dgla_profile(inputs.series_dgla(name, seed))
                                 for name in inputs.SERIES_ALGEBRAS},
            "coefficient algebra": f"K[t]/t^{n} (nu = {n}); obstruction/lift use --tower {n + 1}",
        }}


def make(name: str, root: str) -> Workload:
    if name == "cli_cold":
        return CliCold(root)
    if name == "api_cohomology":
        return ApiCohomology()
    if name == "api_series":
        return ApiSeries()
    raise KeyError(name)


WORKLOADS = ("cli_cold", "api_cohomology", "api_series")
