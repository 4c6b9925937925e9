"""Command line frontend.

Every analysis is a subcommand emitting JSON with a stable key order and a
schema_version field.  Exit codes: 0 success, 1 grid-suite failure, 2 bad
input or violated precondition, 3 internal consistency failure (a result
that contradicts a certified claim).  --seed is the one way to set the
seed of the sampled checks.
"""

import argparse
import functools
import json
import sys

from . import acceptance
from .ad_analyzer import analyze, size_cap
from .dickson import (
    SubspaceR,
    dickson_phi,
    enumerate_subspaces,
    primitive_element,
)
from .errors import ConsistencyError, InputError
from .fields import make_field
from .irred import GasInstance, bivariate_irreducible_oracle, gas_irreducible, irreducible
from .linalg import Matrix, companion
from .poly import Poly, gas_poly
from .tensor import (
    TensorInstance,
    closed_formula_applies,
    tensor_jordan_type_formula,
    tensor_jordan_type_oracle,
)

SCHEMA_VERSION = 1


def _emit(args, command, result):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": args.seed,
        "result": result,
    }
    if args.format == "text":
        for key, value in result.items():
            print(f"{key}: {json.dumps(value)}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_analyze_ad(args):
    field = make_field(args.field)
    if args.matrix:
        text = args.matrix
        if not text.lstrip().startswith(("{", "[")):
            try:
                with open(text) as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise InputError(f"cannot read --matrix file: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"--matrix is not valid JSON: {exc}") from None
        except ValueError:
            # json.loads raises a plain ValueError for an integer literal
            # over Python's int-string limit
            raise InputError(
                "--matrix has an integer literal over Python's int-string limit"
            ) from None
        except RecursionError:
            raise InputError("--matrix nests too deeply for the JSON reader") from None
        mat = Matrix.from_json_dict(data, field=field)
    elif args.poly:
        # the companion is deg x deg, so the parse refuses a degree bound
        # over analyze's cap before it builds the polynomial
        mat = companion(Poly.from_string(field, args.poly, degree_cap=size_cap(field)))
    else:
        raise InputError("analyze-ad needs --poly or --matrix")
    report = analyze(mat, seed=args.seed)
    return _emit(args, "analyze-ad", report.to_json_dict())


def _cmd_decompose_tensor(args):
    inst = TensorInstance(args.p, args.n, args.m, args.alpha, args.beta)
    if closed_formula_applies(args.p, args.n, args.m):
        jt = tensor_jordan_type_formula(inst)
        method = "formula"
    else:
        jt = tensor_jordan_type_oracle(inst)
        method = "oracle"
    result = {
        "p": args.p,
        "n": args.n,
        "m": args.m,
        "alpha": str(inst.alpha),
        "beta": str(inst.beta),
        "eigenvalue": str(inst.alpha + inst.beta),
        "blocks": sorted(jt.sizes(), reverse=True),
        "method": method,
    }
    return _emit(args, "decompose-tensor", result)


def _standard_q(field, n, a_str):
    a = field.parse_element(a_str)
    return gas_poly(field, n, 0, a), a


def _cmd_primitive_element(args):
    field = make_field(args.field)
    p, n = field.char, args.n
    if n < 1:
        raise InputError("need n >= 1")
    # R lives in the subfield of p^n elements: the coefficient field itself
    # when that is its size (a custom modulus included), else GF(p^n),
    # which primitive_element embeds into it
    k = field.base if field.kind == "rational-function" else field
    ambient = k if k.n == n else make_field(f"GF({p}^{n})")
    q, a = _standard_q(field, n, args.a)
    basis = [ambient.parse_element(s.strip()) for s in args.subspace.split(",") if s.strip()]
    r = SubspaceR.from_basis(ambient, basis)
    if args.certify and not irreducible(q):
        raise InputError("q is reducible; the Galois correspondence does not apply")
    res = primitive_element(r, q)
    result = {
        "field": field.spec_string(),
        "n": args.n,
        "a": str(a),
        "subspace_basis": [str(b) for b in r.basis],
        "dim": r.dim,
        "alpha_h": str(res.alpha_h),
        "coefficients": [str(c) for c in res.coefficients],
        "degree_over_f": res.degree_over_f,
        "property_p": res.property_p,
        "minimal_polynomial": str(res.minimal_polynomial),
    }
    return _emit(args, "primitive-element", result)


def _cmd_subfield_lattice(args):
    if args.n < 1:
        raise InputError("need n >= 1")
    field = make_field(f"GF({args.p}^{args.n})(Z)")
    ambient = field.base
    q, a = _standard_q(field, args.n, args.a)
    # the top dimension has the tightest subspace cap: enumerate it first,
    # so an input over the cap is refused before any primitive element
    levels = [enumerate_subspaces(ambient, m) for m in range(args.n, -1, -1)]
    entries = []
    subspaces = []
    for level in reversed(levels):
        for r in level:
            res = primitive_element(r, q)
            subspaces.append(r)
            entries.append(
                {
                    "dim": r.dim,
                    "basis": [str(b) for b in r.basis],
                    "alpha_h": str(res.alpha_h),
                    "degree_over_f": res.degree_over_f,
                    "property_p": res.property_p,
                    "is_subfield": r.is_subfield(),
                }
            )
    if args.format == "dot":
        print(_lattice_dot(subspaces, entries))
        return 0
    result = {
        "p": args.p,
        "n": args.n,
        "a": str(a),
        "field": field.spec_string(),
        "subspace_count": len(entries),
        "subspaces": entries,
    }
    return _emit(args, "subfield-lattice", result)


def _lattice_dot(subspaces, entries):
    lines = ["digraph subfield_lattice {", "  rankdir=BT;"]
    for i, (r, ent) in enumerate(zip(subspaces, entries)):
        basis = ", ".join(ent["basis"]) if ent["basis"] else "0"
        label = f"dim {ent['dim']}: span{{{basis}}}\\nalpha_H = {ent['alpha_h']}"
        lines.append(f'  s{i} [label="{label}"];')
    keysets = [frozenset(r.sort_key()) for r in subspaces]
    for i, ki in enumerate(keysets):
        for j, kj in enumerate(keysets):
            if subspaces[j].dim == subspaces[i].dim + 1 and ki < kj:
                lines.append(f"  s{i} -> s{j};")
    lines.append("}")
    return "\n".join(lines)


def _cmd_irreducible(args):
    K = make_field(args.K)
    inst = GasInstance(K, args.n, args.e, args.r, args.g)
    verdict = gas_irreducible(inst)
    oracle_checked = False
    oracle_agrees = None
    if not args.no_oracle and inst.oracle_reaches():
        oracle_checked = True
        oracle_agrees = bivariate_irreducible_oracle(inst.build_h()) == bool(verdict)
    result = {
        "K": K.spec_string(),
        "n": args.n,
        "e": args.e,
        "r": args.r,
        "g": inst.g.to_string("Z"),
        "verdict": "irreducible" if verdict.irreducible else "reducible",
        "condition": verdict.condition,
        "reason": verdict.reason,
        "witness": None if verdict.witness is None else str(verdict.witness),
        "r0": verdict.r0,
        "s": verdict.s,
        "oracle_checked": oracle_checked,
        "oracle_agrees": oracle_agrees,
    }
    if oracle_checked and not oracle_agrees:
        raise ConsistencyError("criterion and oracle disagree: " + json.dumps(result))
    return _emit(args, "irreducible", result)


def _cmd_dickson(args):
    form = dickson_phi(args.m, args.p)
    result = {
        "p": args.p,
        "m": args.m,
        "phi": form.phi_string(),
        "coefficients": {f"f_{j}": form.coefficient_string(j) for j in range(args.m)},
    }
    return _emit(args, "dickson", result)


def _cmd_grid(args):
    if args.suite == "acceptance":
        doc = acceptance.run_all(seed=args.seed)
    elif args.suite == "quick":
        doc = acceptance.run_all(seed=args.seed, suites=acceptance.QUICK_SUITES)
    elif args.suite in acceptance.SUITES:
        doc = acceptance.run_all(seed=args.seed, suites=(args.suite,))
    else:
        raise InputError(f"unknown suite {args.suite!r}")
    for suite in doc["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"{suite['suite']}: {status}", file=sys.stderr)
        if not suite["passed"]:
            for check in suite["checks"]:
                if not check["ok"]:
                    print(f"  FAIL {check['check']}", file=sys.stderr)
    print(json.dumps(doc, indent=2))
    return 0 if doc["passed"] else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args returns a
    fresh Namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="aslab",
        description="Exact computations around generalized Artin-Schreier polynomials",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument(
        "--format", choices=("json", "text", "dot"), default="json", help="output format"
    )
    # the same options are accepted after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--format", choices=("json", "text", "dot"), default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_command("analyze-ad", help="analyze the commutator operator of a matrix")
    p.add_argument("--field", required=True, help='field spec, e.g. "GF(2)(Z)"')
    p.add_argument("--poly", help='monic polynomial whose companion matrix to analyze')
    p.add_argument("--matrix", help="matrix as JSON (inline or a file path)")
    p.set_defaults(func=_cmd_analyze_ad)

    p = add_command("decompose-tensor", help="decompose a tensor product of Jordan blocks")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", default="0")
    p.add_argument("--beta", default="0")
    p.set_defaults(func=_cmd_decompose_tensor)

    p = add_command("primitive-element", help="primitive element for a subspace")
    p.add_argument("--field", required=True, help='working field, e.g. "GF(4)(Z)"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="constant term of X^(p^n) - X - a")
    p.add_argument("--subspace", default="", help="comma-separated basis of R")
    p.add_argument("--certify", action="store_true", help="verify that q is irreducible")
    p.set_defaults(func=_cmd_primitive_element)

    p = add_command("subfield-lattice", help="all intermediate fields of the extension")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="Z")
    p.set_defaults(func=_cmd_subfield_lattice)

    p = add_command("irreducible", help="irreducibility of X^(p^(n+e)) - X^(p^e) - g(Z^r)")
    p.add_argument("--K", required=True, help='coefficient field, e.g. "GF(2)"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--g", required=True, help='polynomial in Z, e.g. "Z+1"')
    p.add_argument("--no-oracle", action="store_true", help="skip the search oracle")
    p.set_defaults(func=_cmd_irreducible)

    p = add_command("dickson", help="symbolic Dickson form of rank m")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_dickson)

    p = add_command("grid", help="run a verification suite")
    p.add_argument("--suite", default="acceptance")
    p.set_defaults(func=_cmd_grid)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
