"""Command-line front end.

Subcommands cover enumeration, conjugation, order comparison, building basis
elements, monomial products, basis conversion, scalar products, the
involution, and the verification suites.  Superpartitions are written
"(2,1;3,1)" with an always-present semicolon; expressions for `inner` are
"basis:spar", e.g. "p:(2,0;1)".

Output is text or JSON (--format, defaulting to the SUPERSYM_FORMAT
environment variable).  Exit status: 0 on success or a passing suite, 1 on
a failing verification, 2 on usage errors.

Each command imports only the library modules it runs: `conj`, `order` and
`list` need superpartition; `convert`, `mult`, `inner` and `omega` add transform;
`build` adds superpoly and bases.
"""

from __future__ import annotations

import argparse
import os
import sys

from .superpartition import (
    BASIS_NAMES,
    SuperPartition,
    _check_size,
    bruhat_leq,
    dominance_leq,
    enumerate_superpartitions,
)


def _parse_expr(text: str):
    from .transform import BasisExpansion
    basis, sep, spar = text.partition(":")
    if not sep or basis not in BASIS_NAMES:
        raise ValueError(f"expected 'basis:spar' with basis in {BASIS_NAMES}, got {text!r}")
    return BasisExpansion.unit(basis, SuperPartition.parse(spar))


def _emit(args, payload, text_lines) -> None:
    """Print text_lines, or for --format json the dict payload() returns:
    text output never builds the JSON form."""
    if args.format == "json":
        import json
        print(json.dumps(payload(), indent=2))
    else:
        for line in text_lines:
            print(line)


def _expansion_lines(exp):
    from .transform import format_rational
    yield f"# basis={exp.basis} n={exp.n} m={exp.m}"
    if not exp.coeffs:
        yield "0"
    for sp, c in exp.items_sorted():
        yield f"{sp.to_text()}  {format_rational(c)}"


def _cmd_list(args) -> int:
    sps = enumerate_superpartitions(args.n, args.m, args.max_len)
    _emit(
        args,
        lambda: {
            "n": args.n,
            "m": args.m,
            "max_len": args.max_len,
            "superpartitions": [sp.to_json_dict() for sp in sps],
        },
        (sp.to_text() for sp in sps),
    )
    return 0


def _cmd_conj(args) -> int:
    sp = SuperPartition.parse(args.spar)
    conj = sp.conjugate()
    _emit(
        args,
        lambda: {"input": sp.to_json_dict(), "conjugate": conj.to_json_dict()},
        [conj.to_text()],
    )
    return 0


def _relation(leq, x, y) -> str:
    fwd, bwd = leq(x, y), leq(y, x)
    if fwd and bwd:
        return "="
    if fwd:
        return "<="
    if bwd:
        return ">="
    return "incomparable"


def _cmd_order(args) -> int:
    x, y = SuperPartition.parse(args.spar1), SuperPartition.parse(args.spar2)
    if x.bidegree != y.bidegree:
        raise ValueError(f"{x} and {y} have different bidegrees {x.bidegree} != {y.bidegree}")
    rb = _relation(bruhat_leq, x, y)
    rd = _relation(dominance_leq, x, y)
    _emit(
        args,
        lambda: {"bruhat": rb, "dominance": rd},
        [f"bruhat: {x} {rb} {y}", f"dominance: {x} {rd} {y}"],
    )
    return 0


def _cmd_build(args) -> int:
    from .bases import basis_element, default_nvars
    sp = SuperPartition.parse(args.spar)
    nvars = args.nvars if args.nvars is not None else default_nvars(sp)
    poly = basis_element(args.basis, sp, nvars, arrowed=args.arrow)
    rendered = poly.render()
    _emit(
        args,
        lambda: {
            "basis": args.basis,
            "spar": sp.to_json_dict(),
            "nvars": nvars,
            "arrowed": args.arrow,
            "polynomial": rendered,
        },
        [f"# nvars={nvars}", rendered],
    )
    return 0


def _cmd_mult(args) -> int:
    if args.basis != "m":
        raise ValueError("product expansion is implemented for --basis m")
    from .transform import mono_product
    a, b = SuperPartition.parse(args.spar1), SuperPartition.parse(args.spar2)
    exp = mono_product(a, b)
    _emit(args, exp.to_json_dict, _expansion_lines(exp))
    return 0


def _cmd_convert(args) -> int:
    from .transform import BasisExpansion, change_basis
    sp = SuperPartition.parse(args.spar)
    exp = change_basis(BasisExpansion.unit(args.from_basis, sp), args.to_basis)
    _emit(args, exp.to_json_dict, _expansion_lines(exp))
    return 0


def _cmd_inner(args) -> int:
    from .transform import format_rational, scalar_product
    value = scalar_product(_parse_expr(args.expr1), _parse_expr(args.expr2))
    _emit(
        args,
        lambda: {"left": args.expr1, "right": args.expr2, "value": format_rational(value)},
        [format_rational(value)],
    )
    return 0


def _cmd_omega(args) -> int:
    from .transform import BasisExpansion, omega
    sp = SuperPartition.parse(args.spar)
    exp = omega(BasisExpansion.unit(args.basis, sp))
    _emit(args, exp.to_json_dict, _expansion_lines(exp))
    return 0


# suite: (the module it runs from, the options it reads with their defaults,
# the runner given that module and the option values)
_SUITES = {
    "recursions": ("engine_checks", {"n_max": 6}, lambda mod, n_max: [mod.verify_recursions(n_max)]),
    "determinants": ("engine_checks", {"n_max": 6}, lambda mod, n_max: [
        mod.determinant_formulas(n, which)
        for which, first in mod._FIRST_N.items()
        for n in range(first, n_max + 1)
    ]),
    "generating": ("bases", {"degree": 4, "nvars": 5}, lambda mod, degree, nvars: [
        mod.generating_check(kind, degree, nvars) for kind in ("E", "H", "P", "HE", "HP", "EP")
    ]),
    "kernel": ("inner", {"nvars": 5, "degree": 4}, lambda mod, nvars, degree: [
        mod.kernel_check(nvars, degree), mod.reproducing_check(nvars, min(degree, 3)),
    ]),
    "duality": ("inner", {"n_max": 5}, lambda mod, n_max: [mod.duality_check(n_max)]),
    "orders": ("superpartition", {"n_max": 6}, lambda mod, n_max: [mod.orders_check(n_max)]),
    "counting": ("superpartition", {"n_max": 12}, lambda mod, n_max: [mod.count_check(n_max)]),
}


def _suite_reports(args) -> list[dict]:
    from importlib import import_module
    module, reads, run = _SUITES[args.suite]
    unread = [
        "--" + opt.replace("_", "-")
        for opt in ("n_max", "nvars", "degree")
        if getattr(args, opt) is not None and opt not in reads
    ]
    if unread:
        raise ValueError(f"suite {args.suite} does not read {', '.join(unread)}")
    values = {
        # an explicit 0 is a request, not a missing option
        opt: default if getattr(args, opt) is None else getattr(args, opt)
        for opt, default in reads.items()
    }
    if "n_max" in values:  # the determinants suite loops over n itself: no n < 0 reaches a check
        _check_size("n_max", values["n_max"])
    return run(import_module(f".{module}", __package__), **values)


def _cmd_verify(args) -> int:
    reports = _suite_reports(args)
    ok = all(r["pass"] for r in reports)
    lines = []
    for r in reports:
        status = "PASS" if r["pass"] else "FAIL"
        detail = "" if r["pass"] else f": {r['first_failure']}"
        lines.append(f"[{status}] {r['check']} {r['params']}{detail}")
    _emit(args, lambda: {"suite": args.suite, "pass": ok, "reports": reports}, lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersym",
        description="Exact arithmetic for classical symmetric functions in superspace.",
    )
    default_format = os.environ.get("SUPERSYM_FORMAT", "text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument(
            "--format", choices=("text", "json"), default=default_format,
            help="output format (default from SUPERSYM_FORMAT, else text)",
        )
        return p

    p = add("list", _cmd_list, help="enumerate superpartitions of bidegree (n|m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-len", type=int, default=None)

    p = add("conj", _cmd_conj, help="conjugate superpartition")
    p.add_argument("spar")

    p = add("order", _cmd_order, help="compare two superpartitions in both orders")
    p.add_argument("spar1")
    p.add_argument("spar2")

    p = add("build", _cmd_build, help="expand a basis element as a polynomial")
    p.add_argument("--basis", choices=BASIS_NAMES, required=True)
    p.add_argument("spar")
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--arrow", action="store_true", help="apply the sector sign")

    p = add("mult", _cmd_mult, help="expand a product of monomial elements")
    p.add_argument("--basis", default="m")
    p.add_argument("spar1")
    p.add_argument("spar2")

    p = add("convert", _cmd_convert, help="convert a basis element between bases")
    p.add_argument("--from", dest="from_basis", choices=BASIS_NAMES, required=True)
    p.add_argument("--to", dest="to_basis", choices=BASIS_NAMES, required=True)
    p.add_argument("spar")

    p = add("inner", _cmd_inner, help="scalar product of two basis elements")
    p.add_argument("expr1", help="basis:spar, e.g. p:(2,0;1)")
    p.add_argument("expr2")

    p = add("omega", _cmd_omega, help="apply the e-h involution to a basis element")
    p.add_argument("--basis", choices=BASIS_NAMES, required=True)
    p.add_argument("spar")

    p = add("verify", _cmd_verify, help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=tuple(_SUITES),
        required=True,
    )
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a usage error: one line, exit status 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
