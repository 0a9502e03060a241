"""Command-line front end.

Subcommands cover enumeration, conjugation, order comparison, building basis
elements, monomial products, basis conversion, scalar products, the
involution, and the verification suites.  Superpartitions are written
"(2,1;3,1)" with an always-present semicolon; expressions for `inner` are
"basis:spar", e.g. "p:(2,0;1)".

Output is text or JSON (--format, defaulting to the SUPERSYM_FORMAT
environment variable).  Exit status: 0 on success or a passing suite, 1 on
a failing verification, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .superpartition import (
    SparError,
    SuperPartition,
    bruhat_leq,
    count_check,
    dominance_leq,
    enumerate_superpartitions,
    orders_check,
)
from .superpoly import format_rational
from . import bases as _bases
from . import inner as _inner
from . import transform as _transform


def _parse_spar(text: str) -> SuperPartition:
    try:
        return SuperPartition.parse(text)
    except SparError as exc:
        raise SystemExit(f"error: {exc}") from None


def _parse_expr(text: str):
    basis, sep, spar = text.partition(":")
    if not sep or basis not in _bases.BASIS_NAMES:
        raise SystemExit(
            f"error: expected 'basis:spar' with basis in {_bases.BASIS_NAMES}, got {text!r}"
        )
    return _transform.BasisExpansion.unit(basis, _parse_spar(spar))


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _expansion_lines(exp: _transform.BasisExpansion):
    yield f"# basis={exp.basis} n={exp.n} m={exp.m}"
    if not exp.coeffs:
        yield "0"
    for sp, c in exp.items_sorted():
        yield f"{sp.to_text()}  {format_rational(c)}"


def _cmd_list(args) -> int:
    sps = enumerate_superpartitions(args.n, args.m, args.max_len)
    payload = {
        "n": args.n,
        "m": args.m,
        "max_len": args.max_len,
        "superpartitions": [sp.to_json_dict() for sp in sps],
    }
    _emit(args, payload, (sp.to_text() for sp in sps))
    return 0


def _cmd_conj(args) -> int:
    sp = _parse_spar(args.spar)
    conj = sp.conjugate()
    _emit(
        args,
        {"input": sp.to_json_dict(), "conjugate": conj.to_json_dict()},
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
    x, y = _parse_spar(args.spar1), _parse_spar(args.spar2)
    if x.bidegree != y.bidegree:
        raise SystemExit(
            f"error: {x} and {y} have different bidegrees {x.bidegree} != {y.bidegree}"
        )
    rb = _relation(bruhat_leq, x, y)
    rd = _relation(dominance_leq, x, y)
    _emit(
        args,
        {"bruhat": rb, "dominance": rd},
        [f"bruhat: {x} {rb} {y}", f"dominance: {x} {rd} {y}"],
    )
    return 0


def _cmd_build(args) -> int:
    sp = _parse_spar(args.spar)
    nvars = args.nvars if args.nvars is not None else _bases.default_nvars(sp)
    try:
        poly = _bases.basis_element(args.basis, sp, nvars, arrowed=args.arrow)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    payload = {
        "basis": args.basis,
        "spar": sp.to_json_dict(),
        "nvars": nvars,
        "arrowed": args.arrow,
        "polynomial": poly.render(),
    }
    _emit(args, payload, [f"# nvars={nvars}", poly.render()])
    return 0


def _cmd_mult(args) -> int:
    if args.basis != "m":
        raise SystemExit("error: product expansion is implemented for --basis m")
    a, b = _parse_spar(args.spar1), _parse_spar(args.spar2)
    exp = _transform.mono_product(a, b)
    _emit(args, exp.to_json_dict(), _expansion_lines(exp))
    return 0


def _cmd_convert(args) -> int:
    sp = _parse_spar(args.spar)
    exp = _transform.change_basis(
        _transform.BasisExpansion.unit(args.from_basis, sp), args.to_basis
    )
    _emit(args, exp.to_json_dict(), _expansion_lines(exp))
    return 0


def _cmd_inner(args) -> int:
    value = _inner.scalar_product(_parse_expr(args.expr1), _parse_expr(args.expr2))
    _emit(
        args,
        {"left": args.expr1, "right": args.expr2, "value": format_rational(value)},
        [format_rational(value)],
    )
    return 0


def _cmd_omega(args) -> int:
    sp = _parse_spar(args.spar)
    exp = _inner.omega(_transform.BasisExpansion.unit(args.basis, sp))
    _emit(args, exp.to_json_dict(), _expansion_lines(exp))
    return 0


def _suite_reports(args) -> list[dict]:
    suite = args.suite

    def given(value, default):
        # an explicit 0 is a request, not a missing option
        return default if value is None else value

    if suite == "recursions":
        return [_transform.verify_recursions(given(args.n_max, 6))]
    if suite == "determinants":
        reports = []
        for which in _transform.DETERMINANT_KINDS:
            start = 0 if which.startswith(("etilde", "ptilde")) else 1
            for n in range(start, given(args.n_max, 6) + 1):
                reports.append(_transform.determinant_formulas(n, which))
        return reports
    if suite == "generating":
        trunc = given(args.degree, 4)
        nvars = given(args.nvars, 5)
        return [
            _bases.generating_check(kind, trunc, nvars)
            for kind in ("E", "H", "P", "HE", "HP", "EP")
        ]
    if suite == "kernel":
        nvars = given(args.nvars, 5)
        degree = given(args.degree, 4)
        return [
            _inner.kernel_check(nvars, degree),
            _inner.reproducing_check(nvars, min(degree, 3)),
        ]
    if suite == "duality":
        n_max = given(args.n_max, 5)
        failure = None
        for n in range(n_max + 1):
            m = 0
            while failure is None and m * (m - 1) // 2 <= n and m <= 3:
                if enumerate_superpartitions(n, m):
                    if not _inner.dual_bases_check(n, m, "h", "m"):
                        failure = f"h-m duality fails on block ({n}|{m})"
                    elif not _inner.dual_bases_check(n, m, "p", "p/z"):
                        failure = f"p-p/z duality fails on block ({n}|{m})"
                m += 1
            if failure:
                break
        return [
            {
                "check": "duality",
                "params": {"n_max": n_max},
                "pass": failure is None,
                "first_failure": failure,
            }
        ]
    if suite == "orders":
        return [orders_check(given(args.n_max, 6))]
    if suite == "counting":
        return [count_check(given(args.n_max, 12))]
    raise SystemExit(f"error: unknown suite {suite!r}")


def _cmd_verify(args) -> int:
    reports = _suite_reports(args)
    ok = all(r["pass"] for r in reports)
    lines = []
    for r in reports:
        status = "PASS" if r["pass"] else "FAIL"
        detail = "" if r["pass"] else f": {r['first_failure']}"
        lines.append(f"[{status}] {r['check']} {r['params']}{detail}")
    _emit(args, {"suite": args.suite, "pass": ok, "reports": reports}, lines)
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
    p.add_argument("--basis", choices=_bases.BASIS_NAMES, required=True)
    p.add_argument("spar")
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--arrow", action="store_true", help="apply the sector sign")

    p = add("mult", _cmd_mult, help="expand a product of monomial elements")
    p.add_argument("--basis", default="m")
    p.add_argument("spar1")
    p.add_argument("spar2")

    p = add("convert", _cmd_convert, help="convert a basis element between bases")
    p.add_argument("--from", dest="from_basis", choices=_bases.BASIS_NAMES, required=True)
    p.add_argument("--to", dest="to_basis", choices=_bases.BASIS_NAMES, required=True)
    p.add_argument("spar")

    p = add("inner", _cmd_inner, help="scalar product of two basis elements")
    p.add_argument("expr1", help="basis:spar, e.g. p:(2,0;1)")
    p.add_argument("expr2")

    p = add("omega", _cmd_omega, help="apply the e-h involution to a basis element")
    p.add_argument("--basis", choices=_bases.BASIS_NAMES, required=True)
    p.add_argument("spar")

    p = add("verify", _cmd_verify, help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=(
            "recursions", "determinants", "generating",
            "kernel", "duality", "orders", "counting",
        ),
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
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except (ValueError, SparError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
