"""Seeded inputs, operations and exact output checks of the four workloads.

Inputs come from the seed and from this file alone: superpartitions are
enumerated here, not by the library, so a seed names the same inputs whatever
the library does.  Each workload is a fixed skeleton of operations (which
call, on which block) that does not depend on the seed; the seed picks the
elements, the coefficients, and the order of `kernel` and `cli`.  The order of
`convert` and `identities` is fixed, and `identities` has no other input, so
its seed changes nothing.  That keeps the work per pass the same from seed to
seed, so seeds can be compared.

Every operation is checked after the timed pass, never inside it: by an exact
self-check (round trips, involutions, pass flags, exit codes), by the
polynomial engine on a seeded sample of `convert` (first pass of a run only),
and, for the default seed, by a pinned digest of all outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
WORKLOADS = ("convert", "kernel", "identities", "cli")
BASES = ("m", "e", "h", "p")
# Kept here, not read from the library, so the inputs do not depend on it.
DETERMINANT_KINDS = ("e_in_h", "etilde_in_h", "p_in_e", "ptilde_in_e", "e_in_p", "etilde_in_p")
HERE = Path(__file__).resolve().parent

# Size profiles.  "full" is what the benchmark measures; "tiny" exists for
# the benchmark's own tests and is never timed.
SIZES = {
    "full": {
        "convert_n_max": 6,
        "convert_change_reps": 4,   # each ordered basis pair, per block
        "convert_omega_reps": 4,    # each basis, per block
        "convert_oracle_ops": 30,   # engine-checked sample, first pass only
        "convert_oracle_max_vars": 6,  # engine cost grows fast with n + m
        "kernel": ((4, 4), (3, 6)),
        "recursions_n": 6,
        "determinant_n_max": 5,
        "determinant_nvars": 7,
        "generating": (4, 5),
        "filling_degree": 5,
        "filling_m": 3,
        "cli_profile": "full",
    },
    "tiny": {
        "convert_n_max": 2,
        "convert_change_reps": 1,
        "convert_omega_reps": 1,
        "convert_oracle_ops": 6,
        "convert_oracle_max_vars": 4,
        "kernel": ((2, 2), (1, 3)),
        "recursions_n": 2,
        "determinant_n_max": 2,
        "determinant_nvars": 4,
        "generating": (2, 3),
        "filling_degree": 2,
        "filling_m": 2,
        "cli_profile": "tiny",
    },
}

# CLI skeleton: (subcommand, block(s), bases).  The seed picks elements in
# each block and the call order; the blocks and bases are fixed, because they
# set the cost of a call (which block matrices a cold process builds).
CLI_SKELETON = {
    "full": [
        *[("conj", (n, m)) for n, m in ((5, 0), (5, 1), (5, 2), (5, 3), (4, 2), (3, 1))],
        *[("order", (n, m)) for n, m in ((5, 0), (5, 1), (5, 2), (5, 3), (4, 2), (4, 1))],
        *[("list", (n, m)) for n, m in ((5, 1), (5, 2), (4, 2), (5, 3))],
        *[("mult", pa, pb) for pa, pb in (
            ((2, 1), (3, 1)), ((1, 0), (4, 2)), ((2, 2), (3, 0)),
            ((3, 1), (2, 0)), ((1, 1), (2, 1)), ((4, 1), (1, 1)),
        )],
        *[("convert", blk, b, c) for blk, (b, c) in zip(
            itertools.cycle(((5, 1), (5, 2), (4, 2), (5, 0), (4, 1), (3, 2))),
            itertools.permutations(BASES, 2),
        )],
        *[("inner", blk, b, c) for blk, (b, c) in (
            ((4, 1), ("p", "p")), ((5, 2), ("h", "m")), ((3, 2), ("e", "h")),
            ((5, 1), ("m", "e")), ((4, 2), ("p", "h")), ((5, 0), ("e", "p")),
        )],
        *[("omega", blk, b) for blk, b in (
            ((5, 1), "m"), ((4, 2), "e"), ((5, 2), "h"),
            ((3, 2), "p"), ((5, 0), "e"), ((4, 1), "h"),
        )],
        *[("verify", 3, 3)] * 4,
    ],
    "tiny": [
        ("conj", (2, 1)),
        ("order", (2, 1)),
        ("list", (2, 1)),
        ("mult", (1, 1), (1, 0)),
        ("convert", (2, 1), "h", "m"),
        ("convert", (2, 0), "p", "e"),
        ("inner", (2, 1), "p", "h"),
        ("omega", (2, 1), "e"),
        ("verify", 2, 2),
    ],
}


# -- superpartitions, enumerated independently of the library ---------------


def _partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first, *rest)


def spar_text(a, s) -> str:
    return f"({','.join(map(str, a))};{','.join(map(str, s))})"


@cache
def block(n: int, m: int) -> tuple[str, ...]:
    """Texts of all superpartitions of bidegree (n|m)."""
    out = []
    for fer in itertools.combinations(range(n, -1, -1), m):
        rest = n - sum(fer)
        if rest >= 0:
            out.extend(spar_text(fer, s) for s in _partitions(rest, rest))
    return tuple(out)


def blocks(n_min: int, n_max: int, m_max: int = 99) -> list[tuple[int, int]]:
    return [
        (n, m)
        for n in range(n_min, n_max + 1)
        for m in range(0, m_max + 1)
        if m * (m - 1) // 2 <= n and block(n, m)
    ]


def _combination(rng: random.Random, n: int, m: int):
    """A small-integer combination of one to three elements of a block."""
    elems = block(n, m)
    chosen = rng.sample(elems, min(len(elems), rng.randint(1, 3)))
    return tuple((t, rng.choice((-3, -2, -1, 1, 2, 3))) for t in chosen)


# -- input specs: plain data, from the seed only ------------------------------


def make_specs(workload: str, seed: int, size: str = "full") -> list[tuple]:
    """The seeded inputs of one pass, as plain data."""
    cfg = SIZES[size]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "convert":
        specs = []
        for n, m in blocks(1, cfg["convert_n_max"]):
            for _ in range(cfg["convert_change_reps"]):
                specs += [("change", b, c, n, m) for b, c in itertools.permutations(BASES, 2)]
            for _ in range(cfg["convert_omega_reps"]):
                specs += [("omega", b, n, m) for b in BASES]
            specs += [("inner", b, c, n, m) for b, c in itertools.product(BASES, BASES)]
        # One fixed order for every seed: the first request on each (basis,
        # block) pays its cold build, so a seeded order would move the tail.
        random.Random("convert-order").shuffle(specs)
        out = []
        for kind, *rest in specs:
            n, m = rest[-2:]
            terms = [_combination(rng, n, m) for _ in range(2 if kind == "inner" else 1)]
            out.append((kind, *rest, *terms))
        return out
    if workload == "kernel":
        specs = [("kernel", nv, deg) for nv, deg in cfg["kernel"]]
        rng.shuffle(specs)
        return specs
    if workload == "identities":
        specs = [("recursions", cfg["recursions_n"])]
        for which in DETERMINANT_KINDS:
            start = 0 if which.startswith(("etilde", "ptilde")) else 1
            specs += [
                ("determinant", n, which, cfg["determinant_nvars"])
                for n in range(start, cfg["determinant_n_max"] + 1)
            ]
        trunc, nvars = cfg["generating"]
        specs += [("generating", k, trunc, nvars) for k in ("E", "H", "P", "HE", "HP", "EP")]
        top, m_top = cfg["filling_degree"], cfg["filling_m"]
        for (na, ma), (nb, mb) in itertools.product(blocks(0, top, m_top), repeat=2):
            if na + nb <= top and ma + mb <= m_top:
                specs += [
                    ("filling", a, b, na + nb + ma + mb)
                    for a in block(na, ma)
                    for b in block(nb, mb)
                ]
        # One fixed order for every seed, as in convert: an operation's cost
        # moves by up to half with its position (which caches it fills first
        # and how large the heap has grown), so a seeded order moves the tail.
        random.Random("identities-order").shuffle(specs)
        return specs
    if workload == "cli":
        specs = [_cli_argv(rng, entry) for entry in CLI_SKELETON[cfg["cli_profile"]]]
        rng.shuffle(specs)
        return specs
    raise ValueError(f"unknown workload {workload!r}")


def _cli_argv(rng: random.Random, entry: tuple) -> tuple:
    cmd = entry[0]
    if cmd == "conj":
        return ("cli", "conj", rng.choice(block(*entry[1])))
    if cmd == "order":
        x, y = rng.sample(block(*entry[1]), 2)
        return ("cli", "order", x, y)
    if cmd == "list":
        n, m = entry[1]
        return ("cli", "list", "--n", str(n), "--m", str(m))
    if cmd == "mult":
        return ("cli", "mult", "--basis", "m", rng.choice(block(*entry[1])), rng.choice(block(*entry[2])))
    if cmd == "convert":
        _, blk, b, c = entry
        return ("cli", "convert", "--from", b, "--to", c, rng.choice(block(*blk)))
    if cmd == "inner":
        _, blk, b, c = entry
        elems = block(*blk)
        return ("cli", "inner", f"{b}:{rng.choice(elems)}", f"{c}:{rng.choice(elems)}")
    if cmd == "omega":
        _, blk, b = entry
        return ("cli", "omega", "--basis", b, rng.choice(block(*blk)))
    _, nvars, degree = entry
    return ("cli", "verify", "--suite", "kernel", "--nvars", str(nvars), "--degree", str(degree))


# -- operations over the library ------------------------------------------------


@dataclass
class Op:
    spec: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]  # exact self-check: error text or None
    canon: Callable[[object], object]      # JSON-able form for the digest


class Library:
    """The supersym modules, looked up at call time so that the tracer's
    wrappers, when installed, see every call."""

    def __init__(self):
        import supersym.bases
        import supersym.cli
        import supersym.inner
        import supersym.superpartition
        import supersym.transform

        self.sp = supersym.superpartition
        self.bases = supersym.bases
        self.transform = supersym.transform
        self.inner = supersym.inner
        self.cli = supersym.cli

    def parse(self, text: str):
        return self.sp.SuperPartition.parse(text)

    def expansion(self, basis: str, n: int, m: int, terms):
        coeffs = {self.parse(t): Fraction(c) for t, c in terms}
        return self.transform.BasisExpansion(basis, n, m, coeffs)


def canon_expansion(x) -> list:
    """Basis, block and sorted (superpartition, reduced fraction) pairs."""
    terms = sorted((spar_text(sp.a, sp.s), str(Fraction(c))) for sp, c in x.coeffs.items())
    return [x.basis, x.n, x.m, terms]


def _equal(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: {got!r} != {want!r}"


def bind(specs: list[tuple], lib: Library, cli_runner=None) -> list[Op]:
    """Turn seeded specs into operations; library objects are built here,
    before the timed pass."""
    return [_bind_one(spec, lib, cli_runner) for spec in specs]


def _bind_one(spec: tuple, lib: Library, cli_runner) -> Op:
    kind = spec[0]
    if kind == "change":
        _, b, c, n, m, terms = spec
        x = lib.expansion(b, n, m, terms)

        def run():
            y = lib.transform.change_basis(x, c)
            return y, lib.transform.change_basis(y, b)

        return Op(
            spec, run,
            lambda out: None if out[1] == x else f"round trip {b}->{c}->{b} changed the input",
            lambda out: [canon_expansion(out[0]), canon_expansion(out[1])],
        )
    if kind == "omega":
        _, b, n, m, terms = spec
        x = lib.expansion(b, n, m, terms)

        def run():
            w = lib.inner.omega(x)
            return w, lib.inner.omega(w)

        return Op(
            spec, run,
            lambda out: None if out[1] == x else "omega is not an involution here",
            lambda out: [canon_expansion(out[0]), canon_expansion(out[1])],
        )
    if kind == "inner":
        _, b, c, n, m, ta, tb = spec
        x, y = lib.expansion(b, n, m, ta), lib.expansion(c, n, m, tb)
        return Op(
            spec, lambda: lib.inner.scalar_product(x, y),
            lambda out: _equal(out, lib.inner.scalar_product(y, x), "scalar product not symmetric"),
            lambda out: str(Fraction(out)),
        )
    if kind in ("kernel", "recursions", "determinant", "generating"):
        if kind == "kernel":
            call = lambda: lib.inner.kernel_check(spec[1], spec[2])
        elif kind == "recursions":
            call = lambda: lib.transform.verify_recursions(spec[1])
        elif kind == "determinant":
            call = lambda: lib.transform.determinant_formulas(spec[1], spec[2], nvars=spec[3])
        else:
            call = lambda: lib.bases.generating_check(spec[1], spec[2], spec[3])
        return Op(
            spec, call,
            lambda out: None if out["pass"] is True else f"check failed: {out['first_failure']}",
            lambda out: [out["check"], out["params"], out["pass"]],
        )
    if kind == "filling":
        _, ta, tb, nvars = spec
        a, b = lib.parse(ta), lib.parse(tb)
        bidegree = (a.degree + b.degree, a.fermionic_degree + b.fermionic_degree)

        def run():
            rule = lib.transform.mono_product(a, b)
            fa = lib.bases.monomial(a, nvars, strict=False)
            fb = lib.bases.monomial(b, nvars, strict=False)
            return rule, lib.transform.expand_in_monomials(fa * fb, bidegree)

        return Op(
            spec, run,
            lambda out: None if out[0] == out[1] else "filling rule differs from the engine",
            lambda out: canon_expansion(out[0]),
        )
    if kind == "cli":
        argv = list(spec[1:])

        def check(out):
            code, stdout = out
            if code != 0:
                return f"exit status {code}"
            if argv[0] == "verify" and not all(l.startswith("[PASS]") for l in stdout.splitlines()):
                return "verification suite did not pass"
            want = io.StringIO()
            with contextlib.redirect_stdout(want):
                want_code = lib.cli.main(argv)
            return _equal((code, stdout), (want_code, want.getvalue()), "differs from in-process main()")

        return Op(spec, lambda: cli_runner(argv), check, lambda out: list(out))
    raise ValueError(f"unknown operation {kind!r}")


def run_cli(argv, env, cwd) -> tuple[int, str]:
    """One untraced CLI call in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "supersym.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    return proc.returncode, proc.stdout


# -- the polynomial-engine oracle for `convert` -----------------------------------


def _z_weight(sp) -> int:
    # written here, not taken from inner.z_weight, so the oracle does not
    # check the library's pairing against itself
    out = 1
    for k, group in itertools.groupby(sorted(sp.s)):
        mult = len(list(group))
        out *= k**mult * math.factorial(mult)
    return out


def _omega_sign(sp) -> int:
    """Eigenvalue of omega on p_L: (-1)^(|L| + m - length)."""
    return -1 if (sp.degree + sp.fermionic_degree - sp.length) % 2 else 1


def oracle(ops: list[Op], outputs: list, seed: int, size: str, lib: Library) -> dict[int, str]:
    """Check a seeded sample of `convert` results against the polynomial
    engine: each element is built as a polynomial at N = n + m variables
    (BasisExpansion.to_poly) and read back in monomials
    (expand_in_monomials).  The p-expansions the library returns are
    checked this way, then omega and the scalar product are applied to them
    by their definitions (p_L -> sign p_L, <p_L, p_L> = z_L), so the fast
    change_basis path is checked against the engine, never against itself.
    Blocks with n + m above the size's limit are left to the round-trip
    checks and the digest: there the engine takes seconds per element."""
    cfg = SIZES[size]
    T = lib.transform

    def engine(x):
        return canon_expansion(T.expand_in_monomials(x.to_poly(x.n + x.m), (x.n, x.m)))

    def same_function(a, b, what):
        return None if engine(a) == engine(b) else f"engine disagrees: {what}"

    def to_p(x):
        return T.change_basis(x, "p")

    eligible = [
        i for i, op in enumerate(ops)
        if op.spec[0] in ("change", "omega", "inner")
        and outputs[i] is not None
        and sum(_block_of(op.spec)) <= cfg["convert_oracle_max_vars"]
    ]
    rng = random.Random(f"oracle/{seed}")
    errors = {}
    for i in sorted(rng.sample(eligible, min(len(eligible), cfg["convert_oracle_ops"]))):
        spec, out = ops[i].spec, outputs[i]
        kind = spec[0]
        if kind == "change":
            _, b, c, n, m, terms = spec
            x = lib.expansion(b, n, m, terms)
            err = same_function(out[0], x, f"change_basis {b}->{c}")
        elif kind == "omega":
            _, b, n, m, terms = spec
            x = lib.expansion(b, n, m, terms)
            xp = to_p(x)
            flipped = T.BasisExpansion("p", n, m, {sp: _omega_sign(sp) * c for sp, c in xp.coeffs.items()})
            err = same_function(xp, x, f"change_basis {b}->p") or same_function(out[0], flipped, f"omega in {b}")
        else:
            _, b, c, n, m, ta, tb = spec
            x, y = lib.expansion(b, n, m, ta), lib.expansion(c, n, m, tb)
            xp, yp = to_p(x), to_p(y)
            want = sum((_z_weight(sp) * v * yp.get(sp) for sp, v in xp.coeffs.items()), Fraction(0))
            err = (
                same_function(xp, x, f"change_basis {b}->p")
                or same_function(yp, y, f"change_basis {c}->p")
                or _equal(out, want, "scalar product differs from the p-pairing")
            )
        if err:
            errors[i] = err
    return errors


def _block_of(spec: tuple) -> tuple[int, int]:
    return (spec[2], spec[3]) if spec[0] == "omega" else (spec[3], spec[4])


def digest(ops: list[Op], outputs: list, errors: dict[int, str]) -> str:
    """sha256 of every operation's spec and canonical output, in order."""
    h = hashlib.sha256()
    for i, (op, out) in enumerate(zip(ops, outputs)):
        body = None if i in errors else op.canon(out)
        h.update(json.dumps([list(op.spec), body], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def pinned_digest(workload: str, seed: int, size: str) -> str | None:
    """The recorded digest for the default seed at full size, else None."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    return json.loads((HERE / "digests.json").read_text())[workload]
