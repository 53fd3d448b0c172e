"""Command-line interface: analyze, dual, series, catalog, verify.

Inputs use the grammar ``n=<int>; e={d:v,...}`` (whitespace-insensitive, all
divisors of n required) or the equivalent JSON object {"n": ..., "e": {...}}.
Exit codes: 0 for pass (documented flags allowed), 1 for a verification
failure, 2 for usage or parse errors and for input above the size contract
(:data:`MAX_N`, :data:`MAX_DEGREE`, :data:`MAX_ORDER`), 141 when the reader
closes stdout early (``| head``).  All randomness flows from --seed, and
output for a fixed seed and sizes is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import canonical_int, divisors, euler_phi
from .exactpoly import PowerSeriesQ
from .report import json_safe, summarize
from .zetaprod import (
    ZetaParseError,
    ZetaProduct,
    lambert_form,
    multiplicities,
    parse_zeta_fields,
    power_sums,
    ramanujan_coefficients,
    root_weights,
    saito_dual,
    saito_transform,
    star_functions,
    to_rational_function,
)

# The choices of ``verify`` and ``series --G``, spelled out so that building
# the parser imports neither ``verify`` nor ``dirichlet``: each command
# imports only the modules it runs.  They are sorted(verify.SCOPE_SUITES)
# and sorted(dirichlet.SERIES_MAKERS).
SCOPES = ("all", "catalog", "eta", "example", "prop", "weights")
SERIES_G = ("mobius", "unit", "zeta")

_SHOWN_MISMATCHES = 5

# The size contract of analyze, dual and series, and of each verify --n
# (verify.size_error holds the rest of verify's).
# The cost of analyze grows with n (the Lambert forms multiply every Phi_c,
# c | n) and with the degree of the reduced product (its cyclotomic powers,
# whose coefficients grow with the exponents).  At these limits the slowest
# of 14 inputs measured at n = 5040 ran analyze in 1.40 s (D = 2475), and
# e(2) = 1250 in 0.17 s, on a 2-core x86 host.
# The cost of series grows with --order, quadratically for --kind power: at
# n = 5040 it took 0.15 s at order 2000, 0.62 s at 4000 and 2.60 s at 8000 on
# that host.  The limit is the order of the benchmark's series ladder.
MAX_N = 5040
MAX_DEGREE = 2500
MAX_ORDER = 4000


def _int(text: str, minimum: int | None = None) -> int:
    """An integer flag, read by :func:`arith.canonical_int` (canonical ASCII
    decimal, >= ``minimum``); anything else is a usage error."""
    value = canonical_int(text, minimum)
    if value is None:
        bound = "" if minimum is None else f" >= {minimum}"
        raise argparse.ArgumentTypeError(f"expected an integer{bound} in canonical decimal form, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int(text, minimum=1)


def size_error(n: int, degree: int = 0, order: int = 0) -> str | None:
    """Why input of conductor n (reduced degree ``degree``, series order
    ``order``) is refused, or None if it is within the size contract."""
    if n > MAX_N:
        return f"n = {n} is above the size limit n <= {MAX_N}"
    if degree > MAX_DEGREE:
        return f"the reduced product has degree {degree}, above the size limit {MAX_DEGREE}"
    if order > MAX_ORDER:
        return f"--order {order} is above the size limit {MAX_ORDER}"
    return None


def reduced_degree(z: ZetaProduct) -> int:
    """deg num + deg den of the reduced product: sum of |m(n/d)| phi(d) over d | n."""
    m = multiplicities(z)
    return sum(abs(m(z.n // d)) * euler_phi(d) for d in divisors(z.n))


def _read_product(text: str, *, bound_degree: bool = False, order: int = 0) -> ZetaProduct:
    """Parse an input product, refusing it above the size contract: n and the
    series order before any divisor is computed and, with ``bound_degree``,
    the reduced degree before any polynomial is."""
    n, e = parse_zeta_fields(text)
    if refusal := size_error(n, order=order):
        raise ValueError(refusal)
    z = ZetaProduct(n, e)
    if bound_degree and (refusal := size_error(n, reduced_degree(z))):
        raise ValueError(refusal)
    return z


def _analyze_payload(z: ZetaProduct) -> dict:
    n = z.n
    m = multiplicities(z)
    p = power_sums(z)
    mstar, pstar = star_functions(z)
    r = ramanujan_coefficients(m)
    return {
        "n": n,
        "e": {str(d): v for d, v in z.e.items()},
        "mu_e": z.mu_e,
        "m": list(m.residues()),
        "p": list(p.residues()),
        "mstar": list(mstar.residues()),
        "pstar": list(pstar.residues()),
        "ramanujan_m": [str(v) for v in r.residues()],
        "zeta": str(to_rational_function(z)),
        # the exponent of Phi_d in the product is m(n/d), read off the root data
        "cyclotomic_exponents": {str(d): m(n // d) for d in divisors(n)},
        "m_line": {str(d): w for d, w in root_weights(z, "m").items()},
        "p_line": {str(d): w for d, w in root_weights(z, "p").items()},
        "m_series_form": str(lambert_form(m)),
        "p_series_form": str(lambert_form(p)),
    }


def _emit(args, status: str, payload: dict) -> None:
    if args.format == "json":
        doc = {
            "command": args._echo,
            "status": status,
            "payload": json_safe(payload),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_analyze(args) -> int:
    z = _read_product(args.input, bound_degree=True)
    payload = _analyze_payload(z)
    _emit(args, "pass", payload)
    return 0


def _cmd_dual(args) -> int:
    z = _read_product(args.input)
    payload = {
        "input": z.to_text(),
        "transform": saito_transform(z).to_text(),
        "dual": saito_dual(z).to_text(),
    }
    _emit(args, "pass", payload)
    return 0


def _cmd_series(args) -> int:
    from . import dirichlet

    z = _read_product(args.input, order=args.order)
    which = args.which
    payload = {"n": z.n, "order": args.order, "kind": args.kind}
    if args.kind == "dirichlet":
        G = args.G or "zeta"
        t = dirichlet.g_transforms(z, dirichlet.SERIES_MAKERS[G](args.order))
        table = {"m": t.m, "p": t.p, "mstar": t.mstar, "pstar": t.pstar}
        payload["G"] = G
    else:
        # q-power-series transforms against the geometric coefficient series
        if args.G is not None:
            raise ValueError("--G applies to --kind dirichlet only")
        if which in ("mstar", "pstar"):
            raise ValueError(f"--kind power has only the m and p transforms, not {which!r}")
        g = PowerSeriesQ([0] + [1] * (args.order - 1), args.order)
        table = dict(zip(("m", "p"), dirichlet.ps_g_transforms(z, g)))
    for key in table if which == "all" else [which]:
        payload[key] = json_safe(table[key].coeffs)
    _emit(args, "pass", payload)
    return 0


def _catalog_entry(name: str):
    """A catalog entry by name, refused if its conductor is above the size contract."""
    from . import catalog as catalog_mod

    entry = catalog_mod.get(name)
    if refusal := size_error(entry.n):
        raise ValueError(f"{entry.name}: {refusal}")
    return entry


def _cmd_catalog(args) -> int:
    from . import catalog as catalog_mod

    if args.action == "list":
        payload = {
            "entries": [
                {"name": e.name, "n": e.n, "source": e.source} for e in catalog_mod.entries()
            ],
            "families": ["A_<rank>", "D_<rank>"],
        }
        if args.format == "json":
            _emit(args, "pass", payload)
        else:
            for e in catalog_mod.entries():
                print(f"{e.name:6s} n={e.n:<3d} [{e.source}]")
            print("families: A_<rank> (rank >= 1), D_<rank> (rank >= 3)")
        return 0
    if args.action == "get":
        if not args.name:
            raise ValueError("catalog get needs an entry name")
        _emit(args, "pass", _catalog_entry(args.name).to_json_dict())
        return 0
    if args.action == "verify":
        if args.name:
            reports = [catalog_mod.verify_entry(_catalog_entry(args.name))]
        else:
            reports = catalog_mod.verify_catalog()
        summary = summarize(reports)
        if args.format == "json":
            _emit(args, summary["status"], {"reports": [r.to_dict() for r in reports]})
        else:
            for r in reports:
                name = r.context.get("name", r.check)
                print(f"[{r.status.upper():7s}] {name}")
                for f in r.flags:
                    print(f"          flag: {f}")
                for mm in r.mismatches:
                    print(f"          mismatch: {mm}")
            print(f"status: {summary['status']}  flags: {summary['flags']}  failures: {summary['failures']}")
        return 1 if summary["failures"] else 0
    raise ValueError(f"unknown catalog action {args.action!r}")


def _cmd_verify(args) -> int:
    # every --n, and then the sizes of the run, are held to the size
    # contract before any suite runs
    for n in args.n or ():
        if refusal := size_error(n):
            raise ValueError(refusal)
    from . import verify

    # a flag that was not given keeps SuiteConfig's default
    flags = {name: getattr(args, name) for name in ("seed", "nmax", "order", "trials")}
    given = {name: value for name, value in flags.items() if value is not None}
    cfg = verify.SuiteConfig(ns=args.n and tuple(args.n), index=args.index, **given)
    if refusal := verify.size_error(args.scope, cfg):
        raise ValueError(refusal)
    timings = {} if args.timings else None
    reports = verify.run_scope(args.scope, cfg, timings)
    for name, seconds in (timings or {}).items():
        print(f"timing: {name} {seconds:.3f} s", file=sys.stderr)
    summary = summarize(reports)
    reruns = [verify.rerun_command(args.scope, cfg, r) for r in reports]
    if args.format == "json":
        suites = [r.to_dict() for r in reports]
        for suite, rerun in zip(suites, reruns):
            if rerun:
                suite["mismatches"][0]["rerun"] = rerun
        doc = {
            "command": args._echo,
            "seed": cfg.seed,
            "suites": suites,
            "summary": summary,
        }
        if args.scope == "example":
            doc["examples"] = [d for r in reports for d in r.example_docs]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for r, rerun in zip(reports, reruns):
            print(f"[{r.status.upper():7s}] {r.check}")
            for f in r.flags:
                print(f"          flag: {f}")
            for i, mm in enumerate(r.mismatches[:_SHOWN_MISMATCHES]):
                print(f"          mismatch: {json_safe(mm)}")
                if i == 0 and rerun:
                    print(f"          rerun: {rerun}")
            if len(r.mismatches) > _SHOWN_MISMATCHES:
                print(f"          (+{len(r.mismatches) - _SHOWN_MISMATCHES} more)")
        print(
            f"status: {'pass' if summary['failures'] == 0 else 'fail'}"
            f"  flags: {summary['flags']}  failures: {summary['failures']}"
        )
    return 1 if summary["failures"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclozeta",
        description="Exact analysis and verification of cyclotomic products.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        # accepted before or after the subcommand; SUPPRESS keeps the
        # global value when the local flag is absent
        p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
        return p

    p = subparser("analyze", help="root data, transforms and generating forms")
    p.add_argument("input", help="n=<int>; e={d:v,...} or the JSON mirror")
    p.set_defaults(func=_cmd_analyze)

    p = subparser("dual", help="print the exponent reindexing and its inverse")
    p.add_argument("input")
    p.set_defaults(func=_cmd_dual)

    p = subparser("series", help="truncated Dirichlet or q-power-series transforms")
    p.add_argument("input")
    p.add_argument("--G", choices=SERIES_G, help="the series G of --kind dirichlet (default zeta)")
    p.add_argument("--kind", choices=("dirichlet", "power"), default="dirichlet")
    p.add_argument("--order", type=_positive_int, default=200)
    p.add_argument("--which", choices=("m", "p", "mstar", "pstar", "all"), default="all")
    p.set_defaults(func=_cmd_series)

    p = subparser("catalog", help="list/get/verify the singularity catalog")
    p.add_argument("action", choices=("list", "get", "verify"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = subparser("verify", help="run verification suites")
    p.add_argument("scope", choices=SCOPES)
    p.add_argument("--index", type=_int, help="proposition or example index")
    p.add_argument("--n", type=_positive_int, action="append", help="restrict to these conductors")
    p.add_argument("--nmax", type=_positive_int)
    p.add_argument("--order", type=_positive_int)
    p.add_argument("--trials", type=_positive_int)
    p.add_argument("--seed", type=_int)
    p.add_argument("--timings", action="store_true", help="write each suite's wall time to stderr")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    # --timings writes to stderr only, so the echoed command leaves it out
    # and stdout stays byte-identical with and without it
    args._echo = "cyclozeta " + " ".join(a for a in argv if a != "--timings")
    try:
        return args.func(args)
    except ZetaParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``), which is no verification
        # failure.  Point stdout at devnull so the interpreter's final flush
        # stays quiet, and exit 128 + SIGPIPE, as a shell reports a process
        # that SIGPIPE killed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
