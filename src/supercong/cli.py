"""Command-line front end: claim sweeps, single-quantity computation,
constant hunting, and the ladder checked against the Kronecker oracle.

Exit codes: 0 when nothing failed (skips and conjecture findings do not
fail), 1 when a non-conjectural congruence failed, 2 on usage or internal
errors.
"""

from __future__ import annotations

import argparse
import sys

from . import cache as cache_mod
from . import reports as reports_mod
from .bernoulli import bernoulli_exact, bernoulli_mod_p
from .compsum import CompSumSpec, comp_sum, comp_sum_kronecker, count_solutions_exact, r_spec, s_spec
from .mhs import mhs, mhs_restricted, unordered_sum
from .modring import PrimePowerModulus, is_prime
from .verifier import CLAIMS, EvalContext, GridSpec, instance_from_params, sweep, verify_instances


# ratrecon.HUNT_FAMILIES, sorted; ratrecon itself is imported only by `search`.
SEARCH_FAMILIES = ("c", "cprime", "qd")


def _int(token: str, flag: str, text: str) -> int:
    """int(token), or a ValueError that names the flag and its text."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{flag} {text!r}: {token!r} is not an integer") from None


# The widest a..b range accepted: a wider one is refused from its bounds,
# before it is built, since its tuple alone could exhaust memory.
_MAX_RANGE = 10**6


def _parse_int_range(text: str, flag: str = "range") -> tuple[int, ...]:
    """'a..b' inclusive, or a comma list of integers; an error names the flag."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = _int(lo, flag, text), _int(hi, flag, text)
        if hi - lo >= _MAX_RANGE:
            raise ValueError(f"{flag} {text!r} spans {hi - lo + 1} integers, more than {_MAX_RANGE}")
        return tuple(range(lo, hi + 1))
    return tuple(_int(tok, flag, text) for tok in text.split(",") if tok)


def _parse_primes(text: str, flag: str = "--primes") -> tuple[int, ...]:
    return tuple(q for q in _parse_int_range(text, flag) if is_prime(q))


_TUPLE_KEYS = {"alphas"}


def _parse_instance(text: str) -> dict:
    """'p=11,r=2,alphas=1+1+2' -> {'p': 11, 'r': 2, 'alphas': (1, 1, 2)}; a name given twice is an error."""
    params: dict = {}
    for pair in text.split(","):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        key = key.strip()
        if not key or not value:
            raise ValueError(f"malformed instance parameter {pair!r}")
        if key in params:
            raise ValueError(f"instance parameter {key!r} given twice in {text!r}")
        if key in _TUPLE_KEYS or "+" in value:
            params[key] = tuple(_int(v, "--instance", text) for v in value.split("+"))
        else:
            params[key] = _int(value, "--instance", text)
    return params


def _parse_comp(text: str, flag: str) -> tuple[int, ...]:
    return tuple(_int(tok, flag, text) for tok in text.replace("+", ",").split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Verify congruences of harmonic and restricted composition sums modulo prime powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="sweep claims over parameter grids")
    ver.add_argument("--claims", default="ALL", help="comma-separated claim ids, or ALL")
    ver.add_argument("--primes", help="prime range a..b (inclusive) or comma list; non-primes dropped")
    ver.add_argument("--r", dest="rs", help="exponent range a..b or comma list")
    ver.add_argument("--m", dest="ms", help="multiplier comma list or range a..b")
    ver.add_argument("--instance", action="append", default=[],
                     help="evaluate one explicit instance, e.g. p=11,r=2,m=1 (repeatable; bypasses grids)")
    ver.add_argument("--format", choices=reports_mod.FORMATS, default="md")
    ver.add_argument("--out", help="write the report here instead of stdout")
    ver.add_argument("--cache", help=f"residue cache CSV (default ${cache_mod.ENV_VAR})")
    ver.add_argument("--jobs", type=int, default=1,
                     help="worker processes, one task per prime (at least 1; capped at the primes and CPUs)")
    ver.add_argument("--stats", action="store_true", help="print evaluation counters to stderr")

    comp = sub.add_parser("compute", help="compute a single quantity")
    csub = comp.add_subparsers(dest="quantity", required=True)

    c_bern = csub.add_parser("bernoulli")
    c_bern.add_argument("--k", type=int, required=True)
    c_bern.add_argument("--mod-p", type=int)

    c_mhs = csub.add_parser("mhs")
    c_mhs.add_argument("--N", type=int, required=True)
    c_mhs.add_argument("--s", required=True, help="composition, e.g. 1,1,2")
    c_mhs.add_argument("--p", type=int, required=True)
    c_mhs.add_argument("--r", type=int, default=1)
    c_mhs.add_argument("--restricted", action="store_true")

    for name in ("s", "r"):
        c = csub.add_parser(name)
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--m", type=int, required=True)
        c.add_argument("--p", type=int, required=True)
        c.add_argument("--r", type=int, default=1, dest="r_exp")
        c.add_argument("--mod-exp", type=int, help="evaluate mod p**E (default: the target exponent)")

    c_count = csub.add_parser("count")
    c_count.add_argument("--n", type=int, required=True)
    c_count.add_argument("--a", type=int, required=True)
    c_count.add_argument("--m", type=int, required=True)
    c_count.add_argument("--p", type=int, required=True)
    c_count.add_argument("--mod-exp", type=int, default=2)

    c_u = csub.add_parser("u")
    c_u.add_argument("--b", type=int, required=True)
    c_u.add_argument("--alphas", required=True, help="exponents, e.g. 1,1,2")
    c_u.add_argument("--p", type=int, required=True)
    c_u.add_argument("--r", type=int, default=1)

    srch = sub.add_parser("search", help="reconstruct a rational constant from modular data")
    srch.add_argument("--family", choices=SEARCH_FAMILIES, required=True)
    srch.add_argument("--d", type=int, required=True)
    srch.add_argument("--m", type=int, default=1, help="multiplier of the c and cprime families; qd takes only 1")
    srch.add_argument("--primes", required=True)
    srch.add_argument("--report", action="store_true", help="include per-prime observations")
    srch.add_argument("--format", choices=("text", "json"), default="text")
    srch.add_argument("--out")

    orc = sub.add_parser("oracle", help="cross-check the derivative-ladder evaluator against Kronecker powering")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--m", type=int, required=True)
    orc.add_argument("--p", type=int, required=True)
    orc.add_argument("--r", type=int, default=1, dest="r_exp")
    orc.add_argument("--bounded", action="store_true", help="bound parts by p**r")
    orc.add_argument("--mod-exp", type=int)
    orc.add_argument("--target", type=int, help="override the target sum")

    return parser


def _cmd_verify(args) -> int:
    claim_ids = list(CLAIMS) if args.claims.strip().upper() == "ALL" else [
        c.strip() for c in args.claims.split(",") if c.strip()
    ]
    if not claim_ids:
        print(f"--claims {args.claims!r} selects no value", file=sys.stderr)
        return 2
    for cid in claim_ids:
        if cid not in CLAIMS:
            print(f"unknown claim id {cid!r}; known: {', '.join(CLAIMS)}", file=sys.stderr)
            return 2
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    grid_flags = (("--primes", args.primes, _parse_primes), ("--r", args.rs, _parse_int_range),
                  ("--m", args.ms, _parse_int_range))
    selected = [None if text is None else parse(text, flag) for flag, text, parse in grid_flags]
    for (flag, text, _), values in zip(grid_flags, selected):
        if values == ():
            print(f"{flag} {text!r} selects no value", file=sys.stderr)
            return 2
    points = [_parse_instance(text) for text in args.instance]
    cache_path = args.cache or cache_mod.default_cache_path()
    cache = cache_mod.ResidueCache(cache_path) if cache_path else None
    ctx = EvalContext(cache_rows=cache.rows if cache else None)
    if points:
        instances = [instance_from_params(cid, point) for point in points for cid in claim_ids]
        reports = verify_instances(instances, ctx, jobs=args.jobs)
    else:
        reports = sweep(claim_ids, GridSpec(*selected), ctx=ctx, jobs=args.jobs)
    if cache is not None:
        cache.append(ctx.new_rows)
    reports_mod.emit_report(reports, args.format, path=args.out)
    if args.stats:
        print(
            f"comp_sum evaluations: {ctx.comp_sum_evals} (cache hits: {ctx.cache_hits})",
            file=sys.stderr,
        )
    statuses = {rep.status for rep in reports}
    if "error" in statuses:
        return 2
    if "fail" in statuses:
        return 1
    return 0


def _cmd_compute(args) -> int:
    if args.quantity == "bernoulli":
        if args.mod_p is not None:
            print(bernoulli_mod_p(args.k, args.mod_p))
        else:
            print(bernoulli_exact(args.k))
        return 0
    if args.quantity == "mhs":
        M = PrimePowerModulus(args.p, args.r)
        fn = mhs_restricted if args.restricted else mhs
        print(fn(args.N, _parse_comp(args.s, "--s"), M))
        return 0
    if args.quantity in ("s", "r"):
        spec = (s_spec if args.quantity == "s" else r_spec)(args.n, args.m, args.p, args.r_exp)
        e = args.mod_exp if args.mod_exp is not None else args.r_exp
        print(comp_sum(spec, PrimePowerModulus(args.p, e)))
        return 0
    if args.quantity == "count":
        M = PrimePowerModulus(args.p, args.mod_exp)
        print(count_solutions_exact(args.a, args.m, args.n, args.p) % M.modulus)
        return 0
    if args.quantity == "u":
        M = PrimePowerModulus(args.p, args.r)
        print(unordered_sum(args.b, _parse_comp(args.alphas, "--alphas"), M))
        return 0
    raise AssertionError(args.quantity)


def _cmd_search(args) -> int:
    from .ratrecon import hunt_constant

    result = hunt_constant(args.family, args.d, args.m, list(_parse_primes(args.primes)))
    if args.format == "json":
        import json

        doc = {
            "family": args.family,
            "d": args.d,
            "m": args.m,
            "status": result.status,
            "candidate": str(result.candidate) if result.candidate is not None else None,
            "combined_modulus": result.combined_modulus,
            "bound": result.bound,
            "used_primes": list(result.used_primes),
            "skipped": [[p, reason] for p, reason in result.skipped],
            "note": result.note,
        }
        if args.report:
            doc["observations"] = [[o.p, o.value] for o in result.observations]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [
            f"family={args.family} d={args.d} m={args.m}",
            f"status: {result.status}",
            f"candidate: {result.candidate if result.candidate is not None else '-'}",
            f"combined modulus: {result.combined_modulus}",
            f"bound: {result.bound}",
            f"primes used: {' '.join(str(p) for p in result.used_primes)}",
        ]
        for p, reason in result.skipped:
            lines.append(f"skipped {p}: {reason}")
        if args.report:
            for obs in result.observations:
                lines.append(f"observation {obs.p}: {obs.value}")
        lines.append(f"note: {result.note}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    bound = args.p**args.r_exp if args.bounded else None
    spec = CompSumSpec(args.n, args.m, args.p, args.r_exp, upper_bound=bound, target=args.target)
    e = args.mod_exp if args.mod_exp is not None else args.r_exp
    M = PrimePowerModulus(args.p, e)
    # the oracle first: a request too large for it is refused before any ladder is climbed
    oracle = comp_sum_kronecker(spec, M)
    fast = comp_sum(spec, M)
    agree = fast == oracle
    print(f"ladder:    {fast}")
    print(f"kronecker: {oracle}")
    print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(args.command)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
