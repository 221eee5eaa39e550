"""Command-line front end.

Batch and non-interactive: every subcommand resolves its configuration,
runs one computation, and emits a machine-readable result.  JSON output
follows the versioned schema shipped in ``schemas/``; CSV encodes the
same values (big integers as decimal strings, reals as shortest
round-trip doubles).  Exit codes: 0 success, 1 numeric breakdown or an
internal error, 2 usage error (bad input, or an --out file that cannot
be written), 3 guard refusal; every error goes to stderr as one JSON
object, never as a traceback.

Each command imports only its own layer, inside its ``_cmd_*`` function:
start-up loads argparse and this module, so ``count p`` loads only
``counting`` and the ``partitions`` it imports, and no ``bounds``
command loads ``characters`` or ``sampling``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import GuardError, NumericError

SCHEMA_VERSION = 1

# Cost guards: a request above one of these is refused (exit 3) before any
# work starts.  Measured on a 2-core Xeon: one p(n) is a Rademacher sum,
# about 10 ms at n = 10^5, but c_t(n) and the guaranteed-zero sum read the
# whole table p(0..n), 2.5 s at n = 10^5; one p_t(n) with t < n takes t n
# additions, 5 * 10^7 of them 4.9 s (n = 20000) to 7.1 s (n = 10^5); one
# c_t(n) takes (n/t)^2 eta-power steps, 10^8 of them 2-3 s; the
# guaranteed-zero sum adds n * t_hi steps of the p_t table, and a cost of
# 1.7 * 10^8 (n = 8000) took 4.9-7.1 s.
P_GUARD_N = 100_000
PT_GUARD_STEPS = 5 * 10**7
CORE_GUARD_STEPS = 10**8
LOWER_BOUND_GUARD_STEPS = 2 * 10**8


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable usage errors on stderr."""

    def error(self, message):
        _write_error(2, "usage", message)
        raise SystemExit(2)


def _write_error(code: int, kind: str, message) -> None:
    json.dump({"error": {"code": code, "type": kind, "message": str(message)}},
              sys.stderr)
    sys.stderr.write("\n")


def _guard(cost: int, limit: int, what: str) -> None:
    if cost > limit:
        raise GuardError(f"{what} = {cost} exceeds the limit {limit}")


def _guard_p(n: int, what: str = "n (exact p(0..n))") -> None:
    _guard(n, P_GUARD_N, what)


# ---------------------------------------------------------------------------
# command implementations: each returns the result payload dict

def _cmd_count_p(args):
    from .counting import partition_count

    _guard_p(args.n, "n (exact p(n))")
    return {"kind": "count", "family": "p", "n": args.n, "t": None,
            "value": str(partition_count(args.n))}


def _cmd_count_pt(args):
    from .counting import bounded_partition_count

    _guard_p(args.n, "n (exact p(n) or p_t(n))")
    if args.t < args.n:
        _guard(args.t * args.n, PT_GUARD_STEPS, "t n (steps of the p_t(n) recurrence)")
    return {"kind": "count", "family": "pt", "n": args.n, "t": args.t,
            "value": str(bounded_partition_count(args.t, args.n))}


def _cmd_count_core(args):
    from .counting import tcore_count, tcore_count_bruteforce

    if args.brute:
        value = tcore_count_bruteforce(args.t, args.n)
    else:
        _guard_p(args.n)
        if args.t >= 1:
            _guard((args.n // args.t) ** 2, CORE_GUARD_STEPS,
                   "(n/t)^2 (eta-power steps of c_t(n))")
        value = tcore_count(args.t, args.n)
    return {"kind": "count", "family": "core", "n": args.n, "t": args.t,
            "brute": bool(args.brute), "value": str(value)}


def _cmd_char_eval(args):
    from .characters import _check_value_size, character_value
    from .partitions import parse_partition

    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    _check_value_size(lam.size)
    _check_value_size(mu.size)
    return {"kind": "char_value", "lambda": str(lam), "mu": str(mu),
            "chi": str(character_value(lam, mu))}


def _cmd_char_table(args):
    from .characters import character_table

    table = character_table(args.n)
    return {"kind": "char_table", "N": args.n, "dim": len(table.partitions),
            "partitions": [str(p) for p in table.partitions],
            "rows": [[str(v) for v in row] for row in table.rows]}


def _cmd_zeros_exact(args):
    from .characters import zero_count

    census = zero_count(args.n)
    return {"kind": "census", **census.to_json_dict()}


def _cmd_zeros_lower_bound(args):
    from .characters import lower_bound_partial

    t_lo = 1 if args.t_lo is None else args.t_lo
    t_hi = args.n if args.t_hi is None else args.t_hi
    _guard_p(args.n)
    if 1 <= t_lo <= t_hi <= args.n:
        cost = sum((args.n // t) ** 2 for t in range(t_lo, t_hi + 1)) + args.n * t_hi
        _guard(cost, LOWER_BOUND_GUARD_STEPS,
               "sum_t (n/t)^2 + n t_hi (steps of the guaranteed-zero sum)")
    value = lower_bound_partial(args.n, t_lo, t_hi)
    return {"kind": "lower_bound", "N": args.n, "t_lo": t_lo, "t_hi": t_hi,
            "value": str(value)}


def _cmd_bounds_t12(args):
    from .asymptotics import full_table_bound

    report = full_table_bound(args.n)
    return {"kind": "bound", **report.to_json_dict()}


def _cmd_bounds_t13(args):
    from .asymptotics import strip_zero_bound

    report = strip_zero_bound(args.n, args.t, args.epsilon)
    return {"kind": "bound", **report.to_json_dict()}


def _cmd_bounds_p32(args):
    from .asymptotics import core_count_bound

    report = core_count_bound(args.n, args.t, args.epsilon, regime=args.regime)
    return {"kind": "bound", **report.to_json_dict()}


def _cmd_bounds_saddle(args):
    from .asymptotics import solve_saddle

    sol = solve_saddle(args.n, args.t, tol=args.tol)
    return {"kind": "saddle", "N": sol.n, "t": sol.t, "y": sol.y,
            "bracket_lo": sol.bracket_lo, "bracket_hi": sol.bracket_hi,
            "residual": sol.residual, "ty_regime": sol.ty_regime}


def _cmd_estimate_density(args):
    from .sampling import estimate_zero_density

    est = estimate_zero_density(args.n, args.samples, args.seed)
    return {"kind": "density", **est.to_json_dict()}


def _cmd_sweep(args):
    from .asymptotics import full_table_bound
    from .characters import _check_table_size, lower_bound_partial, zero_count

    # zero_count's own check, in order, on the end points of each range,
    # which bound every n in it: a refusal comes before any range is
    # expanded or any census starts
    for span in args.n_list:
        if span:
            _check_table_size(span[0])
            _check_table_size(span[-1])
    n_list = []
    for span in args.n_list:
        n_list.extend(span)
    args.n_list = n_list  # the config echoes every n
    rows = []
    for n in args.n_list:
        census = zero_count(n)
        lb = lower_bound_partial(n, 1, n)
        z = census.total_zeros
        p_n = census.table_dim
        if n >= 2:  # the 2 p(n)^2 / log n bound is undefined at n = 1
            report = full_table_bound(n, z or None)
            log_t12, p_source, ratio = report.bound.log, report.p_source, report.ratio
        else:
            log_t12 = p_source = ratio = None
        rows.append({
            "N": n,
            "p_N": str(p_n),
            "Z": str(z),
            "lower_bound": str(lb),
            "lower_bound_over_Z": None if z == 0 else lb / z,
            "z_ratio_to_t12": ratio,
            "log_t12_bound": log_t12,
            "p_source": p_source,
        })
    return {"kind": "sweep", "rows": rows}


# ---------------------------------------------------------------------------
# output formatting

def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out[prefix] = value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _result_to_csv(result: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if result["kind"] == "char_table":
        writer.writerow(["lambda"] + result["partitions"])
        for lam, row in zip(result["partitions"], result["rows"]):
            writer.writerow([lam] + row)
    elif result["kind"] == "sweep":
        header = ["N", "p_N", "Z", "lower_bound", "lower_bound_over_Z",
                  "z_ratio_to_t12", "log_t12_bound", "p_source"]
        writer.writerow(header)
        for row in result["rows"]:
            writer.writerow([_cell(row[k]) for k in header])
    else:
        flat: dict = {}
        _flatten("", {k: v for k, v in result.items() if k != "kind"}, flat)
        writer.writerow(list(flat))
        writer.writerow([_cell(v) for v in flat.values()])
    return buf.getvalue()


def _result_to_human(config: dict, result: dict) -> str:
    lines = [f"# {k} = {_cell(v)}" for k, v in sorted(config.items())]
    flat: dict = {}
    _flatten("", {k: v for k, v in result.items() if k != "kind"}, flat)
    if result["kind"] == "char_table":
        lines.append(f"character table of S_{result['N']}: "
                     f"{result['dim']} x {result['dim']}")
        lines.append(_result_to_csv(result).rstrip("\n"))
    elif result["kind"] == "sweep":
        lines.append(_result_to_csv(result).rstrip("\n"))
    else:
        width = max(len(k) for k in flat)
        lines.extend(f"{k.ljust(width)}  {_cell(v)}" for k, v in flat.items())
    return "\n".join(lines) + "\n"


def _emit(args, command: str, result: dict) -> None:
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "command_name") and not k.startswith("_")}
    config["command"] = command
    if args.format == "json":
        envelope = {"schema_version": SCHEMA_VERSION, "command": command,
                    "config": config, "result": result}
        text = json.dumps(envelope, indent=2) + "\n"
    elif args.format == "csv":
        # data stays RFC-4180 clean; the resolved config goes to stderr
        json.dump({"config": config}, sys.stderr)
        sys.stderr.write("\n")
        text = _result_to_csv(result)
    else:
        text = _result_to_human(config, result)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: "
                             f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser

def _n_ranges(text: str) -> list[range]:
    """The comma list "3-14" or "4,6,8" as ranges, not yet expanded."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if "-" in tok[1:]:
            a, b = tok.split("-", 1)
            out.append(range(int(a), int(b) + 1))
        else:
            n = int(tok)
            out.append(range(n, n + 1))
    if not any(out):
        raise ValueError("empty n-list")
    return out


class _P32Regimes:
    """The --regime choices, read from ``asymptotics`` only when argparse
    checks a given value, so that building the parser loads no layer."""

    def __iter__(self):
        from .asymptotics import P32_REGIMES

        return iter(P32_REGIMES)


def _add_common(sp: argparse.ArgumentParser, default_format: str = "human") -> None:
    # fresh actions per subparser: a shared parent would alias the
    # defaults across commands
    sp.add_argument("--format", choices=("json", "csv", "human"),
                    default=default_format,
                    help=f"output format (default {default_format})")
    sp.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> _Parser:
    parser = _Parser(prog="charcensus",
                     description="Exact character-table zero censuses and "
                                 "their asymptotic bounds.")
    top = parser.add_subparsers(dest="command_name", required=True)

    count = top.add_parser("count", help="exact count families").add_subparsers(
        dest="sub", required=True)
    p = count.add_parser("p", help="partition count p(n)")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_count_p, command="count.p")
    pt = count.add_parser("pt", help="bounded partition count p_t(n)")
    _add_common(pt)
    pt.add_argument("--t", type=int, required=True)
    pt.add_argument("--n", type=int, required=True)
    pt.set_defaults(func=_cmd_count_pt, command="count.pt")
    core = count.add_parser("core", help="t-core count c_t(n)")
    _add_common(core)
    core.add_argument("--t", type=int, required=True)
    core.add_argument("--n", type=int, required=True)
    core.add_argument("--brute", action="store_true",
                      help="use the enumeration oracle instead of the series")
    core.set_defaults(func=_cmd_count_core, command="count.core")

    char = top.add_parser("char", help="character values and tables").add_subparsers(
        dest="sub", required=True)
    ev = char.add_parser("eval", help="one character value")
    _add_common(ev)
    ev.add_argument("--lambda", dest="lam", required=True,
                    help='row partition, e.g. "[4,2,1]"')
    ev.add_argument("--mu", dest="mu", required=True,
                    help='cycle type, e.g. "[5,2]"')
    ev.set_defaults(func=_cmd_char_eval, command="char.eval")
    tab = char.add_parser("table", help="full table of S_n")
    _add_common(tab, default_format="csv")
    tab.add_argument("--n", type=int, required=True)
    tab.set_defaults(func=_cmd_char_table, command="char.table")

    zeros = top.add_parser("zeros", help="exact zero censuses").add_subparsers(
        dest="sub", required=True)
    ze = zeros.add_parser("exact", help="full zero census")
    _add_common(ze)
    ze.add_argument("--n", type=int, required=True)
    ze.set_defaults(func=_cmd_zeros_exact, command="zeros.exact")
    zl = zeros.add_parser("lower-bound",
                          help="guaranteed-zero sum, optionally over a t range")
    _add_common(zl)
    zl.add_argument("--n", type=int, required=True)
    zl.add_argument("--t-lo", type=int, default=None)
    zl.add_argument("--t-hi", type=int, default=None)
    zl.set_defaults(func=_cmd_zeros_lower_bound, command="zeros.lower-bound")

    bounds = top.add_parser("bounds", help="asymptotic bound evaluators"
                            ).add_subparsers(dest="sub", required=True)
    t12 = bounds.add_parser("t12", help="full-table zero bound 2 p(n)^2 / log n")
    _add_common(t12)
    t12.add_argument("--n", type=int, required=True)
    t12.set_defaults(func=_cmd_bounds_t12, command="bounds.t12")
    t13 = bounds.add_parser("t13", help="t-core strip zero bound")
    _add_common(t13)
    t13.add_argument("--n", type=int, required=True)
    t13.add_argument("--t", type=int, required=True)
    t13.add_argument("--epsilon", type=float, default=0.5)
    t13.set_defaults(func=_cmd_bounds_t13, command="bounds.t13")
    # argparse lists the choices of an argument with a help text when it
    # prints help, and of one without a metavar when it builds, so --regime
    # has a metavar and is described on its parser
    p32 = bounds.add_parser("p32", help="core-count bound in its four regimes",
                            description="--regime forces a regime (P32_I to "
                                        "P32_IV) instead of auto-selecting")
    _add_common(p32)
    p32.add_argument("--n", type=int, required=True)
    p32.add_argument("--t", type=int, required=True)
    p32.add_argument("--epsilon", type=float, default=0.5)
    p32.add_argument("--regime", choices=_P32Regimes(), metavar="REGIME",
                     default=None)
    p32.set_defaults(func=_cmd_bounds_p32, command="bounds.p32")
    sad = bounds.add_parser("saddle",
                            help="saddle ordinate for the core-count estimate")
    _add_common(sad)
    sad.add_argument("--n", type=int, required=True)
    sad.add_argument("--t", type=int, required=True)
    sad.add_argument("--tol", type=float, default=1e-9,
                     help="relative residual tolerance")
    sad.set_defaults(func=_cmd_bounds_saddle, command="bounds.saddle")

    est = top.add_parser("estimate", help="Monte Carlo probes").add_subparsers(
        dest="sub", required=True)
    den = est.add_parser("density", help="zero density over uniform pairs")
    _add_common(den)
    den.add_argument("--n", type=int, required=True)
    den.add_argument("--samples", type=int, required=True)
    den.add_argument("--seed", type=int, default=None,
                     help="64-bit seed; generated and reported when absent")
    den.set_defaults(func=_cmd_estimate_density, command="estimate.density")

    sw = top.add_parser("sweep",
                        help="census vs bound comparison table over many n")
    _add_common(sw, default_format="csv")
    sw.add_argument("--n-list", type=_n_ranges, required=True,
                    help='comma list with ranges, e.g. "3-14" or "4,6,8"')
    sw.set_defaults(func=_cmd_sweep, command="sweep")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    if getattr(args, "seed", "absent") is None:
        import secrets

        args.seed = secrets.randbits(63)
    try:
        _emit(args, args.command, args.func(args))
    except GuardError as exc:
        _write_error(3, "guard", exc)
        return 3
    except NumericError as exc:
        _write_error(1, "numeric", exc)
        return 1
    except ValueError as exc:
        _write_error(2, "usage", exc)
        return 2
    except Exception as exc:  # any other fault: one JSON line, no traceback
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        _write_error(1, "internal", f"{type(exc).__name__}: {exc} "
                                    f"(in {where.name}, {where.filename}:{where.lineno})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
