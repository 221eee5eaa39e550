"""Command-line front end.

Batch and non-interactive: every subcommand resolves its configuration,
runs one computation, and emits a machine-readable result.  JSON output
follows the versioned schema shipped in ``schemas/``; CSV encodes the
same values (big integers as decimal strings, reals as shortest
round-trip doubles).  Exit codes: 0 success, 1 numeric breakdown or an
internal error, 2 usage error (bad input, or an --out file that cannot
be written), 3 guard refusal, 130 interrupted (Ctrl-C or SIGINT), 141
stdout closed by its reader (128 + SIGPIPE, as a shell reports a
process killed by SIGPIPE; nothing is written then); every other error
goes to stderr as one JSON object, never as a traceback.

Each command imports only its own layer, inside its ``_cmd_*`` function:
start-up loads argparse and this module, so ``count p`` and ``zeros
lower-bound`` load only ``counting`` and the ``partitions`` it imports,
and no ``bounds`` command loads ``characters`` or ``sampling``.  The
parsers are built per run from one table, ``_COMMANDS``: an argv that
starts with a command's words builds only the parsers on its way down,
and anything else (--help, a group, an unknown word) the whole tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import GuardError, NumericError, check_cost

SCHEMA_VERSION = 1

# the only cost guard not in the library: one sweep row at n = 20 takes
# 0.02-0.04 s from nothing, 0.007-0.016 s after the row at n = 19
SWEEP_GUARD_ROWS = 100


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable usage errors on stderr."""

    def error(self, message):
        _write_error(2, "usage", message)
        raise SystemExit(2)


def _write_error(code: int, kind: str, message) -> None:
    json.dump({"error": {"code": code, "type": kind, "message": str(message)}},
              sys.stderr)
    sys.stderr.write("\n")


# ---------------------------------------------------------------------------
# command implementations: each returns the result payload dict

def _cmd_count_p(args):
    from .counting import partition_count

    return {"kind": "count", "family": "p", "n": args.n, "t": None,
            "value": str(partition_count(args.n))}


def _cmd_count_pt(args):
    from .counting import bounded_partition_count

    return {"kind": "count", "family": "pt", "n": args.n, "t": args.t,
            "value": str(bounded_partition_count(args.t, args.n))}


def _cmd_count_core(args):
    from .counting import tcore_count, tcore_count_bruteforce

    count = tcore_count_bruteforce if args.brute else tcore_count
    return {"kind": "count", "family": "core", "n": args.n, "t": args.t,
            "brute": bool(args.brute), "value": str(count(args.t, args.n))}


def _cmd_char_eval(args):
    from .characters import character_value
    from .partitions import parse_partition

    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
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
    from .counting import lower_bound_partial

    t_lo = 1 if args.t_lo is None else args.t_lo
    t_hi = args.n if args.t_hi is None else args.t_hi
    return {"kind": "lower_bound", "N": args.n, "t_lo": t_lo, "t_hi": t_hi,
            "value": str(lower_bound_partial(args.n, t_lo, t_hi))}


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
    from .characters import _check_table_size, zero_count
    from .counting import lower_bound_partial

    # zero_count's own check, in order, on the end points of each range,
    # which bound every n in it, then the row count: a refusal comes
    # before any range is expanded or any census starts
    for span in args.n_list:
        if span:
            _check_table_size(span[0])
            _check_table_size(span[-1])
    check_cost(sum(map(len, args.n_list)), SWEEP_GUARD_ROWS, "rows (census runs)")
    n_list = []
    for span in args.n_list:
        n_list.extend(span)
    args.n_list = n_list  # the config echoes every n
    by_n = {}  # a repeated n reuses its row
    for n in dict.fromkeys(n_list):
        census = zero_count(n)
        lb = lower_bound_partial(n, 1, n)
        z = census.total_zeros
        p_n = census.table_dim
        if n >= 2:  # the 2 p(n)^2 / log n bound is undefined at n = 1
            report = full_table_bound(n, z or None)
            log_t12, p_source, ratio = report.bound.log, report.p_source, report.ratio
        else:
            log_t12 = p_source = ratio = None
        by_n[n] = {
            "N": n,
            "p_N": str(p_n),
            "Z": str(z),
            "lower_bound": str(lb),
            "lower_bound_over_Z": None if z == 0 else lb / z,
            "z_ratio_to_t12": ratio,
            "log_t12_bound": log_t12,
            "p_source": p_source,
        }
    return {"kind": "sweep", "rows": [by_n[n] for n in n_list]}


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
        sys.stdout.flush()  # a reader that closed the pipe shows here


# ---------------------------------------------------------------------------
# parser

def _n_ranges(text: str) -> list[range]:
    """The comma list "3-14" or "4,6,8" as ranges, not yet expanded; a
    token that is not an n or a range, or a range that holds no n, such
    as "5-3", is a usage error that names it."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            if "-" in tok[1:]:
                a, b = tok.split("-", 1)
                span = range(int(a), int(b) + 1)
            else:
                n = int(tok)
                span = range(n, n + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an n or a range: {tok!r}") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty range {tok!r}")
        out.append(span)
    return out


class _P32Regimes:
    """The --regime choices, read from ``asymptotics`` only when argparse
    checks a given value, so that building the parser loads no layer."""

    def __iter__(self):
        from .asymptotics import P32_REGIMES

        return iter(P32_REGIMES)


def _command(help_text: str, *options, default_format: str = "human",
             **keywords) -> tuple:
    """A command of the tree: its parser takes --format and --out, then
    ``options``, each a (flag, ``add_argument`` keywords) pair;
    ``keywords`` go to its parser.  Its handler is the ``_cmd_*``
    function named after it, read when the parser is built."""
    return help_text, options, default_format, keywords


_N = ("--n", {"type": int, "required": True})
_T = ("--t", {"type": int, "required": True})
_EPSILON = ("--epsilon", {"type": float, "default": 0.5})

# the command tree, in help order; a group is (help, {name: entry})
_COMMANDS = {
    "count": ("exact count families", {
        "p": _command("partition count p(n)", _N),
        "pt": _command("bounded partition count p_t(n)", _T, _N),
        "core": _command("t-core count c_t(n)", _T, _N,
                         ("--brute", {"action": "store_true",
                                      "help": "use the enumeration oracle "
                                              "instead of the series"})),
    }),
    "char": ("character values and tables", {
        "eval": _command("one character value",
                         ("--lambda", {"dest": "lam", "required": True,
                                       "help": 'row partition, e.g. "[4,2,1]"'}),
                         ("--mu", {"required": True,
                                   "help": 'cycle type, e.g. "[5,2]"'})),
        "table": _command("full table of S_n", _N, default_format="csv"),
    }),
    "zeros": ("exact zero censuses", {
        "exact": _command("full zero census", _N),
        "lower-bound": _command("guaranteed-zero sum, optionally over a t range", _N,
                                ("--t-lo", {"type": int, "default": None}),
                                ("--t-hi", {"type": int, "default": None})),
    }),
    "bounds": ("asymptotic bound evaluators", {
        "t12": _command("full-table zero bound 2 p(n)^2 / log n", _N),
        "t13": _command("t-core strip zero bound", _N, _T, _EPSILON),
        # argparse lists the choices of an argument with a help text when
        # it prints help, and of one without a metavar when it builds, so
        # --regime has a metavar and is described on its parser
        "p32": _command("core-count bound in its four regimes", _N, _T, _EPSILON,
                        ("--regime", {"choices": _P32Regimes(), "metavar": "REGIME",
                                      "default": None}),
                        description="--regime forces a regime (P32_I to "
                                    "P32_IV) instead of auto-selecting"),
        "saddle": _command("saddle ordinate for the core-count estimate", _N, _T,
                           ("--tol", {"type": float, "default": 1e-9,
                                      "help": "relative residual tolerance"})),
    }),
    "estimate": ("Monte Carlo probes", {
        "density": _command("zero density over uniform pairs", _N,
                            ("--samples", {"type": int, "required": True}),
                            ("--seed", {"type": int, "default": None,
                                        "help": "64-bit seed; generated and "
                                                "reported when absent"})),
    }),
    "sweep": _command("census vs bound comparison table over many n",
                      ("--n-list", {"type": _n_ranges, "required": True,
                                    "help": 'comma list with ranges, e.g. '
                                            '"3-14" or "4,6,8"'}),
                      default_format="csv"),
}


def _command_path(argv) -> tuple[str, ...]:
    """The leading words of ``argv`` when they name one command, such as
    ("count", "p"); () when they name none or only a group."""
    commands = _COMMANDS
    for depth, word in enumerate(argv):
        entry = commands.get(word)
        if entry is None:
            return ()
        if not isinstance(entry[1], dict):
            return tuple(argv[:depth + 1])
        commands = entry[1]
    return ()


def _add_commands(parser, commands: dict, path: tuple[str, ...], dest: str,
                  prefix: str = "") -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, entry in commands.items():
        if path and name != path[0]:
            continue
        if isinstance(entry[1], dict):  # a group
            _add_commands(sub.add_parser(name, help=entry[0]), entry[1], path[1:],
                          "sub", f"{prefix}{name}.")
            continue
        help_text, options, default_format, keywords = entry
        sp = sub.add_parser(name, help=help_text, **keywords)
        # fresh actions per command: a shared parent would alias the
        # defaults across commands
        sp.add_argument("--format", choices=("json", "csv", "human"),
                        default=default_format,
                        help=f"output format (default {default_format})")
        sp.add_argument("--out", default=None, help="write output to a file")
        for flag, spec in options:
            sp.add_argument(flag, **spec)
        command = prefix + name
        handler = globals()["_cmd_" + command.replace(".", "_").replace("-", "_")]
        sp.set_defaults(func=handler, command=command)


def build_parser(path: tuple[str, ...] = ()) -> _Parser:
    """The parser of every command, or with ``path``, the words that name
    one command, only the parsers on its way down (top, group, command),
    which parse that command's argv and print its help alike."""
    parser = _Parser(prog="charcensus",
                     description="Exact character-table zero censuses and "
                                 "their asymptotic bounds.")
    _add_commands(parser, _COMMANDS, path, "command_name")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a named command builds only its own parsers; --help, a group or an
    # unknown word gets the full tree, which prints and errs as before
    parser = build_parser(_command_path(argv))
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
    except KeyboardInterrupt:  # Ctrl-C or SIGINT; 130 = 128 + SIGINT, as in a shell
        _write_error(130, "interrupted", "interrupted before the command finished")
        return 130
    except BrokenPipeError:  # _emit's reader closed stdout; 141 = 128 + SIGPIPE
        # what stdout still buffers goes to devnull at exit, so interpreter
        # shutdown reports no second broken pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:  # any other fault: one JSON line, no traceback
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        _write_error(1, "internal", f"{type(exc).__name__}: {exc} "
                                    f"(in {where.name}, {where.filename}:{where.lineno})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
