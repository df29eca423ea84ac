"""Command-line driver: parse ideals, run the pipelines, emit tables or JSON.

``COMMANDS`` is the one table of commands: it maps each name to its
handler and to the functions that add its options, in the order of its
help text.  ``main`` builds the top-level parser with the one subparser
that its first argument names.  With no command, ``-h``/``--help`` or a
name it does not know, it builds all of them, so that the top-level help
and argparse's errors list every command.

Exit codes: 0 success, 2 parse error, 3 configuration error (any other
ValueError), 4 computation error (ComputationError), 5 a verification check
failed.  ``main`` picks the code by the type of the exception alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ring import DEFAULT_PRIME
from .groebner import hilbert_function, initial_ideal, default_dmax
from .staircase import MonomialIdeal, is_p_borel_fixed, slice_level
from .gin import (ComputationError, check_connectedness, gin, run_trace,
                  variety_invariants, is_saturated_gin)
from .parsing import (ParseError, max_coefficient, parse_ideal,
                      render_monomial, render_monomial_ideal, render_poly)
from .corpus import (entry_names, entry_report, header_value, load_entry,
                     split_entry)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_COMPUTE = 4
EXIT_CHECK_FAILED = 5


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input plumbing

def _int_tuple(text):
    """Comma-separated integers, such as ``--levels 1,0``."""
    return tuple(int(x) for x in text.split(","))


def _load_input(args):
    """The ideal given by --in or --gens, parsed once at --prime.

    ``--in FILE`` stands for ``--gens`` with the file's generator lines;
    ``--n`` and ``--prime`` default to its ``n:`` and ``prime:`` headers.
    """
    text, n, prime = args.gens, args.n, args.prime
    if args.infile and text:
        raise ConfigError("give either --in or --gens, not both")
    if args.infile:
        try:
            with open(args.infile) as fh:
                header, text, _ = split_entry(fh.read(), name=args.infile)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.infile}: {exc}")
        if n is None:
            n = header_value(header, "n", args.infile)
        if prime is None:
            prime = header_value(header, "prime", args.infile)
    elif not text:
        raise ConfigError("no input: give --in FILE or --gens STR")
    prime = DEFAULT_PRIME if prime is None else prime
    # only the text shows a literal too large for p: parsed, 10 at p = 7 is 3
    largest = max_coefficient(text)
    if largest is not None and prime <= 2 * largest:
        raise ConfigError(f"prime {prime} too small for coefficient "
                          f"{largest}: need p > {2 * largest}")
    return parse_ideal(text, nvars=None if n is None else n + 1, prime=prime)


def _monomial_ideal_from(ideal) -> MonomialIdeal:
    monos = []
    for g in ideal.gens:
        if len(g.packed) != 1:
            raise ConfigError(
                f"{render_poly(g)} is not a monomial; compute gin first")
        monos.append(g.lead_monomial)
    return MonomialIdeal.from_monomials(ideal.ring.nvars, monos)


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {_plain(value)}")


def _plain(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# commands

def cmd_gin(args):
    ideal = _load_input(args)
    result = gin(ideal, seed=args.seed, votes=args.votes)
    _emit({"gin": render_monomial_ideal(result.gin),
           "agreed": result.agreed,
           "samples": result.samples_used,
           "borel_fixed": True,
           "saturated": is_saturated_gin(result.gin)}, args.as_json)
    return EXIT_OK


def cmd_invariants(args):
    ideal = _load_input(args)
    inv = variety_invariants(ideal, seed=args.seed, votes=args.votes)
    if args.as_json:
        _emit({"gin": [render_monomial(g) for g in inv.gin_result.gin.gens],
               "s_Z": inv.s_Z,
               "s_Gamma": inv.s_Gamma,
               "invariant_table": inv.table.to_json_entries()}, True)
        return EXIT_OK
    print(f"gin: {render_monomial_ideal(inv.gin_result.gin)}")
    print(f"s_Z: {inv.s_Z}")
    print(f"s_Gamma: {inv.s_Gamma}")
    for p_hat, prof in inv.table.entries:
        p_txt = ",".join(map(str, p_hat))
        lam = ", ".join(map(str, prof.lambdas))
        print(f"p_hat=({p_txt}) s={prof.s} lambda=({lam})")
    return EXIT_OK


def cmd_check(args):
    ideal = _load_input(args)
    report = check_connectedness(ideal, seed=args.seed, votes=args.votes)
    if args.as_json:
        _emit(report.to_json(), True)
    else:
        yn = lambda b: "yes" if b else "no"
        print(f"s_Z={report.s_Z} s_Gamma={report.s_Gamma} "
              f"hypothesis={yn(report.hypothesis)} "
              f"connected={yn(report.all_connected)}")
        for p_hat, index in report.violations:
            print(f"violation: p_hat=({','.join(map(str, p_hat))}) index={index}")
        if ideal.ring.nvars == 4:
            print(f"low_levels_connected={yn(report.low_levels_ok)}")
    failed = (report.hypothesis and not report.all_connected) or \
        (ideal.ring.nvars == 4 and not report.low_levels_ok)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_slice(args):
    ideal = _load_input(args)
    M = _monomial_ideal_from(ideal)
    sliced = slice_level(M, args.axis, args.level)
    _emit({"slice": render_monomial_ideal(sliced),
           "axis": args.axis, "level": args.level}, args.as_json)
    return EXIT_OK


def cmd_borel(args):
    ideal = _load_input(args)
    M = _monomial_ideal_from(ideal)
    ok, witness = is_p_borel_fixed(M, ideal.ring.prime)
    payload = {"borel_fixed": ok}
    if witness is not None:
        g, move = witness  # a move index below p, else the moved monomial
        move = f"e_{move}" if isinstance(move, int) else render_monomial(move)
        payload["witness"] = f"({render_monomial(g)}, {move})"
    _emit(payload, args.as_json)
    return EXIT_OK


def cmd_hilbert(args):
    ideal = _load_input(args)
    try:
        M = _monomial_ideal_from(ideal)
    except ConfigError:
        M = initial_ideal(ideal)
    dmax = args.dmax if args.dmax is not None else default_dmax(M)
    hf = hilbert_function(M, dmax)
    _emit({"hilbert": list(hf), "dmax": dmax}, args.as_json)
    return EXIT_OK


def cmd_trace(args):
    ideal = _load_input(args)
    n = ideal.ring.nvars - 1
    levels = args.levels if args.levels is not None else (0,) * max(n - 2, 0)
    result = run_trace(ideal, levels, seed=args.seed, votes=args.votes)
    if args.as_json:
        _emit(result.to_json(), True)
    else:
        _emit({"levels": list(result.levels),
               "slice_gin": render_monomial_ideal(result.slice_gin),
               "analytic_gin": render_monomial_ideal(result.analytic_gin),
               "step1": result.step1_ok,
               "delta": result.delta,
               "delta_is_internal_gap": result.delta_is_internal_gap,
               "gcd_degree": result.gcd_degree,
               "expected_gcd_degree": result.expected_gcd_degree,
               "step2": result.step2_ok,
               "consistent": result.consistent,
               "passed": result.passed}, False)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# corpus-run

def cmd_corpus_run(args):
    names = entry_names()
    if args.entries:
        # empty names are dropped, as empty generators are from --gens
        wanted = {name for part in args.entries.split(",")
                  if (name := part.strip())}
        if not wanted:
            raise ConfigError(f"--entries {args.entries!r} names no entry")
        unknown = wanted - set(names)
        if unknown:
            raise ConfigError(f"unknown corpus entries: {sorted(unknown)}")
        names = [name for name in names if name in wanted]

    reports = [entry_report(load_entry(name), seed=args.seed, votes=args.votes)
               for name in names]
    all_passed = all(r["passed"] for r in reports)
    if args.as_json:
        _emit({"prime": DEFAULT_PRIME, "seed": args.seed, "votes": args.votes,
               "entries": reports, "all_passed": all_passed}, True)
    else:
        for report in reports:
            status = "ok" if report["passed"] else "FAILED"
            print(f"[{report['name']}] gin={', '.join(report['gin'])} "
                  f"agreed={report['agreed']} connected={report['connected']} "
                  f"slice={report['checks']['slice']['passed']} "
                  f"gaps={report['checks']['gap_truncation']['passed']} "
                  f"trace={report['checks']['proof_trace'].get('passed', 'skipped')} "
                  f"-> {status}")
        print(f"all_passed: {_plain(all_passed)}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument wiring

def _inputs(p):
    """Every single-ideal command reads its input the same way."""
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="ideal file (corpus entry format)")
    p.add_argument("--gens", metavar="STR",
                   help="comma-separated generator polynomials")
    p.add_argument("--n", type=int, default=None,
                   help="ambient projective dimension (default: inferred)")
    p.add_argument("--prime", type=int, default=None,
                   help=f"field characteristic (default {DEFAULT_PRIME})")
    p.add_argument("--json", action="store_true", dest="as_json")


def _sampling(p):
    """The commands that draw coordinate changes."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--votes", type=int, default=2)


def _slice_options(p):
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--level", type=int, required=True)


def _hilbert_options(p):
    p.add_argument("--dmax", type=int, default=None)


def _trace_options(p):
    p.add_argument("--levels", default=None, type=_int_tuple,
                   help="comma-separated colon levels for x2..x_{n-1}")


def _corpus_run_options(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--votes", type=int, default=5)
    p.add_argument("--entries", default="",
                   help="comma-separated entry names (default: all)")
    p.add_argument("--json", action="store_true", dest="as_json")


# each command's handler and the functions that add its options, in order
COMMANDS = {
    "gin": (cmd_gin, _inputs, _sampling),
    "invariants": (cmd_invariants, _inputs, _sampling),
    "check": (cmd_check, _inputs, _sampling),
    "slice": (cmd_slice, _inputs, _slice_options),
    "borel": (cmd_borel, _inputs),
    "hilbert": (cmd_hilbert, _inputs, _hilbert_options),
    "trace": (cmd_trace, _inputs, _sampling, _trace_options),
    "corpus-run": (cmd_corpus_run, _corpus_run_options),
}


def build_parser(command=None):
    """The parser for ``command``'s lines, or, with None, for every
    command's.

    A parser built for one command still names all of them in its usage
    line, as the parser for every command does.
    """
    parser = argparse.ArgumentParser(
        prog="gintools",
        description="generic initial ideals and monomial invariants")
    names = list(COMMANDS) if command is None else [command]
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in names:
        fn, *options = COMMANDS[name]
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for add in options:
            add(p)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # help, no command or an unknown one needs every command's parser
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
