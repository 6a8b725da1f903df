"""Command line front end.

Exit codes: 0 on success, 1 on a verification failure (or a failed pair
check, a cancelled job or a reader of stdout that went away), 2 on usage
errors.  Output goes to stdout in the chosen format; progress and
diagnostics stay on stderr so stdout remains machine-clean.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from typing import Callable, Optional

from . import engine, formulas, verify, words
from .engine import AvoidanceQuery, SearchCancelled
from .perms import format_perm, parse_pattern_set, parse_perm
from .polynomials import QPoly

_POLY_STATS = ("inv", "maj", "majdes")


def _show(fmt: str, text: Callable[[], list], record: Callable[[], object],
          csv: Optional[Callable[[], list]] = None) -> None:
    """Print a command's finished result in the chosen format: json prints the
    record, csv the rows of a command that has them, and every other case the
    text lines, if there are any.  Each form is a function of no arguments, so
    only the form printed is built."""
    if fmt == "json":
        print(json.dumps(record()))
    elif fmt == "csv" and csv is not None:
        print("\n".join(csv()))
    else:
        lines = text()
        if lines:
            print("\n".join(lines))


def _show_poly(fmt: str, p, meta: dict) -> None:
    """A QPoly or QTPoly as its text, as meta plus the poly in json, or as q,t,c rows."""
    def rows():
        terms = ([(i, 0, c) for i, c in enumerate(p.coeffs) if c] if isinstance(p, QPoly)
                 else p.terms)
        return ["q,t,c"] + [f"{qe},{te},{c}" for qe, te, c in terms]
    _show(fmt, lambda: [str(p)], lambda: {**meta, "poly": p.to_json()}, rows)


def _deadline_checker(limit: Optional[float]) -> Optional[Callable[[], bool]]:
    if limit is None or limit == float("inf"):  # no deadline, so nothing to poll
        return None
    deadline = time.monotonic() + limit
    return lambda: time.monotonic() > deadline


def _seconds(text: str) -> float:
    """A --limit-seconds value >= 0; NaN, which no deadline passes, is refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--progress", action="store_true",
                     help="report progress on stderr")
    sub.add_argument("--limit-seconds", type=_seconds, default=None,
                     help="abort cleanly after this many seconds")


class _Command(argparse.ArgumentParser):
    """One command's parser.  It also keeps the Action of each option declared
    on it: all of them in order in `declared`, and in `plain`, by option
    string, those a one-pass parse can read (a store of one value or a
    store_true flag)."""

    def __init__(self, **kwargs):
        self.declared, self.plain = [], {}
        super().__init__(**kwargs)  # declares -h/--help through add_argument

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.declared.append(action)
        if kwargs.get("action", "store") in ("store", "store_true") and "nargs" not in kwargs:
            self.plain.update(dict.fromkeys(action.option_strings, action))
        return action


@functools.cache
def _grammar() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The command line parser and, by command name, each command's parser."""
    parser = argparse.ArgumentParser(
        prog="patstat",
        description="Statistic generating polynomials over pattern-avoiding permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    p = sub.add_parser("enumerate", help="list an avoidance set in lexicographic order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default="", help="comma-separated patterns, e.g. 132,213")
    _add_common(p)

    p = sub.add_parser("count", help="cardinality of an avoidance set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default="")
    _add_common(p)

    p = sub.add_parser("poly", help="statistic generating polynomial")
    p.add_argument("--stat", choices=_POLY_STATS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default="")
    _add_common(p)

    p = sub.add_parser("classify", help="partition pattern subsets by polynomial equality")
    p.add_argument("--k", type=int, required=True, help="pattern length (ground set S_k)")
    p.add_argument("--size", type=int, required=True, help="subset size")
    p.add_argument("--stat", choices=engine._CLASSIFY_STATS, required=True)
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("series", help="truncated generating-function expansion")
    p.add_argument("--gf", choices=formulas.SERIES_IDS, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("formula", help="evaluate a closed-form catalog entry")
    p.add_argument("--id", dest="formula_id", required=True,
                   choices=sorted(formulas.CLOSED_FORMS))
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("foata", help="run rearrangement on a 0/1 word")
    p.add_argument("--word", required=True)
    p.add_argument("--inverse", action="store_true")
    _add_common(p)

    p = sub.add_parser("decompose", help="Ferrers/Durfee decomposition of a 0/1 word")
    p.add_argument("--word", required=True)
    _add_common(p)

    p = sub.add_parser("bijection", help="apply one of the explicit bijections")
    p.add_argument("--name", choices=tuple(words.BIJECTIONS), required=True)
    p.add_argument("--input", required=True,
                   help="permutation (forward) or word/partition (with --inverse)")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--n", type=int, default=None,
                   help="target length for inverse partition maps")
    _add_common(p)

    p = sub.add_parser("mahonian", help="check a Mahonian pair of avoidance sets")
    p.add_argument("--left", required=True, help="patterns for the maj side")
    p.add_argument("--right", required=True, help="patterns for the inv side")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("paper", "conjectures"), required=True)
    p.add_argument("--nmax", type=int, default=8)
    _add_common(p)

    return parser, sub.choices  # the subcommands action's choices map names to parsers


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every main() call."""
    return _grammar()[0]


_REFUSED = object()


def _value(action: argparse.Action, text: str):
    """text as parse_args stores it for action, or _REFUSED where parse_args
    would read it otherwise or stop with a usage error."""
    if text.startswith("-"):
        return _REFUSED
    try:
        value = text if action.type is None else action.type(text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return _REFUSED
    return value if action.choices is None or value in action.choices else _REFUSED


def _parse_plain(argv) -> Optional[argparse.Namespace]:
    """argv parsed in one pass over its command's declared options, or None
    when argv is not plain.  A plain line is a command name, then options of
    that command spelled out in full, each at most once: a flag alone, any
    other option followed by a value that does not start with "-" and that
    its type and choices accept; and every required option is there.  The
    namespace is the one parse_args returns; every other line (help,
    --opt=value, abbreviations, repeats, values that start with "-", any
    usage error) is left to parse_args, which prints all help and errors."""
    command = _grammar()[1].get(argv[0]) if argv else None
    if command is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = command.plain.get(token)
        if action is None or action in given:
            return None
        given[action] = action.const if action.nargs == 0 else _value(action, next(tokens, "-"))
        if given[action] is _REFUSED:
            return None
    values = {"command": argv[0]}
    for action in command.declared:
        if action in given:
            values[action.dest] = given[action]
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:
            # parse_args passes a string default through the option's type
            default = action.default
            values[action.dest] = _value(action, default) if isinstance(default, str) else default
            if values[action.dest] is _REFUSED:
                return None
    return argparse.Namespace(**values)


def _cmd_enumerate(args) -> int:
    patterns = parse_pattern_set(args.avoid)
    stop = _deadline_checker(args.limit_seconds)
    out = []
    emitted = 0
    start = time.monotonic()
    stream = args.format != "json"  # text and csv print each avoider as it is found
    emit = print if stream else out.append
    try:
        found = engine.enumerate_avoiders(args.n, patterns, should_stop=stop)
        # the first step checks the arguments, so a refused one prints nothing
        first = list(itertools.islice(found, 1))
        if args.format == "csv":
            print("perm")
        for p in itertools.chain(first, found):
            emit(format_perm(p))
            emitted += 1
            if args.progress and emitted % 100000 == 0:
                rate = emitted / (time.monotonic() - start + 1e-9)
                print(f"... {emitted} avoiders ({rate:.0f}/s)", file=sys.stderr)
    except SearchCancelled:
        if not stream:
            raise
        # the rows already printed stay; say where they stop
        print(f"patstat: time limit exceeded, output incomplete after {emitted} avoiders",
              file=sys.stderr)
        return 1
    _show(args.format, lambda: [],  # text and csv went out as they were found
          lambda: {"n": args.n, "patterns": list(map(format_perm, patterns)), "avoiders": out})
    return 0


def _cmd_count(args) -> int:
    patterns = parse_pattern_set(args.avoid)
    count = engine.count_avoiders(args.n, patterns,
                                  should_stop=_deadline_checker(args.limit_seconds))
    _show(args.format, lambda: [str(count)],
          lambda: {"n": args.n, "patterns": list(map(format_perm, patterns)), "count": count})
    return 0


def _cmd_poly(args) -> int:
    patterns = parse_pattern_set(args.avoid)
    stop = _deadline_checker(args.limit_seconds)
    if args.stat == "majdes":
        poly = engine.maj_des_poly(args.n, patterns, should_stop=stop)
    else:
        poly = engine.stat_poly(args.n, patterns, args.stat, should_stop=stop)
    meta = {"n": args.n, "patterns": list(map(format_perm, patterns)), "stat": args.stat}
    _show_poly(args.format, poly, meta)
    return 0


def _cmd_classify(args) -> int:
    report = engine.classify(args.k, args.size, args.stat, args.nmax,
                             should_stop=_deadline_checker(args.limit_seconds))
    _show(args.format, lambda: [" | ".join(cls) for cls in report.to_json()], report.to_json)
    return 0


def _cmd_series(args) -> int:
    s = formulas.series_expand(args.gf, args.order,
                               should_stop=_deadline_checker(args.limit_seconds))
    _show(args.format, lambda: [f"x^{i}: {c}" for i, c in enumerate(s.coeffs)],
          lambda: {"id": args.gf, "order": args.order, "coeffs": s.to_json()},
          lambda: ["x,q,t,c"] + [f"{i},{qe},{te},{v}" for i, c in enumerate(s.coeffs)
                                 for qe, te, v in c.terms])
    return 0


def _cmd_formula(args) -> int:
    poly = formulas.closed_form(args.formula_id, args.n)
    _show_poly(args.format, poly, {"id": args.formula_id, "n": args.n})
    return 0


def _cmd_foata(args) -> int:
    w = words.parse_word(args.word)
    image = words.foata_inverse(w) if args.inverse else words.foata(w)
    _show(args.format, lambda: [words.format_word(image)],
          lambda: {"word": words.format_word(w) if w else "",
                   "image": words.format_word(image) if image else ""})
    return 0


def _cmd_decompose(args) -> int:
    lam, d, beta, rho = words.decomposition(words.parse_word(args.word))
    _show(args.format,
          lambda: [f"lambda={words.format_partition(lam)}",
                   f"d={d}",
                   f"beta={words.format_partition(beta)}",
                   f"rho={words.format_partition(rho)}"],
          lambda: {"lambda": list(lam), "d": d, "beta": list(beta), "rho": list(rho)})
    return 0


def _cmd_bijection(args) -> int:
    bij = words.BIJECTIONS[args.name]
    parse, fmt = bij.text
    if not args.inverse:
        print(fmt(bij.map(parse_perm(args.input))))
    elif bij.needs_n and args.n is None:
        raise ValueError("inverse partition maps need --n")
    else:
        print(format_perm(bij.back(parse(args.input), args.n)))
    return 0


def _cmd_mahonian(args) -> int:
    left = AvoidanceQuery(args.n, parse_pattern_set(args.left))
    right = AvoidanceQuery(args.n, parse_pattern_set(args.right))
    ok = engine.mahonian_pair_check(
        left, right, should_stop=_deadline_checker(args.limit_seconds))
    _show(args.format, lambda: ["true" if ok else "false"],
          lambda: {"n": args.n, "left": args.left, "right": args.right, "mahonian": ok})
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    run = verify.run_paper_suite if args.suite == "paper" else verify.run_conjecture_suite
    results = run(args.nmax, should_stop=_deadline_checker(args.limit_seconds))
    passed = sum(r.passed for r in results)
    _show(args.format,
          lambda: [r.line() for r in results] + [f"{passed}/{len(results)} checks passed"],
          lambda: [{"name": r.name, "passed": r.passed, "cases": r.cases,
                    "failures": list(r.failures)} for r in results])
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "poly": _cmd_poly,
    "classify": _cmd_classify,
    "series": _cmd_series,
    "formula": _cmd_formula,
    "foata": _cmd_foata,
    "decompose": _cmd_decompose,
    "bijection": _cmd_bijection,
    "mahonian": _cmd_mahonian,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a reader gone away shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (as with `| head`): drop what is still
        # buffered, so the flush at interpreter exit fails on nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SearchCancelled:
        print("patstat: time limit exceeded, partial results suppressed", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("patstat: interrupted", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"patstat: integer overflow: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.exit(2, f"patstat: {exc}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
