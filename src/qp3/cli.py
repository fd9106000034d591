"""Command-line front end: point-scheme, line-scheme and lines-through
reports in deterministic text or JSON.

One command and its options, in any order, each option written `--x v`
or `--x=v` or by a unique prefix of its name; after a bare `--` every
token is positional.  README.md describes each command and option.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 resource
limit exceeded.
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from .gaussian import GaussianRational
from .multipoly import VarSet, height_bound, parse_poly, PolyParseError
from .groebner import (DEFAULT_LIMITS, MEMO_SIZE, GroebnerLimits,
                       ResourceLimitError, cached_under_limits, limits_scope)
from .numeric import ConvergenceError, DegeneratePointError, numeric_table
from .quadratic_algebra import ZeroGammaError, make_A

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3

# the most bits a numerator or denominator of gamma may need: reports
# print gamma, and 8192 bits stay well below the 4300 digits that Python
# converts to text
GAMMA_MAX_BITS = 8192

# GroebnerLimits field -> the environment variable that sets it
LIMIT_ENV = {"max_pairs": "QP3_MAX_PAIRS", "max_basis": "QP3_MAX_BASIS",
             "max_degree": "QP3_MAX_DEGREE"}


class UsageError(Exception):
    pass


@lru_cache(maxsize=MEMO_SIZE)
def parse_gamma(text: str) -> GaussianRational:
    """Gamma from its text form, e.g. '4', '-1', '1/2 + 3/2*i'.

    A text whose value may need more than GAMMA_MAX_BITS bits is refused
    before it is evaluated."""
    try:
        bits = height_bound(text)
        if bits > GAMMA_MAX_BITS:
            raise UsageError(f"gamma {text!r} is too large: its value may need "
                             f"{bits} bits, more than {GAMMA_MAX_BITS}")
        value = parse_poly(text, VarSet([])).constant_value()
    except (PolyParseError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse gamma {text!r}: {exc}") from exc
    if value.is_zero():
        raise UsageError("gamma must be nonzero")
    return value


COMMANDS = ("point-scheme", "line-scheme", "lines-through")

# each option: what its value must be (a type, the tuple of its choices,
# or None for a switch), and the one command that takes it (None: all)
OPTIONS = {
    "--help": (None, None), "--gamma": (str, None), "--format": (("text", "json"), None),
    "--max-pairs": (int, None), "--max-basis": (int, None), "--max-degree": (int, None),
    "--tolerance": (float, None), "--verify": (None, "line-scheme"),
    "--symbolic": (None, "lines-through"), "--numeric": (None, "lines-through"),
    "--point": (("e1", "e2", "e3", "e4", "generic"), "lines-through")}

USAGE = f"""\
usage: qp3 [-h] --gamma GAMMA [--format {{text,json}}] [--max-pairs N] [--max-basis N]
           [--max-degree N] [--tolerance T] [--verify] [--symbolic] [--numeric]
           [--point {{e1,e2,e3,e4,generic}}] {{point-scheme,line-scheme,lines-through}}

{__doc__}"""


def _option(token: str, tokens: Iterator[str]) -> tuple:
    """(option, value) for a token that begins with `--`: the option it names
    in full or by a unique prefix, and True for a switch, else the checked
    text after `=` or the next token; (None, None) if it names none."""
    name, eq, text = token.partition("=")
    found = [name] if name in OPTIONS else [o for o in OPTIONS if o.startswith(name)]
    if len(found) != 1:
        if found:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        return None, None
    option, = found
    kind = OPTIONS[option][0]
    if kind is None:
        if eq:
            raise UsageError(f"argument {option}: ignored explicit argument {text!r}")
        return option, True
    text = text if eq else next(tokens, None)
    if text is None:
        raise UsageError(f"argument {option}: expected one argument")
    return option, _value(option, text, kind)


def _value(name: str, text: str, kind):
    """`text` as the value of `name`, checked against its type or choices."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(f"argument {name}: invalid choice: {text!r} "
                             f"(choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _limit(field: str, value: Optional[int]) -> int:
    """One bound: the flag, else its environment variable, else the default."""
    source = "--" + field.replace("_", "-")
    if value is None:
        name = LIMIT_ENV[field]
        raw = os.environ.get(name)
        if raw is None:
            return getattr(DEFAULT_LIMITS, field)
        source = f"environment variable {name}"
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"{source} must be an integer")
    if value < 1:
        raise UsageError(f"{source} must be at least 1, not {value}")
    return value


def make_limits(flags: tuple) -> GroebnerLimits:
    """The limits from the flags (in LIMIT_ENV order) and the environment."""
    return GroebnerLimits(**{f: _limit(f, v) for f, v in zip(LIMIT_ENV, flags)})


def _emit(payload, fmt: str, text_fn) -> str:
    if fmt == "json":
        doc = {"schema": 1}
        doc.update(payload)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return text_fn() + "\n"


def cmd_point_scheme(gamma, fmt) -> Tuple[str, int]:
    from .point_scheme import count_points

    report = count_points(make_A(gamma))
    text = _emit({"command": "point-scheme", **report.to_json_dict()},
                 fmt, report.to_text)
    return text, EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_line_scheme(gamma, fmt, verify: bool) -> Tuple[str, int]:
    from .line_scheme import (component_catalog, line_scheme_ideal,
                              verify_decomposition)

    L = line_scheme_ideal(gamma)
    catalog = component_catalog(gamma)
    payload = {
        "command": "line-scheme",
        **L.to_json_dict(),
        **catalog.to_json_dict(),
    }
    ok = True
    if verify:
        decomposition = verify_decomposition(L, catalog)
        payload["decomposition"] = decomposition.to_json_dict()
        ok = decomposition.ok

    def text():
        comps, d = payload["components"], payload.get("decomposition", {})
        lines = [f"line scheme of A({gamma}): {len(payload['polynomials'])} polynomials,"
                 f" {len(comps)} components"]
        lines += [f"  [{k}] {p}" for k, p in enumerate(payload["polynomials"])]
        for c in comps:
            lines.append(f"  component {c['name']} ({c['kind']}, degree {c['degree']}):")
            lines += [f"      {g}" for g in c["generators"]]
        lines += [f"  {k}: {d[k]}" for k in sorted(d) if k != "gamma"]
        return "\n".join(lines)

    return _emit(payload, fmt, text), EXIT_OK if ok else EXIT_VERIFICATION


def cmd_lines_through(gamma, fmt, point: str) -> Tuple[str, int]:
    from .plucker import lines_through_point

    report = lines_through_point(point, gamma)
    text = _emit({"command": "lines-through", **report.to_json_dict()},
                 fmt, report.to_text)
    return text, EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_lines_through_numeric(gamma, fmt, tolerance: float) -> Tuple[str, int]:
    """The numeric table; raises ConvergenceError or DegeneratePointError
    when it cannot certify one."""
    table = numeric_table(gamma, tolerance)

    def show(coords):
        return [f"{z.real:+.10f}{z.imag:+.10f}i" for z in coords]

    rows = [{"point": show(p), "lines": [show(m) for m in ls]}
            for p, ls in table]
    payload = {"command": "lines-through", "gamma": str(gamma),
               "mode": "numeric", "points": rows, "verified": True}

    def text():
        lines = [f"numeric lines through the {len(rows)} generic points"
                 f" at gamma = {gamma}"]
        for r in rows:
            lines.append("  point " + " ".join(r["point"]))
            for m in r["lines"]:
                lines.append("    line " + " ".join(m))
        return "\n".join(lines)

    return _emit(payload, fmt, text), EXIT_OK


@cached_under_limits
def answer(command, *args) -> Tuple[str, int]:
    """`command(*args)`: the stdout text and exit code of one report, kept
    once per process under the current Groebner limits.  An exception,
    such as a numeric refusal, is not cached."""
    return command(*args)


def _question(command: str, given: dict, gamma) -> tuple:
    """The command function and the arguments that decide its answer,
    from the options `given`.  The tolerance counts in numeric mode only."""
    fmt = given.get("--format", "text")
    if command == "point-scheme":
        return cmd_point_scheme, gamma, fmt
    if command == "line-scheme":
        return cmd_line_scheme, gamma, fmt, "--verify" in given
    if "--numeric" not in given:
        return cmd_lines_through, gamma, fmt, given.get("--point", "generic")
    if "--symbolic" in given or "--point" in given:
        raise UsageError("--numeric cannot be combined with --symbolic or --point")
    return cmd_lines_through_numeric, gamma, fmt, given["--tolerance"]


@lru_cache(maxsize=MEMO_SIZE)
def _parsed(argv: tuple) -> Optional[tuple]:
    """(question, limit flags) for one command line, or None for `-h` or
    `--help`: everything `main` takes from argv, once per distinct argv.
    As with argparse, a bad value or an ambiguous prefix raises where it
    stands, and stray tokens and the checks across options wait for the
    end.  A usage error is not cached; `make_limits` reads the environment."""
    command, given, stray = None, {"--tolerance": 1e-8}, []
    tokens = iter(argv)
    options = True    # until a bare `--`
    for token in tokens:
        if options and token == "--":
            options = False
        elif options and (token == "-h" or token.startswith("--")):
            option, value = _option("--help" if token == "-h" else token, tokens)
            if option == "--help":
                return None
            if option is None:
                stray.append(token)
            else:
                given[option] = value
        elif command is None:
            command = _value("command", token, COMMANDS)
        else:
            stray.append(token)
    if command is None:
        raise UsageError("the following arguments are required: command")
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    for option, (_, only) in OPTIONS.items():
        if option in given and only not in (None, command):
            raise UsageError(f"unrecognized arguments: {option}")
    if "--gamma" not in given:
        raise UsageError("--gamma is required")
    if given["--gamma"] == "--":
        raise UsageError("--gamma needs a value, such as 4 or 1/2+3/2*i")
    gamma = parse_gamma(given["--gamma"])
    if not (math.isfinite(given["--tolerance"]) and given["--tolerance"] > 0):
        raise UsageError("--tolerance must be a finite positive number")
    return (_question(command, given, gamma),
            tuple(given.get("--" + f.replace("_", "-")) for f in LIMIT_ENV))


def main(argv: Optional[List[str]] = None) -> int:
    try:
        parsed = _parsed(tuple(sys.argv[1:] if argv is None else argv))
        if parsed is None:    # -h or --help
            sys.stdout.write(USAGE)
            return EXIT_OK
        question, flags = parsed
        with limits_scope(make_limits(flags)):
            text, code = answer(*question)
    except (UsageError, ZeroGammaError) as exc:
        sys.stderr.write(f"qp3: {exc}\n")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        sys.stderr.write(f"qp3: resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (ConvergenceError, DegeneratePointError) as exc:
        sys.stderr.write(f"qp3: numeric verification failed: {exc}\n")
        return EXIT_VERIFICATION
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
