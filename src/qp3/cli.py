"""Command-line front end: point-scheme, line-scheme and lines-through
reports in deterministic text or JSON.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 resource
limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from typing import List, Optional, Tuple

from .gaussian import GaussianRational
from .multipoly import (VarSet, height_bound, parse_poly, print_poly,
                        PolyParseError)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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


def _join_gamma(argv: tuple) -> List[str]:
    """`--gamma <value>` as `--gamma=<value>`, since argparse takes a
    separate value such as `-1/2` or `-i` for an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] == "--gamma":
            out[-1] = f"--gamma={arg}"
        else:
            out.append(arg)
    return out


# the flags that one command alone takes: (flag, command, choices, help);
# a flag without choices is a switch
COMMAND_FLAGS = (
    ("verify", "line-scheme", None, "verify the decomposition and the degrees"),
    ("symbolic", "lines-through", None,
     "exact verification at the generic point (default)"),
    ("numeric", "lines-through", None, "numeric table over the enumerated points"),
    ("point", "lines-through", ("e1", "e2", "e3", "e4", "generic"),
     "a basis point e1..e4 (symbolic mode)"),
)


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """One parser for every command; each flag works before or after it."""
    p = _Parser(prog="qp3", description=__doc__)
    p.add_argument("command", metavar="command", choices=(
        "point-scheme", "line-scheme", "lines-through"),
        help="point-scheme (point counts, multiplicities, sigma orbits), "
             "line-scheme (the 46 polynomials and components) or "
             "lines-through (lines of the line scheme through a point)")
    p.add_argument("--gamma", help="family parameter, a nonzero Gaussian rational")
    p.add_argument("--format", choices=("text", "json"), default="text")
    for field in LIMIT_ENV:
        p.add_argument("--" + field.replace("_", "-"), type=int)
    p.add_argument("--tolerance", type=float, default=1e-8,
                   help="numeric-mode residual tolerance")
    for flag, command, choices, text in COMMAND_FLAGS:
        kind = {"choices": choices} if choices else {"action": "store_true"}
        p.add_argument("--" + flag, help=f"{command} only: {text}", **kind)
    return p


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
    decomposition = None
    if verify:
        decomposition = verify_decomposition(L, catalog)
        payload["decomposition"] = decomposition.to_json_dict()
        ok = decomposition.ok

    def text():
        lines = [f"line scheme of A({gamma}): {len(L.polys)} polynomials,"
                 f" {len(catalog)} components"]
        for k, p in enumerate(L.polys):
            lines.append(f"  [{k}] {print_poly(p)}")
        for c in catalog:
            lines.append(f"  component {c.name} ({c.kind}, degree {c.degree}):")
            for g in c.ideal.generators:
                lines.append(f"      {print_poly(g)}")
        if decomposition is not None:
            d = decomposition.to_json_dict()
            for k in sorted(d):
                if k != "gamma":
                    lines.append(f"  {k}: {d[k]}")
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


def _question(args, gamma) -> tuple:
    """The command function and the arguments that decide its answer.
    The tolerance counts in numeric mode only."""
    if args.command == "point-scheme":
        return cmd_point_scheme, gamma, args.format
    if args.command == "line-scheme":
        return cmd_line_scheme, gamma, args.format, args.verify
    if not args.numeric:
        return cmd_lines_through, gamma, args.format, args.point or "generic"
    if args.symbolic or args.point:
        raise UsageError("--numeric cannot be combined with --symbolic or --point")
    return cmd_lines_through_numeric, gamma, args.format, args.tolerance


@lru_cache(maxsize=MEMO_SIZE)
def _parsed(argv: tuple) -> tuple:
    """(question, limit flags) for one command line: everything `main`
    takes from argv, once per distinct argv.  A usage error raises and is
    not cached; the environment is read later, by `make_limits`."""
    args = build_parser().parse_args(_join_gamma(argv))
    for flag, command, _, _ in COMMAND_FLAGS:
        if getattr(args, flag) not in (None, False) and args.command != command:
            raise UsageError(f"unrecognized arguments: --{flag}")
    if args.gamma is None:
        raise UsageError("--gamma is required")
    if not isinstance(args.gamma, str):
        # argparse drops a `--` value and leaves an empty list
        raise UsageError("--gamma needs a value, such as 4 or 1/2+3/2*i")
    gamma = parse_gamma(args.gamma)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError("--tolerance must be a finite positive number")
    return _question(args, gamma), tuple(getattr(args, f) for f in LIMIT_ENV)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        question, flags = _parsed(tuple(sys.argv[1:] if argv is None else argv))
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
