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
from typing import List, Optional

from .gaussian import GaussianRational
from .multipoly import VarSet, parse_poly, print_poly, PolyParseError
from .groebner import (DEFAULT_LIMITS, GroebnerLimits, ResourceLimitError,
                       limits_scope)
from .quadratic_algebra import ZeroGammaError, make_A

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3

# GroebnerLimits field -> the environment variable that sets it
LIMIT_ENV = {"max_pairs": "QP3_MAX_PAIRS", "max_basis": "QP3_MAX_BASIS",
             "max_degree": "QP3_MAX_DEGREE"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_gamma(text: str) -> GaussianRational:
    """Gamma from its text form, e.g. '4', '-1', '1/2 + 3/2*i'."""
    try:
        value = parse_poly(text, VarSet([])).constant_value()
    except (PolyParseError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse gamma {text!r}: {exc}") from exc
    if value.is_zero():
        raise UsageError("gamma must be nonzero")
    return value


def _join_gamma(argv: List[str]) -> List[str]:
    """`--gamma <value>` as `--gamma=<value>`, since argparse takes a
    separate value such as `-1/2` or `-i` for an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] == "--gamma":
            out[-1] = f"--gamma={arg}"
        else:
            out.append(arg)
    return out


def _add_common(p, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--gamma", default=d,
                   help="family parameter, a nonzero Gaussian rational")
    p.add_argument("--format", choices=("text", "json"),
                   default=argparse.SUPPRESS if suppress else "text")
    p.add_argument("--max-pairs", type=int, default=d)
    p.add_argument("--max-basis", type=int, default=d)
    p.add_argument("--max-degree", type=int, default=d)
    p.add_argument("--tolerance", type=float,
                   default=argparse.SUPPRESS if suppress else 1e-8,
                   help="numeric-mode residual tolerance")


def build_parser() -> _Parser:
    p = _Parser(prog="qp3", description=__doc__)
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("point-scheme",
                        help="point counts, multiplicities, sigma orbits")
    _add_common(ps, suppress=True)

    ls = sub.add_parser("line-scheme", help="the 46 polynomials and components")
    ls.add_argument("--verify", action="store_true",
                    help="verify the component decomposition and degrees")
    _add_common(ls, suppress=True)

    lt = sub.add_parser("lines-through",
                        help="lines of the line scheme through a point")
    lt.add_argument("--symbolic", action="store_true",
                    help="exact verification at the generic point (default)")
    lt.add_argument("--numeric", action="store_true",
                    help="numeric table over the enumerated points")
    lt.add_argument("--point", default=None,
                    choices=("e1", "e2", "e3", "e4", "generic"),
                    help="a basis point e1..e4 (symbolic mode)")
    _add_common(lt, suppress=True)
    return p


def _limit(args, field: str) -> int:
    """One bound: the flag, else its environment variable, else the default."""
    value, source = getattr(args, field), "--" + field.replace("_", "-")
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


def make_limits(args) -> GroebnerLimits:
    return GroebnerLimits(**{field: _limit(args, field) for field in LIMIT_ENV})


def _emit(payload, fmt: str, text_fn) -> None:
    if fmt == "json":
        doc = {"schema": 1}
        doc.update(payload)
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text_fn() + "\n")


def cmd_point_scheme(gamma, fmt) -> int:
    from .point_scheme import count_points

    report = count_points(make_A(gamma))
    _emit({"command": "point-scheme", **report.to_json_dict()},
          fmt, report.to_text)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_line_scheme(gamma, fmt, verify: bool) -> int:
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

    _emit(payload, fmt, text)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_lines_through(gamma, fmt, args) -> int:
    from .plucker import lines_through_point

    if args.numeric:
        from .numeric import ConvergenceError, enumerate_points, six_lines_numeric

        rows = []
        try:
            pts = enumerate_points(gamma, tol=args.tolerance)
            for p in pts[4:]:
                ls = six_lines_numeric(p, gamma, tol=args.tolerance)
                rows.append({
                    "point": [f"{z.real:+.10f}{z.imag:+.10f}i" for z in p.coords],
                    "lines": [[f"{z.real:+.10f}{z.imag:+.10f}i" for z in m]
                              for m in ls],
                })
        except ConvergenceError as exc:
            sys.stderr.write(f"qp3: numeric verification failed: {exc}\n")
            return EXIT_VERIFICATION
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

        _emit(payload, fmt, text)
        return EXIT_OK

    point = args.point if args.point else "generic"
    report = lines_through_point(point, gamma)
    _emit({"command": "lines-through", **report.to_json_dict()},
          fmt, report.to_text)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_join_gamma(argv))
        if args.gamma is None:
            raise UsageError("--gamma is required")
        gamma = parse_gamma(args.gamma)
        if not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise UsageError("--tolerance must be a finite positive number")
        with limits_scope(make_limits(args)):
            if args.command == "point-scheme":
                return cmd_point_scheme(gamma, args.format)
            if args.command == "line-scheme":
                return cmd_line_scheme(gamma, args.format, args.verify)
            if args.command == "lines-through":
                return cmd_lines_through(gamma, args.format, args)
            raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        sys.stderr.write(f"qp3: {exc}\n")
        return EXIT_USAGE
    except ZeroGammaError as exc:
        sys.stderr.write(f"qp3: {exc}\n")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        sys.stderr.write(f"qp3: resource limit: {exc}\n")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
