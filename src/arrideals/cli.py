"""Command-line front end.

Every command reads an arrangement file (JSON, see the arrangement module)
and prints deterministically ordered text; some offer --json.  Rationals on
the command line are "p" or "p/q", "-p/q" too after a space; decimal input
is rejected because the floor computations are exact.  Exit codes: 0
success, 1 usage or parse error or an input too large (past a size limit,
or out of memory), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import arrangement as arrmod
from . import building as bmod
from . import graded as gmod
from . import multiplier as mmod
from .errors import InvariantError
from .lattice import Flat, IntersectionLattice, compute_lattice


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's private pattern for a negative number, read as a value
        # and not an option: "-1/2" is one too
        numbers = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(rf"{numbers}|^-\d+/\d+$")

    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


def _reasoned(parse):
    """An argparse type that prints why ``parse`` refused the text."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
    return convert


_rational = _reasoned(arrmod.parse_rational)


@_reasoned
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _load(path: str) -> arrmod.Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return arrmod.parse_arrangement(fh.read())


def _building_set(lat: IntersectionLattice, choice: str) -> tuple[Flat, ...]:
    return lat.irreducibles if choice == "min" else lat.proper


def _default_degree(*presentations) -> int:
    """The default truncation degree; a note on stderr says when it is capped."""
    uncapped = mmod.uncapped_degree_bound(*presentations)
    if uncapped <= mmod.DEGREE_CAP:
        return uncapped
    print(f"note: default degree bound {uncapped} capped at {mmod.DEGREE_CAP}; "
          f"set --degree to override", file=sys.stderr)
    return mmod.DEGREE_CAP


def _flat_json(flat) -> dict:
    return {"rank": flat.rank, "s": flat.mult, "closed": list(flat.closed_set)}


def _flat_line(flat) -> str:
    closed = ",".join(map(str, flat.closed_set)) or "-"
    return f"{flat.rank}\t{flat.mult}\t{closed}"


def _cmd_braid(args) -> int:
    text = arrmod.serialize_arrangement(arrmod.braid(args.n))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_lattice(args, lat: IntersectionLattice) -> int:
    if args.json:
        print(json.dumps([_flat_json(f) for f in lat.flats], indent=2))
    else:
        for f in lat.flats:
            print(_flat_line(f))
    return 0


def _cmd_building(args, lat: IntersectionLattice) -> int:
    bs = _building_set(lat, args.set)
    if args.verify:
        bad = bmod.building_set_obstruction(lat, bs)
        if bad is not None:
            raise InvariantError(
                f"building set check failed at flat with closed set "
                f"{list(bad.closed_set)}"
            )
        print(f"building set OK ({len(bs)} flat{'s' * (len(bs) != 1)})")
    if args.json:
        print(json.dumps([_flat_json(f) for f in bs], indent=2))
    else:
        for f in bs:
            print(_flat_line(f))
    return 0


def _cmd_mi(args, lat: IntersectionLattice) -> int:
    pres = mmod.presentation(lat, _building_set(lat, args.set), args.lam)
    if args.json:
        doc = {
            "lambda": str(pres.lam),
            "set": args.set,
            "unit": pres.is_unit,
            "terms": [
                dict(_flat_json(W), exponent=e) for W, e in pres.terms
            ],
        }
        print(json.dumps(doc, indent=2))
    elif pres.is_unit:
        print("(1)")
    else:
        for W, e in pres.terms:
            closed = ",".join(map(str, W.closed_set))
            print(f"{closed}\t{W.rank}\t{W.mult}\t{e}")
    return 0


def _cmd_lct(args, lat: IntersectionLattice) -> int:
    print(mmod.lct(lat))
    return 0


def _cmd_support(args, lat: IntersectionLattice) -> int:
    for f in mmod.support(lat, args.lam):
        print(_flat_line(f))
    return 0


def _cmd_jumps(args, lat: IntersectionLattice) -> int:
    if not args.verify:
        if args.degree is not None:
            raise _UsageError("arrideals jumps: argument --degree: "
                              "not allowed without --verify")
        for c in mmod.jump_candidates(lat, args.max):
            print(c)
        return 0
    bound = args.degree
    if bound is None:  # verify_jumps refuses a --max of 0 or less, with one message
        bound = _default_degree(mmod.presentation(lat, lat.irreducibles,
                                                  max(args.max, 0)))
    for c, jump in mmod.verify_jumps(lat, args.max, bound):
        print(f"{c}\tverified" if jump else f"{c}\tnot detected up to degree {bound}")
    return 0


def _cmd_member(args, lat: IntersectionLattice) -> int:
    poly = gmod.parse_polynomial(args.poly, lat.arrangement.dim)
    pres = mmod.presentation(lat, _building_set(lat, args.set), args.lam)
    print("true" if mmod.membership(pres, poly) else "false")
    return 0


def _cmd_resolution(args, lat: IntersectionLattice) -> int:
    for W in _building_set(lat, args.set):  # discrepancy r − 1, vanishing order s
        closed = ",".join(map(str, W.closed_set))
        print(f"{closed}\t{W.rank - 1}\t{W.mult}")
    return 0


def _cmd_hilbert(args, lat: IntersectionLattice) -> int:
    pres = mmod.presentation(lat, _building_set(lat, args.set), args.lam)
    bound = args.degree if args.degree is not None else _default_degree(pres)
    print(" ".join(map(str, mmod.hilbert_function(lat, pres, bound))))
    return 0


def _cmd_verify_theorem(args, lat: IntersectionLattice) -> int:
    pres_min = mmod.presentation(lat, lat.irreducibles, args.lam)
    pres_full = mmod.presentation(lat, lat.proper, args.lam)
    bound = (args.degree if args.degree is not None
             else _default_degree(pres_min, pres_full))
    a, b = mmod.theorem_rows(lat, pres_min, pres_full, bound)
    print("minimal:", " ".join(map(str, a)))
    print("full:   ", " ".join(map(str, b)))
    # the full ideal lies in the minimal one: equal dimensions, equal pieces,
    # and by the theorem unequal ones mean broken lattice data
    for d in range(bound + 1):
        if a[d] != b[d]:
            raise InvariantError(f"the minimal and full building sets give "
                                 f"different ideals at degree {d}")
    print(f"EQUAL up to degree {bound}")
    return 0


@functools.cache  # parsing keeps no state in the parser: one per process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arrideals",
        description="Multiplier ideals of central hyperplane arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, lam=False, building=False):
        """A subcommand on an arrangement file: ``func(args, lattice)``."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=lambda args: func(args, compute_lattice(_load(args.file))))
        p.add_argument("file")
        if lam:
            p.add_argument("--lambda", dest="lam", type=_rational, required=True,
                           metavar="P/Q")
        if building:
            p.add_argument("--set", choices=("min", "full"), default="min")
        return p

    help_text = "Write the arrangement of all x_i = x_j in dimension n."
    p = sub.add_parser("braid", help=help_text, description=help_text)
    p.set_defaults(func=_cmd_braid)
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", metavar="FILE")

    p = add("lattice", _cmd_lattice,
            "List all flats: rank, total multiplicity s, closed hyperplane set.")
    p.add_argument("--json", action="store_true")

    p = add("building", _cmd_building,
            "List the flats of a building set (minimal: the irreducible flats).",
            building=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="check the defining property over every flat first")

    p = add("mi", _cmd_mi,
            "Multiplier ideal at lambda as terms (closed set, rank, s, exponent) "
            "with exponent floor(lambda*s) - rank + 1; '(1)' means the unit ideal.",
            lam=True, building=True)
    p.add_argument("--json", action="store_true")

    add("lct", _cmd_lct,
        "Log canonical threshold: min rank/s over the minimal building set.")

    add("support", _cmd_support,
        "Minimal-building-set flats with lambda >= rank/s.", lam=True)

    p = add("jumps", _cmd_jumps,
            "Candidate jumping numbers m/s(W) up to a bound, optionally verified: "
            "a candidate is a jump when some piece dimension drops there.")
    p.add_argument("--max", type=_rational, required=True, metavar="P/Q")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--degree", type=_positive_int, default=None,
                   help="truncation degree for verification, with --verify only "
                        "(default: 2 plus the exponent total of the presentation "
                        f"at --max, capped at {mmod.DEGREE_CAP})")

    p = add("member", _cmd_member,
            "Test membership of a polynomial in the multiplier ideal at lambda.",
            lam=True, building=True)
    p.add_argument("--poly", required=True,
                   help="e.g. 'x0 - x1' or '2/3*x0^2*x1 + x2'")

    add("resolution", _cmd_resolution,
        "Per building-set flat: discrepancy rank-1 and vanishing order s.",
        building=True)

    p = add("hilbert", _cmd_hilbert,
            "Hilbert function (piece dimensions) of the multiplier ideal at lambda.",
            lam=True, building=True)
    p.add_argument("--degree", type=_positive_int, default=None)

    p = add("verify-theorem", _cmd_verify_theorem,
            "Compare the multiplier ideal over the minimal building set against "
            "the full proper lattice, degree by degree.", lam=True)
    p.add_argument("--degree", type=_positive_int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (``| head``): not an error; stdout goes
        # to devnull so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
