"""Command line front end.

Commands: spectrum, pi-spectrum, decompose, witness, reidemeister, pi,
verify, atlas.  Groups are described either by cyclic orders
(``4,3`` means Z/4 + Z/3) or by an explicit p-group type
(``p=2 e=2,3``).  Matrices use the ``;``/``,`` text format.

Exit codes: 0 success, 1 verification mismatch, 2 parse error,
3 invalid type (also a number whose primality is past the proven
bound of ``core.is_prime``), 4 value outside the spectrum, 5 invalid
matrix, 6 unwritable output path, 7 internal error (a failed invariant).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import _sweep
from .core import Factored, factorize, format_matrix, parse_matrix
from .decomposition import abc_decompose, block_notation
from .endo import (
    EndoMatrix,
    PGroupType,
    is_automorphism,
    parse_type_spec,
    reidemeister_number,
    validate_type,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    GroupSpecError,
    InvalidEndoMatrix,
    InvariantViolation,
    MatrixFormatError,
    NonPositiveExponent,
    NotAutomorphism,
    NotPrime,
    OutOfRange,
    OutOfSpectrum,
    WrongPrime,
)
from .oracle import DEFAULT_BUDGET, EnumBudget, iter_partitions, iter_types
from .spectra import (
    AbelianGroupType,
    product_number,
    spec_p,
    spec_r_2group,
    spec_r_abelian,
    spec_r_odd_p,
    witness,
    witness_abelian,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_INVALID_TYPE = 3
EXIT_OUT_OF_SPECTRUM = 4
EXIT_INVALID_MATRIX = 5
EXIT_UNWRITABLE = 6
EXIT_INTERNAL = 7

BUDGET_ENV = "REIDEMEISTER_BUDGET"


# -- input parsing ----------------------------------------------------------


def _parse_orders(text: str) -> AbelianGroupType:
    try:
        orders = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise GroupSpecError(f"bad cyclic order list {text!r}") from exc
    return AbelianGroupType(orders)


def _parse_group(tokens: list[str]) -> AbelianGroupType:
    text = " ".join(tokens)
    if "=" in text:
        g = parse_type_spec(text)
        return AbelianGroupType(tuple(g.p**v for v in g.e))
    return _parse_orders(text)


def _parse_ptype(tokens: list[str], default_p: int | None = None) -> PGroupType:
    """A p-group from either spec form; ``e=...`` alone uses default_p."""
    text = " ".join(tokens)
    if "=" in text:
        if default_p is not None and "p=" not in text:
            text = f"p={default_p} {text}"
        return parse_type_spec(text)
    group = _parse_orders(text)
    sylow = group.sylow()
    if len(sylow) != 1:
        raise GroupSpecError(f"{text!r} is not a p-group")
    return next(iter(sylow.values()))


def _resolve_budget(args: argparse.Namespace) -> EnumBudget:
    """The defaults, overridden by the environment, then by --max-endos."""
    raw = os.environ.get(BUDGET_ENV, "").strip()
    try:
        max_endos = int(raw) if raw else DEFAULT_BUDGET.max_endos
        if args.max_endos is not None:
            max_endos = args.max_endos
        return EnumBudget(max_endos)
    except ValueError as exc:
        raise GroupSpecError(
            f"bad budget ({BUDGET_ENV}='MAX_ENDOS' or --max-endos): {exc}"
        ) from exc


# -- rendering --------------------------------------------------------------


def _factored_json(v: Factored) -> dict:
    return {
        "decimal": str(v.to_int()),
        "factorization": {str(p): k for p, k in v.factorization.items()},
    }


def _render_count(v: Factored) -> str:
    n = v.to_int()
    return "1" if n == 1 else f"{n} = {v}"


def _group_json(a: AbelianGroupType) -> dict:
    return {
        "orders": list(a.primary_orders()),
        "order": a.order,
        "sylow": {str(p): list(g.e) for p, g in a.sylow().items()},
    }


def _witness_texts(per_prime: dict[int, EndoMatrix]) -> dict[str, str]:
    return {str(p): format_matrix(em.m) for p, em in sorted(per_prime.items())}


# -- commands ---------------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> int:
    group = _parse_group(args.group)
    spectrum = spec_r_abelian(group)
    values = spectrum.sorted_values()
    witnesses = None
    if args.witnesses:
        witnesses = {v: _witness_texts(witness_abelian(group, v)) for v in values}
    if args.json:
        payload = {"group": _group_json(group), "values": []}
        for v in values:
            entry = _factored_json(v)
            if witnesses is not None:
                entry["witness"] = witnesses[v]
            payload["values"].append(entry)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(" ".join(str(v.to_int()) for v in values))
        if witnesses is not None:
            for v in values:
                pairs = " ".join(f"{p}={m}" for p, m in witnesses[v].items())
                print(f"witness {v.to_int()}: {pairs}")
    return EXIT_OK


def cmd_pi_spectrum(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group)
    spectrum = spec_p(g)
    if args.json:
        payload = {
            "group": {"p": g.p, "e": list(g.e)},
            "values": [_factored_json(v) for v in spectrum.sorted_values()],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(" ".join(str(v) for v in spectrum.ints()))
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group, default_p=2)
    dec = abc_decompose(g)
    if args.json:
        payload = {
            "e": list(g.e),
            "blocks": [
                {"kind": blk.kind, "start": blk.start, "values": list(blk.values)}
                for blk in dec.blocks
            ],
            "a": dec.a,
            "b": dec.b,
            "c": dec.c,
            "d": list(dec.d),
            "sigma": g.total_exponent,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        d_text = ",".join(str(v) for v in dec.d)
        print(
            f"{block_notation(dec)} a={dec.a} b={dec.b} c={dec.c} "
            f"d={d_text} sigma={g.total_exponent}"
        )
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group)
    em = witness(g, args.m)
    pi = product_number(em)
    if pi != Factored.prime_power(g.p, args.m):
        raise InvariantViolation("witness failed its own product-number check")
    if args.json:
        payload = {
            "group": {"p": g.p, "e": list(g.e)},
            "m": args.m,
            "matrix": format_matrix(em.m),
            "pi": _factored_json(pi),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(format_matrix(em.m))
        print(f"Pi={pi.to_int()}")
    return EXIT_OK


def cmd_reidemeister(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group)
    em = EndoMatrix(g, parse_matrix(args.matrix))
    r = reidemeister_number(em)
    if args.json:
        payload = {
            "group": {"p": g.p, "e": list(g.e)},
            "matrix": format_matrix(em.m),
            "reidemeister": _factored_json(r),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(_render_count(r))
    return EXIT_OK


def cmd_pi(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group)
    em = EndoMatrix(g, parse_matrix(args.matrix))
    if not is_automorphism(em):
        raise NotAutomorphism("product number needs an invertible matrix")
    pi = product_number(em)
    if args.json:
        payload = {
            "group": {"p": g.p, "e": list(g.e)},
            "matrix": format_matrix(em.m),
            "pi": _factored_json(pi),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(_render_count(pi))
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def _closed_forms(g: PGroupType) -> tuple[set[int], set[int], int, int]:
    dec = abc_decompose(g)
    lo, hi = dec.floor_exponent, g.total_exponent
    r_closed = spec_r_2group(g) if g.p == 2 else spec_r_odd_p(g)
    return set(r_closed.ints()), set(spec_p(g).ints()), lo, hi


def _verify_cell(g: PGroupType, budget: EnumBudget) -> tuple[_sweep.CellReport, dict]:
    rep = _sweep.sweep_cell(g, budget)
    r_closed, pi_closed, lo, hi = _closed_forms(g)
    checks = {
        "R": {g.p**v for v in rep.r_exponents} == r_closed,
        "Pi": {g.p**v for v in rep.pi_exponents} == pi_closed,
        "bounds": rep.pi_min == lo and rep.pi_max == hi,
        "structure": rep.structure_violations == 0,
        "samples": rep.samples_ok,
    }
    return rep, checks


def cmd_verify(args: argparse.Namespace) -> int:
    budget = _resolve_budget(args)
    primes = args.primes or [2, 3, 5]
    exps = None
    if args.exponents is not None:
        try:
            exps = tuple(int(v) for v in args.exponents.split(",")) if args.exponents else ()
        except ValueError as exc:
            raise GroupSpecError(f"bad exponent list {args.exponents!r}") from exc
    cells: list[PGroupType] = []
    for p in primes:
        if exps is not None:
            cells.append(validate_type(p, exps))
        else:
            cells.extend(iter_types(p, max_endos=budget.max_endos))

    results = []
    failed = 0
    skipped = 0
    for g in cells:
        label = f"p={g.p} e={','.join(str(v) for v in g.e)}"
        try:
            rep, checks = _verify_cell(g, budget)
        except BudgetExceeded as exc:
            skipped += 1
            results.append({"cell": label, "skipped": str(exc)})
            if not args.json:
                print(f"{label} SKIPPED ({exc})")
            continue
        passed = all(checks.values())
        if not passed:
            failed += 1
        results.append(
            {
                "cell": label,
                "endos": rep.endo_count,
                "autos": rep.auto_count,
                "checks": checks,
                "passed": passed,
            }
        )
        if not args.json:
            flags = " ".join(
                f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()
            )
            print(f"{label} endos={rep.endo_count} autos={rep.auto_count} {flags}")

    summary = {
        "cells": len(cells),
        "passed": len(cells) - failed - skipped,
        "failed": failed,
        "skipped": skipped,
    }
    if args.json:
        print(json.dumps({"results": results, "summary": summary}, sort_keys=True))
    else:
        print(
            f"summary: {summary['cells']} cells, {summary['passed']} passed, "
            f"{summary['failed']} failed, {summary['skipped']} skipped"
        )
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# -- atlas ------------------------------------------------------------------


def _groups_of_order(order: int) -> list[AbelianGroupType]:
    per_prime = []
    for p, k in sorted(factorize(order).items()):
        per_prime.append([(p, partition) for partition in iter_partitions(k)])
    groups = []
    for combo in itertools.product(*per_prime):
        orders = []
        for p, partition in combo:
            orders.extend(p**v for v in partition)
        groups.append(AbelianGroupType(tuple(orders)))
    return sorted(groups, key=lambda a: a.primary_orders())


def _atlas_entry(group: AbelianGroupType, include_witnesses: bool) -> dict:
    spectrum = spec_r_abelian(group)
    sylow = group.sylow()
    entry: dict = {
        "order": group.order,
        "group": {"orders": list(group.primary_orders())},
        "sylow": {str(p): list(g.e) for p, g in sylow.items()},
        "spectrum": [_factored_json(v) for v in spectrum.sorted_values()],
    }
    if 2 in sylow:
        dec = abc_decompose(sylow[2])
        entry["sylow2_blocks"] = {
            "notation": block_notation(dec),
            "a": dec.a,
            "b": dec.b,
            "c": dec.c,
            "d": list(dec.d),
        }
    if include_witnesses:
        entry["witnesses"] = {
            str(v.to_int()): _witness_texts(witness_abelian(group, v))
            for v in spectrum.sorted_values()
        }
    return entry


def render_atlas(max_order: int, include_witnesses: bool = False) -> str:
    entries = []
    for order in range(2, max_order + 1):
        for group in _groups_of_order(order):
            entries.append(_atlas_entry(group, include_witnesses))
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def cmd_atlas(args: argparse.Namespace) -> int:
    if args.max_order < 1:
        raise GroupSpecError("--max-order must be >= 1")
    text = render_atlas(args.max_order, args.witnesses)
    entries = text.count('"order"')
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write atlas: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    if args.json:
        print(json.dumps({"path": args.out, "entries": entries}, sort_keys=True))
    else:
        print(f"wrote {entries} entries to {args.out}")
    return EXIT_OK


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reidemeister",
        description="Twisted conjugacy spectra of finite abelian groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectrum of a finite abelian group")
    sp.add_argument("group", nargs="+", help="cyclic orders '4,3' or 'p=2 e=2,3'")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--witnesses", action="store_true", help="attach a witness per value")
    sp.set_defaults(fn=cmd_spectrum)

    pp = sub.add_parser("pi-spectrum", help="product-number spectrum of a p-group")
    pp.add_argument("group", nargs="+")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(fn=cmd_pi_spectrum)

    dc = sub.add_parser("decompose", help="a/b/c block decomposition of a type vector")
    dc.add_argument("group", nargs="+", help="'e=1,2,3' or 'p=2 e=1,2,3'")
    dc.add_argument("--json", action="store_true")
    dc.set_defaults(fn=cmd_decompose)

    wt = sub.add_parser("witness", help="automorphism with product number p^m")
    wt.add_argument("group", nargs="+")
    wt.add_argument("-m", dest="m", type=int, required=True, help="target exponent")
    wt.add_argument("--json", action="store_true")
    wt.set_defaults(fn=cmd_witness)

    rd = sub.add_parser("reidemeister", help="twisted class count of a matrix")
    rd.add_argument("group", nargs="+")
    rd.add_argument("--matrix", required=True)
    rd.add_argument("--json", action="store_true")
    rd.set_defaults(fn=cmd_reidemeister)

    pi = sub.add_parser("pi", help="product number of an automorphism matrix")
    pi.add_argument("group", nargs="+")
    pi.add_argument("--matrix", required=True)
    pi.add_argument("--json", action="store_true")
    pi.set_defaults(fn=cmd_pi)

    vf = sub.add_parser("verify", help="closed forms vs exhaustive enumeration")
    vf.add_argument("-p", dest="primes", action="append", type=int, help="prime (repeatable)")
    vf.add_argument("-e", dest="exponents", help="single type to verify, e.g. '1,1'")
    vf.add_argument("--max-endos", dest="max_endos", type=int)
    vf.add_argument("--json", action="store_true")
    vf.set_defaults(fn=cmd_verify)

    at = sub.add_parser("atlas", help="spectra of all groups up to an order")
    at.add_argument("--max-order", dest="max_order", type=int, required=True)
    at.add_argument("--out", required=True)
    at.add_argument("--witnesses", action="store_true")
    at.add_argument("--json", action="store_true")
    at.set_defaults(fn=cmd_atlas)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GroupSpecError, MatrixFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OutOfSpectrum as exc:
        print(f"out of spectrum: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SPECTRUM
    except (InvalidEndoMatrix, DimensionMismatch, NotAutomorphism) as exc:
        print(f"invalid matrix: {exc}", file=sys.stderr)
        return EXIT_INVALID_MATRIX
    except (NotPrime, NonPositiveExponent, WrongPrime, OutOfRange, ValueError) as exc:
        print(f"invalid type: {exc}", file=sys.stderr)
        return EXIT_INVALID_TYPE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
