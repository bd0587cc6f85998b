"""Command line front end.

Commands: spectrum, pi-spectrum, decompose, witness, reidemeister, pi,
verify, atlas.  Groups are described either by cyclic orders
(``4,3`` means Z/4 + Z/3) or by an explicit p-group type
(``p=2 e=2,3``).  Matrices use the ``;``/``,`` text format.

Exit codes: 0 success, 1 verification mismatch, 2 parse error,
3 invalid type (also a number whose primality is past the proven
bound of ``core.is_prime``, or a value too large to print in decimal),
4 value outside the spectrum, 5 invalid matrix, 6 unwritable output
path, 7 internal error (any failure that is not one of the above).
Codes 2-5 and 7 are the ``exit_code`` of the error class raised.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import _sweep
from .core import Factored, decimal, factorize, format_matrix, parse_matrix
from .decomposition import abc_decompose, block_notation
from .endo import (
    EndoMatrix,
    PGroupType,
    parse_exponents,
    parse_type_spec,
    reidemeister_number,
    validate_type,
)
from .errors import BudgetExceeded, GroupSpecError, InvariantViolation, ReidemeisterError
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
EXIT_UNWRITABLE = 6

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


def _emit(args: argparse.Namespace, payload: dict, text: str) -> int:
    """Print a command's whole answer at once: the payload with --json,
    the text otherwise."""
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    return EXIT_OK


def _factored_json(v: Factored) -> dict:
    return {
        "decimal": decimal(v),
        "factorization": {str(p): k for p, k in v.factorization.items()},
    }


def _render_count(v: Factored) -> str:
    return "1" if v == Factored.one() else f"{decimal(v)} = {v}"


def _group_json(a: AbelianGroupType) -> dict:
    # every number here divides the order, the spectrum's largest value
    # (R(id) = |A|), so printing the spectrum in decimal checks them all
    return {
        "orders": list(a.primary_orders()),
        "order": a.order,
        "sylow": {str(p): list(g.e) for p, g in a.sylow().items()},
    }


def _ptype_json(g: PGroupType) -> dict:
    return {"p": g.p, "e": list(g.e)}


def _witness_texts(per_prime: dict[int, EndoMatrix]) -> dict[str, str]:
    return {str(p): format_matrix(em.m) for p, em in sorted(per_prime.items())}


# -- commands ---------------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> int:
    group = _parse_group(args.group)
    values = spec_r_abelian(group).sorted_values()
    entries = [_factored_json(v) for v in values]
    lines = [" ".join(entry["decimal"] for entry in entries)]
    if args.witnesses:
        for v, entry in zip(values, entries):
            entry["witness"] = _witness_texts(witness_abelian(group, v))
            pairs = " ".join(f"{p}={m}" for p, m in entry["witness"].items())
            lines.append(f"witness {entry['decimal']}: {pairs}")
    payload = {"group": _group_json(group), "values": entries}
    return _emit(args, payload, "\n".join(lines))


def cmd_pi_spectrum(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group)
    entries = [_factored_json(v) for v in spec_p(g).sorted_values()]
    payload = {"group": _ptype_json(g), "values": entries}
    return _emit(args, payload, " ".join(entry["decimal"] for entry in entries))


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group, default_p=2)
    dec = abc_decompose(g)
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
    d_text = ",".join(str(v) for v in dec.d)
    text = (
        f"{block_notation(dec)} a={dec.a} b={dec.b} c={dec.c} "
        f"d={d_text} sigma={g.total_exponent}"
    )
    return _emit(args, payload, text)


def cmd_witness(args: argparse.Namespace) -> int:
    g = _parse_ptype(args.group)
    em = witness(g, args.m)
    pi = product_number(em)
    if pi != Factored.prime_power(g.p, args.m):
        raise InvariantViolation("witness failed its own product-number check")
    matrix = format_matrix(em.m)
    payload = {"group": _ptype_json(g), "m": args.m, "matrix": matrix, "pi": _factored_json(pi)}
    return _emit(args, payload, f"{matrix}\nPi={payload['pi']['decimal']}")


def _matrix_count(args: argparse.Namespace, key: str, count) -> int:
    """reidemeister and pi: one count of the matrix given on the command line."""
    g = _parse_ptype(args.group)
    em = EndoMatrix(g, parse_matrix(args.matrix))
    value = count(em)
    payload = {"group": _ptype_json(g), "matrix": format_matrix(em.m), key: _factored_json(value)}
    return _emit(args, payload, _render_count(value))


def cmd_reidemeister(args: argparse.Namespace) -> int:
    return _matrix_count(args, "reidemeister", reidemeister_number)


def cmd_pi(args: argparse.Namespace) -> int:
    # product_number raises NotAutomorphism for a singular matrix
    return _matrix_count(args, "pi", product_number)


# -- verify -----------------------------------------------------------------


def _verify_cell(g: PGroupType, budget: EnumBudget) -> tuple[_sweep.CellReport, dict]:
    rep = _sweep.sweep_cell(g, budget)
    r_closed = spec_r_2group(g) if g.p == 2 else spec_r_odd_p(g)
    bounds = (abc_decompose(g).floor_exponent, g.total_exponent)
    checks = {
        "R": {g.p**v for v in rep.r_exponents} == set(r_closed.ints()),
        "Pi": {g.p**v for v in rep.pi_exponents} == set(spec_p(g).ints()),
        "bounds": (rep.pi_min, rep.pi_max) == bounds,
        "structure": rep.structure_violations == 0,
        "samples": rep.samples_ok,
    }
    return rep, checks


def cmd_verify(args: argparse.Namespace) -> int:
    budget = _resolve_budget(args)
    primes = args.primes or [2, 3, 5]
    if args.exponents is not None:
        exps = parse_exponents(args.exponents)
        cells = [validate_type(p, exps) for p in primes]
    else:
        cells = [g for p in primes for g in iter_types(p, max_endos=budget.max_endos)]

    results = []
    for g in cells:
        try:
            rep, checks = _verify_cell(g, budget)
        except BudgetExceeded as exc:
            results.append({"cell": str(g), "skipped": str(exc)})
            line = f"{g} SKIPPED ({exc})"
        else:
            results.append(
                {
                    "cell": str(g),
                    "endos": rep.endo_count,
                    "autos": rep.auto_count,
                    "checks": checks,
                    "passed": all(checks.values()),
                }
            )
            flags = " ".join(
                f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()
            )
            line = f"{g} endos={rep.endo_count} autos={rep.auto_count} {flags}"
        if not args.json:
            print(line)

    failed = sum(r.get("passed") is False for r in results)
    skipped = sum("skipped" in r for r in results)
    summary = {
        "cells": len(cells),
        "passed": len(cells) - failed - skipped,
        "failed": failed,
        "skipped": skipped,
    }
    _emit(
        args,
        {"results": results, "summary": summary},
        f"summary: {summary['cells']} cells, {summary['passed']} passed, "
        f"{failed} failed, {skipped} skipped",
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
            decimal(v): _witness_texts(witness_abelian(group, v))
            for v in spectrum.sorted_values()
        }
    return entry


def cmd_atlas(args: argparse.Namespace) -> int:
    if args.max_order < 1:
        raise GroupSpecError("--max-order must be >= 1")
    entries = [
        _atlas_entry(group, args.witnesses)
        for order in range(2, args.max_order + 1)
        for group in _groups_of_order(order)
    ]
    text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write atlas: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    payload = {"path": args.out, "entries": len(entries)}
    return _emit(args, payload, f"wrote {len(entries)} entries to {args.out}")


# -- wiring -----------------------------------------------------------------

_GROUP_HELP = "cyclic orders '4,3' or 'p=2 e=2,3'"
_PGROUP_HELP = "cyclic orders of one prime '4,8' or 'p=2 e=2,3'"


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reidemeister",
        description="Twisted conjugacy spectra of finite abelian groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print one JSON document")

    def command(name, fn, help, group_help=None) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help, parents=[common])
        if group_help is not None:
            cmd.add_argument("group", nargs="+", help=group_help)
        cmd.set_defaults(fn=fn)
        return cmd

    sp = command("spectrum", cmd_spectrum, "spectrum of a finite abelian group", _GROUP_HELP)
    sp.add_argument("--witnesses", action="store_true", help="attach a witness per value")

    command("pi-spectrum", cmd_pi_spectrum, "product-number spectrum of a p-group", _PGROUP_HELP)
    command(
        "decompose", cmd_decompose, "a/b/c block decomposition of a type vector",
        "'e=1,2,3' or 'p=2 e=1,2,3'",
    )

    wt = command("witness", cmd_witness, "automorphism with product number p^m", _PGROUP_HELP)
    wt.add_argument("-m", dest="m", type=int, required=True, help="target exponent")

    for name, fn, help in (
        ("reidemeister", cmd_reidemeister, "twisted class count of a matrix"),
        ("pi", cmd_pi, "product number of an automorphism matrix"),
    ):
        command(name, fn, help, _PGROUP_HELP).add_argument("--matrix", required=True)

    vf = command("verify", cmd_verify, "closed forms vs exhaustive enumeration")
    vf.add_argument("-p", dest="primes", action="append", type=int, help="prime (repeatable)")
    vf.add_argument("-e", dest="exponents", help="single type to verify, e.g. '1,1'")
    vf.add_argument("--max-endos", dest="max_endos", type=int)

    at = command("atlas", cmd_atlas, "spectra of all groups up to an order")
    at.add_argument("--max-order", dest="max_order", type=int, required=True)
    at.add_argument("--out", required=True)
    at.add_argument("--witnesses", action="store_true")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReidemeisterError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print(f"{ReidemeisterError.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ReidemeisterError.exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
