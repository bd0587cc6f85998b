"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The exhaustive sweeps reuse one batched pass per cell; all batched values
are spot-anchored to the per-object reference APIs inside the sweep itself.
"""

import time
from math import gcd

import pytest

from reidemeister import (
    BudgetExceeded,
    EndoMatrix,
    Factored,
    IntMatrix,
    PGroupType,
    abc_decompose,
    endomorphism_count,
    fixed_point_count,
    is_automorphism,
    iter_partitions,
    iter_types,
    oracle_spectrum,
    product_number,
    spec_p,
    spec_r_2group,
    spec_r_abelian,
    spec_r_odd_p,
    witness,
)
from reidemeister import _sweep
from reidemeister.cli import _groups_of_order
from reidemeister.oracle import DEFAULT_BUDGET


def _finish(num, name, failures, elapsed, limit=None):
    ok = not failures and (limit is None or elapsed <= limit)
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.3f}s)")
    assert not failures, f"criterion {num}: {failures[:5]}"
    if limit is not None:
        assert elapsed <= limit, f"criterion {num} took {elapsed:.1f}s > {limit}s"


@pytest.fixture(scope="module")
def sweep_reports():
    """One batched sweep per cell of criterion 3: every type whose
    endomorphism count fits the default budget, for p in {2, 3, 5}."""
    start = time.perf_counter()
    reports = []
    for p in (2, 3, 5):
        for g in iter_types(p, max_endos=DEFAULT_BUDGET):
            reports.append((g, _sweep.sweep_cell(g, DEFAULT_BUDGET)))
    return reports, time.perf_counter() - start


def test_criterion_1_worked_example():
    g = PGroupType(2, (1, 1, 2, 3, 4, 4, 6, 7, 8, 10, 12, 13))
    abc_decompose(PGroupType(2, (1, 2)))  # warm-up

    start = time.perf_counter()
    dec = abc_decompose(g)
    elapsed = time.perf_counter() - start

    failures = []
    expected_blocks = [
        ("a", (1, 1)),
        ("b", (2, 3)),
        ("a", (4, 4)),
        ("b", (6, 7)),
        ("c", (8,)),
        ("c", (10,)),
        ("b", (12, 13)),
    ]
    if [(blk.kind, blk.values) for blk in dec.blocks] != expected_blocks:
        failures.append(("blocks", dec.blocks))
    if (dec.a, dec.b, dec.c) != (2, 3, 2):
        failures.append(("counts", (dec.a, dec.b, dec.c)))
    if dec.d != (0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 5, 5):
        failures.append(("d", dec.d))
    _finish(1, "worked example blocks and depth vector", failures, elapsed, limit=0.001)


def test_criterion_2_triple_agreement():
    start = time.perf_counter()
    failures = []
    checked = skipped = 0
    for p in (2, 3):
        for g in iter_types(p, max_order=2**10):
            if endomorphism_count(g) > DEFAULT_BUDGET:
                skipped += 1
                continue
            rep = _sweep.triple_check(g, DEFAULT_BUDGET)
            checked += 1
            if rep.mismatches:
                failures.append((g, "mismatches", rep.mismatches))
            if not rep.samples_ok:
                failures.append((g, "sample cross-check"))
    elapsed = time.perf_counter() - start
    print(f"  (criterion 2 swept {checked} cells, {skipped} over budget)")
    _finish(2, "twisted = brute = lattice counts", failures, elapsed, limit=300.0)


def test_criterion_3_oracle_vs_closed_form(sweep_reports):
    reports, sweep_elapsed = sweep_reports
    start = time.perf_counter()
    failures = []
    for g, _rep in reports:
        r_closed = spec_r_2group(g) if g.p == 2 else spec_r_odd_p(g)
        if oracle_spectrum(g) != r_closed:
            failures.append((g, "R spectrum"))
        if oracle_spectrum(g, use_pi=True) != spec_p(g):
            failures.append((g, "Pi spectrum"))
    elapsed = time.perf_counter() - start + sweep_elapsed
    print(f"  (criterion 3 compared {len(reports)} cells)")
    _finish(3, "oracle spectra equal closed forms", failures, elapsed, limit=600.0)


def test_criterion_4_bounds_sharp(sweep_reports):
    reports, _ = sweep_reports
    start = time.perf_counter()
    failures = []
    for g, rep in reports:
        dec = abc_decompose(g)
        lo, hi = dec.floor_exponent, g.total_exponent
        if rep.pi_min < lo or rep.pi_max > hi:
            failures.append((g, "bound violated", rep.pi_min, rep.pi_max))
        if rep.pi_min != lo:
            failures.append((g, "lower endpoint not attained", rep.pi_min, lo))
        if rep.pi_max != hi:
            failures.append((g, "upper endpoint not attained", rep.pi_max, hi))
    _finish(4, "product-number bounds sharp", failures, time.perf_counter() - start)


def test_criterion_5_witness_totality():
    start = time.perf_counter()
    failures = []
    count = 0
    for p in (2, 3, 5):
        for total in range(0, 11):
            for e in iter_partitions(total):
                g = PGroupType(p, e)
                dec = abc_decompose(g)
                for m in range(dec.floor_exponent, g.total_exponent + 1):
                    em = witness(g, m)
                    count += 1
                    if not is_automorphism(em):
                        failures.append((g, m, "not an automorphism"))
                    elif product_number(em) != Factored.prime_power(p, m):
                        failures.append((g, m, "wrong product number"))
    elapsed = time.perf_counter() - start
    print(f"  (criterion 5 validated {count} witnesses)")
    _finish(5, "witness for every admissible exponent", failures, elapsed, limit=60.0)


def test_criterion_6_cyclic_gcd_law():
    start = time.perf_counter()
    failures = []
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            g = PGroupType(p, (n,))
            modulus = p**n
            for k in range(1, modulus):
                if k % p == 0:
                    continue
                counted = fixed_point_count(EndoMatrix(g, IntMatrix(1, 1, (k,))))
                if counted.to_int() != gcd(k - 1, modulus):
                    failures.append((p, n, k))
    _finish(6, "cyclic fixed points follow the gcd law", failures, time.perf_counter() - start)


def test_criterion_7_all_groups_up_to_100():
    start = time.perf_counter()
    failures = []
    oracle_checked = 0
    for order in range(1, 101):
        for group in _groups_of_order(order):
            spectrum = set(spec_r_abelian(group).ints())
            sylow = group.sylow()
            floor = abc_decompose(sylow[2]).floor_exponent if 2 in sylow else 0
            divisors = {
                d
                for d in range(1, order + 1)
                if order % d == 0 and Factored.from_int(d).nu(2) >= floor
            }
            if spectrum != divisors:
                failures.append((group, "divisor characterization"))
            try:
                product = {1}
                for g in sylow.values():
                    vals = oracle_spectrum(g).ints()
                    product = {a * b for a in product for b in vals}
                oracle_checked += 1
                if spectrum != product:
                    failures.append((group, "per-Sylow oracle product"))
            except BudgetExceeded:
                pass
    elapsed = time.perf_counter() - start
    print(f"  (criterion 7 oracle-confirmed {oracle_checked} groups)")
    _finish(7, "divisor law for all groups of order <= 100", failures, elapsed)


def test_criterion_8_characteristic_machinery(sweep_reports):
    reports, _ = sweep_reports
    start = time.perf_counter()
    failures = []
    for g, rep in reports:
        if rep.structure_violations:
            failures.append((g, "violations", rep.structure_violations))
        if not rep.samples_ok:
            failures.append((g, "sample cross-check"))
    _finish(
        8,
        "restriction and column structure over the full sweep",
        failures,
        time.perf_counter() - start,
    )
