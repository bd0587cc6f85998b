"""The benchmark's workloads: fixed input lists, a seeded query stream,
and an answer check for every operation.

Each operation is an ``Op``: ``run`` is the timed call into the program,
``check`` returns None when the answer is right and a message otherwise.
Checks use routes independent of the code under test where one exists
(element-level brute force, the cyclic gcd law, the divisor law of the
spectrum); they are never timed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from reidemeister import cli, _sweep
from reidemeister.core import Factored, parse_matrix
from reidemeister.endo import EndoMatrix, PGroupType, is_automorphism
from reidemeister.oracle import DEFAULT_BUDGET
from reidemeister.spectra import product_number

# Held before any tracing is installed, so the caches can be cleared
# whatever wraps the module attributes later.
CACHED = [getattr(_sweep, name, None) for name in ("sweep_cell", "triple_check")]
CACHED = [fn for fn in CACHED if hasattr(fn, "cache_clear")]

VERIFY_CHECKS = {"R", "Pi", "bounds", "structure", "samples"}


@dataclass
class Op:
    label: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], str | None]


def clear_caches() -> None:
    for fn in CACHED:
        fn.cache_clear()


def cache_reuse() -> str | None:
    """After a fresh cache, any hit means the operation skipped work."""
    for fn in CACHED:
        if fn.cache_info().hits:
            return f"{fn.__name__} answered from its cache"
    return None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# -- independent arithmetic ---------------------------------------------------


def endo_exponent(e: tuple[int, ...]) -> int:
    """log_p of the endomorphism count: sum over (i, j) of min(e_i, e_j)."""
    return sum(min(a, b) for a in e for b in e)


def abc_blocks(e: tuple[int, ...]) -> tuple[list[tuple[str, int, tuple[int, ...]]], list[int]]:
    """a/b/c blocks of a sorted type vector and its depth vector d.

    a-blocks are maximal constant runs of length >= 2; among the rest,
    adjacent pairs (v, v + 1) form b-blocks left to right; what remains
    are singleton c-blocks.  d starts at 0 and grows by one on entering
    a new b- or c-block."""
    n = len(e)
    owner = [-1] * n
    blocks: list[tuple[str, int, tuple[int, ...]]] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and e[j + 1] == e[i]:
            j += 1
        if j > i:
            blocks.append(("a", i, tuple(e[i : j + 1])))
        i = j + 1
    for kind, start, vals in blocks:
        owner[start : start + len(vals)] = [start] * len(vals)
    i = 0
    while i < n - 1:
        if owner[i] < 0 and owner[i + 1] < 0 and e[i + 1] == e[i] + 1:
            blocks.append(("b", i, (e[i], e[i + 1])))
            owner[i] = owner[i + 1] = i
            i += 2
        else:
            i += 1
    for i in range(n):
        if owner[i] < 0:
            blocks.append(("c", i, (e[i],)))
            owner[i] = i
    blocks.sort(key=lambda blk: blk[1])
    kinds = {start: kind for kind, start, _ in blocks}
    d = [0] * n
    for i in range(1, n):
        step = owner[i] != owner[i - 1] and kinds[owner[i]] != "a"
        d[i] = d[i - 1] + step
    return blocks, d


def floor_exponent(e: tuple[int, ...]) -> int:
    """b + c, the least product-number exponent over automorphisms."""
    return sum(1 for kind, _, _ in abc_blocks(e)[0] if kind != "a")


def det_mod(rows: list[list[int]], p: int) -> int:
    a = [[v % p for v in row] for row in rows]
    n, det = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        a[k], a[piv] = a[piv], a[k]
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det


def brute_fixed(p: int, e: tuple[int, ...], rows: list[list[int]], mult: int = 1) -> int:
    """|Fix(mult * M)| by applying the map to every element (order <= 2^14)."""
    moduli = np.array([p**v for v in e], dtype=np.int64)
    grid = np.meshgrid(*[np.arange(m) for m in moduli], indexing="ij")
    x = np.stack([axis.reshape(-1) for axis in grid])
    m = (np.array(rows, dtype=np.int64) * mult) % moduli[:, None]
    y = (m @ x) % moduli[:, None]
    return int((y == x).all(axis=0).sum())


def nu(value: int, p: int) -> int:
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    return k


# -- sweeps -------------------------------------------------------------------

SWEEP_N4 = [(2, (1, 1, 1, 1)), (2, (1, 1, 1, 2)), (2, (1, 1, 1, 3)),
            (2, (1, 1, 1, 4)), (2, (1, 1, 1, 5)), (2, (1, 1, 2, 2))]


def types_up_to(p: int, max_n: int, max_endo_exp: int) -> list[tuple[int, ...]]:
    """Sorted exponent vectors with n <= max_n and at most p^max_endo_exp
    endomorphisms, in lexicographic order (the trivial type included)."""
    out = []

    def grow(e: tuple[int, ...]) -> None:
        out.append(e)
        if len(e) == max_n:
            return
        nxt = e[-1] if e else 1
        while endo_exponent(e + (nxt,)) <= max_endo_exp:
            grow(e + (nxt,))
            nxt += 1

    grow(())
    return out


def sweep_n3_cells() -> list[tuple[int, tuple[int, ...]]]:
    cells = []
    for p in (2, 3, 5):
        budget_exp = int(math.log(2**20, p) + 1e-9)
        cells.extend((p, e) for e in types_up_to(p, 3, budget_exp))
    return cells


def verify_op(p: int, e: tuple[int, ...]) -> Op:
    exps = ",".join(map(str, e))
    argv = ["verify", "-p", str(p), "-e", exps, "--json"]
    endos = p ** endo_exponent(e)

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        payload = json.loads(out)
        (cell,) = payload["results"]
        checks = cell.get("checks", {})
        if not (cell.get("passed") and VERIFY_CHECKS <= checks.keys() and all(checks.values())):
            return f"cell failed: {cell}"
        if cell["endos"] != endos:
            return f"endo_count {cell['endos']} != {endos}"
        return cache_reuse()

    return Op(f"p={p} e={exps}", endos, lambda: run_cli(argv), check)


# -- triple -------------------------------------------------------------------

# Mostly cells with many endomorphisms per element, where the element
# kernel dominates, plus p=2 e=10, where the oracle loops do.  A pass
# takes about 4 s, so each cell is timed some eight times in a run.
TRIPLE_CELLS = [(2, (4, 4)), (2, (3, 6)), (2, (1, 2, 5)), (2, (4, 5)), (2, (10,)),
                (3, (2, 3)), (3, (1, 1, 2))]


def triple_op(p: int, e: tuple[int, ...]) -> Op:
    g = PGroupType(p, e)
    endos = p ** endo_exponent(e)
    order = p ** sum(e)

    def check(rep) -> str | None:
        if rep.mismatches or not rep.samples_ok:
            return f"mismatches={rep.mismatches} samples_ok={rep.samples_ok}"
        if rep.endo_count != endos:
            return f"endo_count {rep.endo_count} != {endos}"
        return cache_reuse()

    def run():
        # looked up per call, so a traced run sees the wrapped function
        return _sweep.triple_check(g, DEFAULT_BUDGET)

    return Op(f"p={p} e={','.join(map(str, e))}", endos * order, run, check)


# -- queries ------------------------------------------------------------------

QUERY_PRIMES = (2, 3, 5, 7)
SMALL_ORDER = 2**14
# primes whose trial-division factorization makes the latency tail
BIG_PRIMES = (1000003, 999999937, 2147483647)
SPECTRUM_PRIMES = (2, 3, 5, 7, 11, 13)


def _rand_type(rng: random.Random, kind: str) -> tuple[int, tuple[int, ...]]:
    p = rng.choice(QUERY_PRIMES)
    if kind == "cyclic":
        return p, (rng.randint(1, 40),)
    if kind == "small":
        max_sum = int(math.log(SMALL_ORDER, p) + 1e-9)
        n = rng.randint(1, min(6, max_sum))
        while True:
            e = tuple(sorted(rng.randint(1, max_sum) for _ in range(n)))
            if sum(e) <= max_sum:
                return p, e
    if kind == "blocky":  # repeated exponents: wide a-blocks
        return p, tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(2, 8))))
    return p, tuple(sorted(rng.randint(1, 40) for _ in range(rng.randint(2, 8))))


def _rand_matrix(rng: random.Random, p: int, e: tuple[int, ...], auto: bool) -> list[list[int]]:
    n = len(e)
    while True:
        rows = [
            [p ** max(0, e[i] - e[j]) * rng.randrange(p ** min(e[i], e[j])) for j in range(n)]
            for i in range(n)
        ]
        if not auto:
            return rows
        for i in range(n):
            rows[i][i] = rng.randrange(1, p) + p * rng.randrange(p ** (e[i] - 1))
        if det_mod(rows, p):
            return rows


def _spec(p: int, e: tuple[int, ...]) -> str:
    return f"p={p} e={','.join(map(str, e))}"


def _fmt(rows: list[list[int]]) -> str:
    return ";".join(",".join(map(str, row)) for row in rows)


def _pi_product(p: int, e: tuple[int, ...], rows: list[list[int]]) -> int:
    if len(e) == 1:
        k = rows[0][0]
        return math.prod(math.gcd(i * k - 1, p ** e[0]) for i in range(1, p))
    return math.prod(brute_fixed(p, e, rows, i) for i in range(1, p))


def _count_op(label: str, argv: list[str], key: str, p: int, e: tuple[int, ...],
              expected: int | None, lo: int) -> Op:
    """reidemeister / pi: the exact value where an independent route
    exists, else a power of p with exponent in [lo, S]."""

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        value = int(json.loads(out)[key]["decimal"])
        if expected is not None:
            return None if value == expected else f"{key}={value}, expected {expected}"
        k = nu(value, p)
        if p**k != value or not lo <= k <= sum(e):
            return f"{key}={value} is not p^k with {lo} <= k <= {sum(e)}"
        return None

    return Op(label, 1, lambda: run_cli(argv), check)


def _reidemeister_op(rng: random.Random, k: int) -> Op:
    kind = rng.choice(("cyclic", "small", "dense"))
    p, e = _rand_type(rng, kind)
    rows = _rand_matrix(rng, p, e, auto=False)
    expected = None
    if kind == "cyclic":
        expected = math.gcd(rows[0][0] - 1, p ** e[0])
    elif kind == "small":
        expected = brute_fixed(p, e, rows)
    argv = ["reidemeister", _spec(p, e), "--matrix", _fmt(rows), "--json"]
    return _count_op(f"{k}:reidemeister", argv, "reidemeister", p, e, expected, 0)


def _pi_op(rng: random.Random, k: int) -> Op:
    kind = rng.choice(("cyclic", "small", "dense"))
    p, e = _rand_type(rng, kind)
    rows = _rand_matrix(rng, p, e, auto=True)
    expected = _pi_product(p, e, rows) if kind != "dense" else None
    argv = ["pi", _spec(p, e), "--matrix", _fmt(rows), "--json"]
    return _count_op(f"{k}:pi", argv, "pi", p, e, expected, floor_exponent(e))


def _witness_op(rng: random.Random, k: int) -> Op:
    p, e = _rand_type(rng, rng.choice(("cyclic", "small", "dense", "blocky")))
    lo, hi = floor_exponent(e), sum(e)
    m = lo + int(rng.random() ** 3 * (hi - lo + 1))  # low m leaves a-blocks at t = 0
    m = min(m, hi)
    argv = ["witness", _spec(p, e), "-m", str(m), "--json"]

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        payload = json.loads(out)
        em = EndoMatrix(PGroupType(p, e), parse_matrix(payload["matrix"]))
        if not is_automorphism(em):
            return "witness is not an automorphism"
        if product_number(em) != Factored.prime_power(p, m) or payload["pi"]["decimal"] != str(p**m):
            return f"witness product number is not {p}^{m}"
        return None

    return Op(f"{k}:witness", 1, lambda: run_cli(argv), check)


def _decompose_op(rng: random.Random, k: int) -> Op:
    e = tuple(sorted(rng.randint(1, 13) for _ in range(rng.randint(1, 12))))
    blocks, d = abc_blocks(e)
    expected = {
        "e": list(e),
        "blocks": [{"kind": kd, "start": s, "values": list(v)} for kd, s, v in blocks],
        "a": sum(1 for b in blocks if b[0] == "a"),
        "b": sum(1 for b in blocks if b[0] == "b"),
        "c": sum(1 for b in blocks if b[0] == "c"),
        "d": d,
        "sigma": sum(e),
    }
    argv = ["decompose", f"e={','.join(map(str, e))}", "--json"]

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        return None if json.loads(out) == expected else f"decompose {e} disagrees"

    return Op(f"{k}:decompose", 1, lambda: run_cli(argv), check)


def _spectrum_op(rng: random.Random, k: int) -> Op:
    orders: list[dict[int, int]] = []
    size = 1
    for _ in range(rng.randint(1, 3)):
        f = {q: rng.randint(1, 3) for q in rng.sample(SPECTRUM_PRIMES, rng.randint(1, 3))}
        if size * math.prod(q**v for q, v in f.items()) <= 10**5:
            orders.append(f)
            size *= math.prod(q**v for q, v in f.items())
    if not orders:
        orders = [{rng.choice(SPECTRUM_PRIMES): 1}]
    if rng.random() < 0.1:
        orders = [{rng.choice((2, 3)): 1, rng.choice(BIG_PRIMES): 1}]
    total: dict[int, int] = {}
    for f in orders:
        for q, v in f.items():
            total[q] = total.get(q, 0) + v
    two_type = tuple(sorted(f[2] for f in orders if 2 in f))
    floor = floor_exponent(two_type)
    divisors = [1]
    for q, v in total.items():
        divisors = [d * q**i for d in divisors for i in range(v + 1)]
    expected = sorted(d for d in divisors if nu(d, 2) >= floor)
    primes = sorted(str(q) for q in total)
    text = ",".join(str(math.prod(q**v for q, v in f.items())) for f in orders)
    argv = ["spectrum", text, "--witnesses", "--json"]

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        values = json.loads(out)["values"]
        if [int(v["decimal"]) for v in values] != expected:
            return f"spectrum of {text} breaks the divisor law"
        if any(sorted(v["witness"]) != primes for v in values):
            return f"spectrum of {text} lacks a witness per prime"
        return None

    return Op(f"{k}:spectrum", 1, lambda: run_cli(argv), check)


QUERY_MIX = ((_reidemeister_op, 30), (_pi_op, 25), (_witness_op, 20),
             (_decompose_op, 10), (_spectrum_op, 15))


def query_stream(seed: int) -> Iterator[Op]:
    """Endless seeded stream of CLI commands; the same seed gives the
    same commands in the same order."""
    rng = random.Random(seed)
    makers = [m for m, _ in QUERY_MIX]
    weights = [w for _, w in QUERY_MIX]
    k = 0
    while True:
        maker = rng.choices(makers, weights)[0]
        yield maker(rng, k)
        k += 1


# -- workload table -----------------------------------------------------------


QUERY_COUNT = 2000  # distinct commands per run: p99 has 20 samples beyond it


def query_ops(seed: int) -> list[Op]:
    return list(itertools.islice(query_stream(seed), QUERY_COUNT))


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what work_per_s counts
    op_name: str  # what one latency sample is
    warmup: str  # Python run after import, in the set-up probe and before timing
    ops: Callable[[int], list[Op]]  # the inputs of one pass, from the seed
    # Cells are timed back to back until this long, so the many cheap
    # cells of sweep-n3 get several samples.  Commands are not: each
    # gets its samples from separate rounds over the stream instead.
    repeat_s: float = 0.05


_VERIFY_WARMUP = "cli.main(['verify', '-p', '2', '-e', '1,1', '--json'])"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n4", "endomorphisms", "verify command (one cell)", _VERIFY_WARMUP,
                 lambda seed: [verify_op(p, e) for p, e in SWEEP_N4]),
        Workload("sweep-n3", "endomorphisms", "verify command (one cell)", _VERIFY_WARMUP,
                 lambda seed: [verify_op(p, e) for p, e in sweep_n3_cells()]),
        Workload("triple", "endomorphism x element pairs", "triple_check call (one cell)",
                 "_sweep.triple_check(PGroupType(2, (1, 1)), DEFAULT_BUDGET)",
                 lambda seed: [triple_op(p, e) for p, e in TRIPLE_CELLS]),
        Workload("queries", "commands", "CLI command",
                 "cli.main(['decompose', 'e=1,1', '--json'])", query_ops, repeat_s=0.0),
    )
}
