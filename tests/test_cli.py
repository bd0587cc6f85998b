import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from reidemeister import (
    EndoMatrix,
    Factored,
    IntMatrix,
    PGroupType,
    format_matrix,
    is_automorphism,
    parse_matrix,
    product_number,
    reidemeister_number,
    spec_r_abelian,
)
import reidemeister
from reidemeister import cli
from reidemeister.cli import main
from reidemeister.spectra import AbelianGroupType


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_help_examples_run(capsys):
    # every quoted example in a command's group help, run through that
    # command with the other arguments it requires
    subparsers = next(a for a in cli.build_parser()._actions if a.choices and "pi" in a.choices)
    ran = set()
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest != "group":
                continue
            for example in re.findall(r"'([^']+)'", action.help):
                argv = [name, *example.split()]
                if name in ("witness", "reidemeister", "pi"):
                    g = cli._parse_ptype(example.split())
                    identity = format_matrix(IntMatrix.identity(g.n))
                    argv += ["-m", str(g.total_exponent)] if name == "witness" else ["--matrix", identity]
                code, _, err = run(capsys, *argv)
                assert code == 0, (argv, err)
                ran.add(name)
    assert ran == {"spectrum", "pi-spectrum", "decompose", "witness", "reidemeister", "pi"}


# -- spectrum ----------------------------------------------------------------


def test_spectrum_orders(capsys):
    code, out, _ = run(capsys, "spectrum", "4,3")
    assert code == 0
    assert out.strip() == "2 4 6 12"


def test_spectrum_ptype_odd(capsys):
    code, out, _ = run(capsys, "spectrum", "p=3", "e=1,2")
    assert code == 0
    assert out.strip() == "1 3 9 27"


def test_spectrum_ptype_two(capsys):
    code, out, _ = run(capsys, "spectrum", "p=2", "e=2,3")
    assert code == 0
    assert out.strip() == "2 4 8 16 32"


def test_spectrum_json_schema(capsys):
    code, out, _ = run(capsys, "spectrum", "4,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"]["orders"] == [3, 4]
    assert payload["group"]["sylow"] == {"2": [2], "3": [1]}
    assert [v["decimal"] for v in payload["values"]] == ["2", "4", "6", "12"]
    assert payload["values"][0]["factorization"] == {"2": 1}
    assert payload["values"][2]["factorization"] == {"2": 1, "3": 1}


def test_spectrum_witnesses_revalidate(capsys):
    code, out, _ = run(capsys, "spectrum", "12,2", "--witnesses", "--json")
    assert code == 0
    payload = json.loads(out)
    group = AbelianGroupType((12, 2))
    for value in payload["values"]:
        target = int(value["decimal"])
        combined = 1
        for prime_text, matrix_text in value["witness"].items():
            p = int(prime_text)
            g = group.sylow()[p]
            em = EndoMatrix(g, parse_matrix(matrix_text))
            assert is_automorphism(em)
            combined *= reidemeister_number(em).to_int()
        assert combined == target


def test_spectrum_text_witnesses_parse_back(capsys):
    code, out, _ = run(capsys, "spectrum", "4,3", "--witnesses")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 4 6 12"
    group = AbelianGroupType((4, 3))
    for line in lines[1:]:
        head, _, rest = line.partition(":")
        target = int(head.split()[1])
        combined = 1
        for pair in rest.split():
            prime_text, _, matrix_text = pair.partition("=")
            g = group.sylow()[int(prime_text)]
            em = EndoMatrix(g, parse_matrix(matrix_text))
            assert is_automorphism(em)
            combined *= reidemeister_number(em).to_int()
        assert combined == target


def test_spectrum_parse_and_type_errors(capsys):
    code, _, err = run(capsys, "spectrum", "4,x")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "spectrum", "p=4", "e=1")
    assert code == 3 and "invalid type" in err
    code, _, err = run(capsys, "spectrum", "1,4")
    assert code == 3


def test_spectrum_of_large_orders_ends_quickly():
    # trial division to sqrt(n) did not end on these; a subprocess with a
    # timeout fails instead of hanging
    env = {**os.environ, "PYTHONPATH": str(Path(reidemeister.__file__).parents[1])}
    cases = {
        "1000000000000000003": "1 1000000000000000003",
        "1000000016000000063": "1 1000000007 1000000009 1000000016000000063",
    }
    for order, expected in cases.items():
        done = subprocess.run(
            [sys.executable, "-m", "reidemeister", "spectrum", order],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected


def test_spectrum_past_primality_bound_is_invalid_type(capsys):
    code, out, err = run(capsys, "spectrum", str(2**89 - 1))
    assert code == 3 and out == ""
    assert "proven primality bound" in err


# -- pi-spectrum --------------------------------------------------------------


def test_pi_spectrum(capsys):
    code, out, _ = run(capsys, "pi-spectrum", "p=2", "e=2,3")
    assert code == 0 and out.strip() == "2 4 8 16 32"
    code, out, _ = run(capsys, "pi-spectrum", "p=3", "e=1,1")
    assert code == 0 and out.strip() == "1 3 9"


def test_pi_spectrum_rejects_mixed_group(capsys):
    code, _, err = run(capsys, "pi-spectrum", "4,3")
    assert code == 2 and "not a p-group" in err


def test_pi_spectrum_accepts_prime_power_orders(capsys):
    code, out, _ = run(capsys, "pi-spectrum", "4,8")
    assert code == 0 and out.strip() == "2 4 8 16 32"


# -- decompose ----------------------------------------------------------------


def test_decompose_worked_example(capsys):
    code, out, _ = run(capsys, "decompose", "e=1,1,2,3,4,4,6,7,8,10,12,13")
    assert code == 0
    assert out.strip() == (
        "((1,1),(2,3),(4,4),(6,7),(8),(10),(12,13)) "
        "a=2 b=3 c=2 d=0,0,1,1,1,1,2,2,3,4,5,5 sigma=71"
    )


def test_decompose_singleton(capsys):
    code, out, _ = run(capsys, "decompose", "e=5")
    assert code == 0
    assert out.strip() == "((5)) a=0 b=0 c=1 d=0 sigma=5"


def test_decompose_staircase_json(capsys):
    code, out, _ = run(capsys, "decompose", "e=1,2,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [
        {"kind": "b", "start": 0, "values": [1, 2]},
        {"kind": "c", "start": 2, "values": [3]},
    ]
    assert payload["b"] == 1 and payload["c"] == 1
    assert payload["d"] == [0, 0, 1]


# -- witness / reidemeister / pi ------------------------------------------------


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "p=2", "e=2,3", "-m", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,1;2,1"
    assert lines[1] == "Pi=2"


def test_witness_verified_value(capsys):
    code, out, _ = run(capsys, "witness", "p=3", "e=1,1,2", "-m", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    g = PGroupType(3, (1, 1, 2))
    em = EndoMatrix(g, parse_matrix(payload["matrix"]))
    assert product_number(em) == Factored.prime_power(3, 3)
    assert payload["pi"]["decimal"] == "27"


def test_witness_failed_self_check_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "product_number", lambda em: Factored.one())
    code, out, err = run(capsys, "witness", "p=2", "e=2,3", "-m", "1")
    assert code == 7 and out == ""
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_witness_out_of_spectrum_exit(capsys):
    code, _, err = run(capsys, "witness", "p=2", "e=3", "-m", "7")
    assert code == 4 and "out of spectrum" in err


def test_reidemeister_command(capsys):
    code, out, _ = run(capsys, "reidemeister", "p=2", "e=3", "--matrix", "5")
    assert code == 0 and out.strip() == "4 = 2^2"


def test_pi_command(capsys):
    code, out, _ = run(capsys, "pi", "p=3", "e=1,1", "--matrix", "0,2;1,0")
    assert code == 0 and out.strip() == "1"


def test_trivial_group_at_a_large_prime_ends_quickly():
    # the product number of the trivial group once multiplied p - 1 ones;
    # a subprocess with a timeout fails instead of hanging
    env = {**os.environ, "PYTHONPATH": str(Path(reidemeister.__file__).parents[1])}
    cases = {
        ("pi", "p=1000000007 e=", "--matrix", ""): "1",
        ("verify", "-p", "1000000007", "-e", ""): (
            "p=1000000007 e= endos=1 autos=1 R=ok Pi=ok bounds=ok structure=ok samples=ok\n"
            "summary: 1 cells, 1 passed, 0 failed, 0 skipped"
        ),
    }
    for argv, expected in cases.items():
        done = subprocess.run(
            [sys.executable, "-m", "reidemeister", *argv],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected


def test_matrix_error_exits(capsys):
    code, _, err = run(capsys, "reidemeister", "p=2", "e=1,2", "--matrix", "1,1;1,1")
    assert code == 5 and "invalid matrix" in err
    code, _, _ = run(capsys, "reidemeister", "p=2", "e=3", "--matrix", "1,x")
    assert code == 2
    code, _, err = run(capsys, "pi", "p=3", "e=1,1", "--matrix", "1,1;1,1")
    assert code == 5
    code, _, _ = run(capsys, "reidemeister", "p=2", "e=1,2", "--matrix", "1")
    assert code == 5


# -- verify ----------------------------------------------------------------------


def test_verify_single_cell(capsys):
    code, out, _ = run(capsys, "verify", "-p", "3", "-e", "1,1")
    assert code == 0
    assert "autos=48" in out
    assert "R=ok Pi=ok bounds=ok structure=ok samples=ok" in out


def test_verify_budget_skip(capsys):
    code, out, _ = run(capsys, "verify", "-p", "7", "-e", "9,9,9")
    assert code == 0
    assert "SKIPPED" in out


def test_verify_skips_cells_outside_int64_bounds(capsys, monkeypatch):
    # 2^225 endomorphisms: too many indices for int64, whatever the budget
    code, out, err = run(capsys, "verify", "-p", "2", "-e", "9,9,9,9,9", "--max-endos", str(2**300))
    assert code == 0 and err == ""
    assert "p=2 e=9,9,9,9,9 SKIPPED" in out
    # 2^34 endomorphisms fit the budget, but p^{2E} = 2^62 does not fit
    monkeypatch.setenv("REIDEMEISTER_BUDGET", str(2**40))
    code, out, err = run(capsys, "verify", "-p", "2", "-e", "1,31")
    assert code == 0 and err == ""
    assert "p=2 e=1,31 SKIPPED" in out
    assert out.splitlines()[-1] == "summary: 1 cells, 0 passed, 0 failed, 1 skipped"


def test_verify_bad_exponent_list(capsys):
    code, out, err = run(capsys, "verify", "-p", "2", "-e", "1,x")
    assert code == 2 and "parse error" in err and out == ""


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "-p", "2", "-e", "2,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    (cell,) = payload["results"]
    assert cell["cell"] == "p=2 e=2,3"
    assert cell["autos"] == 128
    assert all(cell["checks"].values())


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # build_parser is cached: a flag given in one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    argv = ["verify", "-p", "2", "-e", "2,3"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["summary"]["failed"] == 0
    code, out, _ = run(capsys, *argv)
    assert code == 0 and not out.startswith("{")
    assert "p=2 e=2,3" in out and " 0 failed" in out.splitlines()[-1]


def test_verify_small_budget_sweep(capsys):
    code, out, _ = run(capsys, "verify", "-p", "2", "--max-endos", "4096")
    assert code == 0
    assert "failed" in out.splitlines()[-1]
    assert " 0 failed" in out.splitlines()[-1]


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("REIDEMEISTER_BUDGET", "64")
    code, out, _ = run(capsys, "verify", "-p", "2", "-e", "2,3")
    assert code == 0
    assert "SKIPPED" in out
    for bad in ("not-a-number", "64,1"):
        monkeypatch.setenv("REIDEMEISTER_BUDGET", bad)
        code, _, err = run(capsys, "verify", "-p", "2", "-e", "1")
        assert code == 2 and "REIDEMEISTER_BUDGET='MAX_ENDOS'" in err


def test_non_positive_budget_is_parse_error(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "-p", "2", "--max-endos", "0")
    assert code == 2 and err.startswith("parse error: ") and out == ""
    monkeypatch.setenv("REIDEMEISTER_BUDGET", "0")
    code, out, err = run(capsys, "verify", "-p", "2")
    assert code == 2 and err.startswith("parse error: ") and out == ""


# -- atlas ------------------------------------------------------------------------


def test_atlas_small(tmp_path, capsys):
    out_path = tmp_path / "atlas.json"
    code, out, _ = run(capsys, "atlas", "--max-order", "4", "--out", str(out_path))
    assert code == 0
    entries = json.loads(out_path.read_text())
    labels = [tuple(e["group"]["orders"]) for e in entries]
    assert labels == [(2,), (3,), (2, 2), (4,)]
    by_label = {tuple(e["group"]["orders"]): e for e in entries}
    assert [v["decimal"] for v in by_label[(2, 2)]["spectrum"]] == ["1", "2", "4"]
    assert by_label[(2, 2)]["sylow2_blocks"]["a"] == 1
    assert "sylow2_blocks" not in by_label[(3,)]


def test_atlas_byte_stable_and_roundtrips(tmp_path, capsys):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert run(capsys, "atlas", "--max-order", "30", "--out", str(path_a))[0] == 0
    assert run(capsys, "atlas", "--max-order", "30", "--out", str(path_b))[0] == 0
    blob = path_a.read_bytes()
    assert blob == path_b.read_bytes()

    # recomputing every spectrum from the parsed file reproduces it
    entries = json.loads(blob)
    for entry in entries:
        group = AbelianGroupType(tuple(entry["group"]["orders"]))
        expected = [
            {
                "decimal": str(v.to_int()),
                "factorization": {str(p): k for p, k in v.factorization.items()},
            }
            for v in spec_r_abelian(group).sorted_values()
        ]
        assert entry["spectrum"] == expected
        assert entry["order"] == group.order


def test_atlas_z12_entry(tmp_path, capsys):
    out_path = tmp_path / "atlas12.json"
    run(capsys, "atlas", "--max-order", "12", "--out", str(out_path))
    entries = json.loads(out_path.read_text())
    z12 = [e for e in entries if e["group"]["orders"] == [3, 4]]
    assert len(z12) == 1
    assert [v["decimal"] for v in z12[0]["spectrum"]] == ["2", "4", "6", "12"]


def test_atlas_witnesses_validate(tmp_path, capsys):
    out_path = tmp_path / "atlas_w.json"
    code, _, _ = run(capsys, "atlas", "--max-order", "8", "--out", str(out_path), "--witnesses")
    assert code == 0
    for entry in json.loads(out_path.read_text()):
        group = AbelianGroupType(tuple(entry["group"]["orders"]))
        sylow = group.sylow()
        for decimal, per_prime in entry["witnesses"].items():
            combined = 1
            for prime_text, matrix_text in per_prime.items():
                g = sylow[int(prime_text)]
                em = EndoMatrix(g, parse_matrix(matrix_text))
                assert is_automorphism(em)
                combined *= reidemeister_number(em).to_int()
            assert combined == int(decimal)


# sha256 of `atlas --max-order 100 --witnesses` when the witness
# construction was first pinned; the file must stay byte-identical
ATLAS_100_SHA256 = "47b0713c715d59257d62f4df508f5c8f0a316d939578030644dea530e6400ff5"


def test_atlas_100_witnesses_digest(tmp_path, capsys):
    out_path = tmp_path / "atlas100.json"
    code, _, _ = run(capsys, "atlas", "--max-order", "100", "--witnesses", "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == ATLAS_100_SHA256


def test_atlas_unwritable(capsys):
    code, _, err = run(capsys, "atlas", "--max-order", "3", "--out", "/nonexistent/x.json")
    assert code == 6 and "cannot write" in err


def test_atlas_group_count_order_16(tmp_path, capsys):
    # partitions of 4 give five groups of order 16
    out_path = tmp_path / "atlas16.json"
    run(capsys, "atlas", "--max-order", "16", "--out", str(out_path))
    entries = json.loads(out_path.read_text())
    assert sum(1 for e in entries if e["order"] == 16) == 5


# -- exit-code contract ------------------------------------------------------------

LABELS = {2: "parse error", 3: "invalid type", 4: "out of spectrum", 5: "invalid matrix"}


def test_error_classes_carry_their_exit_codes():
    from reidemeister import errors

    table = {
        name: (cls.exit_code, cls.label)
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.ReidemeisterError)
    }
    internal = (7, "internal error")
    assert table == {
        "ReidemeisterError": internal,
        "MatrixFormatError": (2, LABELS[2]),
        "GroupSpecError": (2, LABELS[2]),
        "NotPrime": (3, LABELS[3]),
        "NumberTooLarge": (3, LABELS[3]),
        "NonPositiveExponent": (3, LABELS[3]),
        "OutOfRange": (3, LABELS[3]),
        "WrongPrime": (3, LABELS[3]),
        "OutOfSpectrum": (4, LABELS[4]),
        "DimensionMismatch": (5, LABELS[5]),
        "InvalidEndoMatrix": (5, LABELS[5]),
        "NotAutomorphism": (5, LABELS[5]),
        "RankDeficient": internal,
        "NotCoprime": internal,
        "NotCharacteristic": internal,
        "FullDepth": internal,
        "BudgetExceeded": internal,
        "InvariantViolation": internal,
    }


def test_order_below_two_keeps_its_message(capsys):
    code, out, err = run(capsys, "spectrum", "1,4")
    assert (code, out) == (3, "")
    assert err == "invalid type: cyclic orders must be >= 2, got (1, 4)\n"


def test_repeated_type_spec_token_is_parse_error(capsys):
    # the later token used to win: Z/3 and Z/4 instead of an error
    for argv in (["p=2", "e=1", "p=3"], ["p=2", "e=1", "e=2"]):
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == 2 and out == ""
        assert err.startswith("parse error: repeated ")


def test_values_too_large_to_print_are_invalid_type(capsys):
    # 2^20000 has 6021 decimal digits, past Python's int-to-str limit
    for argv in (
        ["reidemeister", "p=2", "e=20000", "--matrix", "1"],
        ["reidemeister", "p=2", "e=20000", "--matrix", "1", "--json"],
        ["witness", "p=2", "e=20000", "-m", "20000"],
        ["witness", "p=2", "e=20000", "-m", "20000", "--json"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("invalid type: 2^20000 has more than ") and "4300" in err


def test_failures_that_are_not_input_errors_are_internal(capsys, monkeypatch):
    for exc in (ValueError("boom"), ZeroDivisionError("boom")):

        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "spec_r_abelian", fail)
        code, out, err = run(capsys, "spectrum", "4,3")
        assert code == 7 and out == ""
        assert err == f"internal error: {type(exc).__name__}: boom\n"


# numbers of at most three digits, often small enough for a valid group
_SMALL = st.one_of(st.integers(0, 4), st.integers(-99, 999))
_PRIMES = st.sampled_from([2, 3, 5, 7])


def _csv(numbers) -> str:
    return ",".join(str(v) for v in numbers)


def _matrix(rows: int):
    return st.lists(st.lists(_SMALL, min_size=rows, max_size=rows), min_size=rows, max_size=rows)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["spectrum", "pi-spectrum", "decompose", "witness", "reidemeister", "pi"]))
    p, e = draw(_PRIMES), draw(st.lists(_SMALL, max_size=4))
    group = draw(st.one_of(
        st.just([f"p={p}", f"e={_csv(e)}"]),
        st.just([f"e={_csv(e)}"]),
        st.lists(st.integers(0, 999), min_size=1, max_size=4).map(lambda orders: [_csv(orders)]),
        st.lists(st.sampled_from(["p=2", "p=4", "e=1,2", "e=", "e=1,,2", "p=x", "q=3", "4,x"]),
                 min_size=1, max_size=3),
    ))
    argv = [command, *group]
    if command == "witness":
        argv += ["-m", str(draw(_SMALL))]
    elif command in ("reidemeister", "pi"):
        rows = draw(st.one_of(_matrix(len(e)), st.integers(0, 4).flatmap(_matrix)))
        argv.append(f"--matrix={';'.join(_csv(row) for row in rows)}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


# every example has taken well under a second; the deadline catches one that hangs
@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(_argv())
def test_cli_fuzz_ends_with_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in {0, 2, 3, 4, 5}, (argv, err)
    assert (out == "") == (code != 0)
    assert (err == "") == (code == 0)
    if err:
        assert err.startswith(LABELS[code] + ": ")
