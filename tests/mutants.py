"""Mutants of the package source that the suite must kill.

Each entry is (file under src/reidemeister, the exact text it replaces,
found there exactly once, its replacement, the test node ids that must
each fail with the replacement in place).  The slow
``test_source.py::test_every_mutant_is_killed`` applies them one at a
time to a copy of the package and runs the named tests against it.
"""

MUTANTS = {
    "runs merges two adjacent runs": (
        "endo.py",
        "if i == 0 or self.e[i - 1] < self.e[i]]",
        "if i == 0 or self.e[i - 1] + 1 < self.e[i]]",
        [
            "tests/test_endo.py::test_runs_are_the_groupby_runs",
            "tests/test_decomposition.py::test_one_scan_matches_the_three_passes",
        ],
    ),
    "_invertible_mod_p skips the last run": (
        "_sweep.py",
        "    for lo, hi in g.runs:\n",
        "    for lo, hi in g.runs[:-1]:\n",
        [
            "tests/test_oracle.py::test_run_block_invertibility_matches_full_determinant",
            "tests/test_oracle.py::test_block_determinants_accumulate_in_int64",
        ],
    ),
    "_decode reads the digits in reverse order": (
        "_sweep.py",
        "np.unravel_index(indices, counts)",
        'np.unravel_index(indices, counts, order="F")',
        [
            "tests/test_oracle.py::test_decode_matches_enumeration_order",
            "tests/test_oracle.py::test_decode_matches_the_place_value_reference",
        ],
    ),
    "a b-block needs no v + 1": (
        "decomposition.py",
        "runs[k + 1] == (end, end + 1) and e[end] == e[start] + 1:",
        "runs[k + 1] == (end, end + 1):",
        [
            "tests/test_acceptance.py::test_criterion_1_worked_example",
            "tests/test_decomposition.py::test_one_scan_matches_the_three_passes",
        ],
    ),
    "Ben-Or stops one degree short": (
        "spectra.py",
        "for _ in range(degree // 2):",
        "for _ in range(degree // 2 - 1):",
        [
            "tests/test_spectra.py::test_is_irreducible_matches_trial_division",
            "tests/test_spectra.py::test_find_irreducible_matches_the_plain_search",
        ],
    ),
    "the endomorphism cap takes one fewer": (
        "_sweep.py",
        "    if total > budget:\n",
        "    if total >= budget:\n",
        [
            "tests/test_oracle.py::test_endo_cap_at_its_edge",
            "tests/test_cli.py::test_endo_cap_at_its_edge",
        ],
    ),
    "the element kernel takes a stack that is not a run": (
        "_sweep.py",
        "if not ((run[n - 1] == last[:, None]).all() and (rest == rest[..., :1]).all()):",
        "if False:",
        ["tests/test_oracle.py::test_element_counts_refuse_a_stack_that_is_not_a_run"],
    ),
    "the element kernel takes a run across a block boundary": (
        "_sweep.py",
        "if batch % rows or first + rows > order or batch * order >= 2**31:",
        "if batch % rows or batch * order >= 2**31:",
        ["tests/test_oracle.py::test_element_counts_refuse_a_stack_that_is_not_a_run"],
    ),
    "the odd-p witness takes an exponent past S": (
        "spectra.py",
        "if m < 0 or m > g.total_exponent:",
        "if m < 0:",
        ["tests/test_spectra.py::test_witness_abelian_out_of_spectrum"],
    ),
    "the first b- or c-block is one level deep": (
        "decomposition.py",
        'if kind != "a" and blocks:',
        'if kind != "a":',
        [
            "tests/test_decomposition.py::test_staircase",
            "tests/test_decomposition.py::test_one_scan_matches_the_three_passes",
        ],
    ),
    "a b-block needs no adjacent single run": (
        "decomposition.py",
        "runs[k + 1] == (end, end + 1) and e[end] == e[start] + 1:",
        "e[end] == e[start] + 1:",
        [
            "tests/test_decomposition.py::test_blocks_partition_and_reassemble",
            "tests/test_decomposition.py::test_one_scan_matches_the_three_passes",
        ],
    ),
}
