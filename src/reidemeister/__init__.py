"""Twisted conjugacy counts and Reidemeister spectra of finite abelian groups.

The library models endomorphisms of finite abelian p-groups as integer
matrices, counts their fixed points exactly through lattice indices (a
column triangularization per object, a valuation-pivot Smith elimination
in the batched sweeps), evaluates the closed-form spectra, constructs
witness automorphisms for every spectrum value, and verifies the closed
forms against brute-force enumeration oracles.
"""

from .core import (
    Factored,
    IntMatrix,
    det_mod_p,
    format_matrix,
    lattice_index,
    parse_matrix,
)
from .decomposition import (
    Block,
    BlockDecomposition,
    ColumnReport,
    abc_decompose,
    block_notation,
    column_structure_check,
    is_characteristic,
    restrict,
)
from .endo import (
    EndoMatrix,
    PGroupType,
    apply,
    elements,
    fixed_point_count,
    is_automorphism,
    is_valid_endo,
    parse_type_spec,
    reidemeister_number,
    validate_type,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FullDepth,
    GroupSpecError,
    InvalidEndoMatrix,
    InvariantViolation,
    MatrixFormatError,
    NonPositiveExponent,
    NotAutomorphism,
    NotCharacteristic,
    NotPrime,
    NumberTooLarge,
    OutOfRange,
    OutOfSpectrum,
    RankDeficient,
    ReidemeisterError,
    WrongPrime,
)
from .oracle import (
    DEFAULT_BUDGET,
    brute_fixed_points,
    endomorphism_count,
    iter_partitions,
    iter_types,
    oracle_spectrum,
    twisted_class_count,
)
from .spectra import (
    AbelianGroupType,
    Spectrum,
    companion_matrix,
    find_irreducible,
    product_number,
    spec_p,
    spec_r_2group,
    spec_r_abelian,
    spec_r_odd_p,
    witness,
    witness_abelian,
)

__version__ = "0.1.0"
