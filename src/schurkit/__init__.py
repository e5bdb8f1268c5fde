"""schurkit: the quantum Schur transform on n qudits.

Subgroup-adapted bases (Gel'fand-Zetlin patterns, Young-Yamanouchi paths),
reduced Wigner coefficients, the recursive Clebsch-Gordan transform, the
Schur cascade, brute-force verification oracles, and two-level gate
synthesis.
"""

__version__ = "0.1.0"

from .bases import (
    GzPattern,
    YyPath,
    decode_registers,
    encode_registers,
    enumerate_gz,
    enumerate_paths,
    gz_to_ssyt,
    rank_path,
    ssyt_to_gz,
    unrank_path,
)
from .circuit import GateList, gate_count_report, two_level_decompose
from .clebsch_gordan import CgBlock, cg_block
from .oracle import (
    ConsistencyError,
    Permutation,
    StandardTableauFilling,
    extract_irrep,
    extract_perm_irrep,
    perm_matrix,
    schur_polynomial,
    tensor_power,
    young_symmetrizer,
)
from .partitions import (
    Partition,
    add_box,
    dim_P,
    dim_Q,
    enumerate_partitions,
    interlaces,
    remove_box,
    remove_box_set,
)
from .schur import (
    ResourceLimitError,
    SchurUnitary,
    schur_apply,
    schur_labels,
    schur_unitary,
)
from .wigner import ReducedWignerQuery, reduced_wigner, reduced_wigner_matrix

__all__ = [
    "CgBlock",
    "ConsistencyError",
    "GateList",
    "GzPattern",
    "Partition",
    "Permutation",
    "ReducedWignerQuery",
    "ResourceLimitError",
    "SchurUnitary",
    "StandardTableauFilling",
    "YyPath",
    "add_box",
    "cg_block",
    "decode_registers",
    "dim_P",
    "dim_Q",
    "encode_registers",
    "enumerate_gz",
    "enumerate_partitions",
    "enumerate_paths",
    "extract_irrep",
    "extract_perm_irrep",
    "gate_count_report",
    "gz_to_ssyt",
    "interlaces",
    "perm_matrix",
    "rank_path",
    "reduced_wigner",
    "reduced_wigner_matrix",
    "remove_box",
    "remove_box_set",
    "schur_apply",
    "schur_labels",
    "schur_polynomial",
    "schur_unitary",
    "ssyt_to_gz",
    "tensor_power",
    "two_level_decompose",
    "unrank_path",
    "young_symmetrizer",
]
