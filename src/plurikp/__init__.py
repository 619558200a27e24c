"""Pluri-Lagrangian structure of the dKP lattice equation.

Exact integer combinatorics of the A-type root lattice and the cubic
lattice (oriented cells, chains, flowers, 4D corners), the dilogarithm
3-form living on octahedra and 3D cubes, corner equations, and a seeded
verification suite for the branch equivalence, closure, and corner
decomposition statements.
"""

from .cells import (
    CellKind,
    Chain,
    OrientedCell,
    boundary,
    corner,
    cubic_point_flower,
    decompose_flower,
    facets,
    flower,
    format_cell,
    format_chain,
    parse_cell,
    parse_chain,
    project_cell,
    project_point,
    qan_point_flower,
    vertices,
)
from .dilog import GOLDEN_A, dilog, re_dilog, skew_dilog
from .dkp import (
    Branch,
    dkp_residual,
    golden_field,
    invert_field,
    read_field_file,
    solve_ambo_ivp,
    solve_cube_ivp,
    system_on_4cell,
    write_field_file,
)
from .lagrangian import (
    CornerProduct,
    action,
    corner_product,
    corner_residual,
    exterior_derivative,
    three_form,
)
from .verify import (
    BranchReport,
    CheckRecord,
    SuiteConfig,
    SuiteResult,
    check_euler_lagrange_sum,
    classify_branch,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchReport",
    "CellKind",
    "Chain",
    "CheckRecord",
    "CornerProduct",
    "GOLDEN_A",
    "OrientedCell",
    "SuiteConfig",
    "SuiteResult",
    "action",
    "boundary",
    "check_euler_lagrange_sum",
    "classify_branch",
    "corner",
    "corner_product",
    "corner_residual",
    "cubic_point_flower",
    "decompose_flower",
    "dilog",
    "dkp_residual",
    "exterior_derivative",
    "facets",
    "flower",
    "format_cell",
    "format_chain",
    "golden_field",
    "invert_field",
    "parse_cell",
    "parse_chain",
    "project_cell",
    "project_point",
    "qan_point_flower",
    "re_dilog",
    "read_field_file",
    "run_suite",
    "skew_dilog",
    "solve_ambo_ivp",
    "solve_cube_ivp",
    "system_on_4cell",
    "three_form",
    "vertices",
    "write_field_file",
]
