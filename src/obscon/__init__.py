"""Observable constraints of hidden-variable causal DAG models.

Derives the complete set of equality and inequality constraints a
hidden-variable DAG with discrete observed variables imposes on the observed
distribution (complete when every district has a single latent cause), and
evaluates them against empirical distributions.
"""

from ._version import __version__
from .graph import (
    ConditionReport,
    District,
    GraphParseError,
    GraphStructureError,
    HiddenDag,
    Variable,
    load_graph,
    parse_graph,
    validate_conditions,
)
from .independence import CIStatement, d_separated, enumerate_ci
from .polyhedra import (
    HRep,
    UnboundedPolytopeError,
    VRep,
    v_to_h,
)
from .response import (
    ColumnLimitError,
    Configuration,
    FunctionalSystem,
    build_functional_system,
    star_probability,
)
from .tables import JointTable, TableError, load_table, parse_table
from .transform import (
    RewriteError,
    RewriteLog,
    absorb_nested_latents,
    exogenize,
    hlp_add_edge,
    merge_district_latents,
    normalize,
    replace_latent_with_edges,
    strong_face_split,
)
from .constraints import (
    ConditionsError,
    Constraint,
    DerivationResult,
    DeriveOptions,
    ViolationReport,
    derive_all,
    evaluate,
    flag_nontrivial,
    render,
)

__all__ = [
    "__version__",
    "CIStatement",
    "ColumnLimitError",
    "ConditionReport",
    "ConditionsError",
    "Configuration",
    "Constraint",
    "DerivationResult",
    "DeriveOptions",
    "District",
    "FunctionalSystem",
    "GraphParseError",
    "GraphStructureError",
    "HRep",
    "HiddenDag",
    "JointTable",
    "RewriteError",
    "RewriteLog",
    "TableError",
    "UnboundedPolytopeError",
    "VRep",
    "Variable",
    "ViolationReport",
    "absorb_nested_latents",
    "build_functional_system",
    "d_separated",
    "derive_all",
    "enumerate_ci",
    "evaluate",
    "exogenize",
    "flag_nontrivial",
    "hlp_add_edge",
    "load_graph",
    "load_table",
    "merge_district_latents",
    "normalize",
    "parse_graph",
    "parse_table",
    "render",
    "replace_latent_with_edges",
    "star_probability",
    "strong_face_split",
    "v_to_h",
    "validate_conditions",
]
