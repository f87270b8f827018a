"""P1 triangle finite-element matrix assembly, four ways.

The package builds mass, weighted-mass, stiffness and plane-elasticity
matrices over triangle meshes with four interchangeable strategies, from
naive per-entry insertion into compressed-sparse-column storage up to a
fully batched structure-of-arrays kernel, plus a benchmark CLI that
measures how their costs scale with mesh size.
"""

__version__ = "0.1.0"

from .assembly import (
    AssemblyBudgetExceeded,
    MatrixKind,
    Strategy,
    WeightField,
    assemble,
    batch_gradients,
    batch_kg_elastic,
    batch_kg_mass,
    batch_kg_mass_weighted,
    batch_kg_stiff,
    build_ig_jg_p1,
    build_ig_jg_p1_vector,
)
from .bench import BenchRecord, fit_loglog_slope, read_records_csv, run_bench, write_records_csv
from .elements import (
    ElasticParams,
    elem_mass,
    elem_mass_weighted,
    elem_stiff,
    elem_stiff_elastic,
)
from .mesh import (
    DegenerateTriangleError,
    InvalidMeshError,
    Mesh,
    MeshFormatError,
    compute_areas,
    generate_disk_mesh,
    generate_unit_square_mesh,
    read_mesh,
    write_mesh,
)
from .sparse import (
    CscBuilder,
    CscMatrix,
    Pattern,
    csc_from_triplets,
    max_abs_diff,
    write_matrix_market,
)

__all__ = [
    "AssemblyBudgetExceeded",
    "BenchRecord",
    "CscBuilder",
    "CscMatrix",
    "DegenerateTriangleError",
    "ElasticParams",
    "InvalidMeshError",
    "MatrixKind",
    "Mesh",
    "MeshFormatError",
    "Pattern",
    "Strategy",
    "WeightField",
    "assemble",
    "batch_gradients",
    "batch_kg_elastic",
    "batch_kg_mass",
    "batch_kg_mass_weighted",
    "batch_kg_stiff",
    "build_ig_jg_p1",
    "build_ig_jg_p1_vector",
    "compute_areas",
    "csc_from_triplets",
    "elem_mass",
    "elem_mass_weighted",
    "elem_stiff",
    "elem_stiff_elastic",
    "fit_loglog_slope",
    "generate_disk_mesh",
    "generate_unit_square_mesh",
    "max_abs_diff",
    "read_mesh",
    "read_records_csv",
    "run_bench",
    "write_matrix_market",
    "write_mesh",
    "write_records_csv",
]
