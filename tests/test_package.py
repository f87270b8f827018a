"""The package's one list of public names, and copy and pickle of the
values that cross process boundaries: meshes, matrices, patterns and
weights."""

import copy
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import femasm
from femasm import (
    CscMatrix,
    MatrixKind,
    Pattern,
    Strategy,
    WeightField,
    assemble,
    csc_from_triplets,
    generate_disk_mesh,
    generate_unit_square_mesh,
)

CSC = ("n_rows", "n_cols", "col_ptr", "row_idx")
MODULES = (femasm.assembly, femasm.bench, femasm.elements, femasm.mesh, femasm.sparse)
ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_all_is_the_module_lists_without_duplicates():
    assert femasm.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(femasm.__all__)) == len(femasm.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(femasm, name) is getattr(module, name), name


def _csc_matrices():
    square = generate_unit_square_mesh(3)
    params = femasm.ElasticParams(1.0, 1.0)
    elastic = assemble(square, MatrixKind.ELASTIC, Strategy.OPTV2, params=params)
    mass = assemble(square, MatrixKind.MASS, Strategy.OPTV2)
    # the square's elastic matrix drops positions that sum to 0.0, its mass matrix none
    assert elastic.nnz < square.vector_pattern.nnz and mass.nnz == square.pattern.nnz
    return {"dropped-zeros": elastic, "kept-all": mass}


def _patterns():
    narrow = generate_disk_mesh(3).pattern
    wide = Pattern(2**31, 2, [0, 1, 2], [2**31 - 1, 0], [1, 0, 1])
    assert narrow.col_ptr.dtype == np.int32 and wide.col_ptr.dtype == np.int64
    return {"int32": narrow, "int64": wide}


def _assert_same_arrays(a, b, names):
    assert type(a) is type(b)
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
            assert not y.flags.writeable, name
            assert not np.shares_memory(x, y), name  # copy too goes through the constructor
        else:
            assert type(x) is type(y) and x == y, name


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("which", ["dropped-zeros", "kept-all"])
def test_csc_matrix_round_trips(how, which):
    a = _csc_matrices()[which]
    _assert_same_arrays(a, ROUND_TRIPS[how](a), CSC + ("values",))


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("which", ["int32", "int64"])
def test_pattern_round_trips(how, which):
    p = _patterns()[which]
    _assert_same_arrays(p, ROUND_TRIPS[how](p), CSC + ("slot",))


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_mesh_round_trips(how):
    mesh = generate_disk_mesh(4)
    mesh.pattern  # a cached pattern is not carried along; the copy builds its own
    back = ROUND_TRIPS[how](mesh)
    assert back == mesh
    _assert_same_arrays(mesh, back, ("vertices", "connectivity", "areas"))
    _assert_same_arrays(mesh.pattern, back.pattern, CSC + ("slot",))


def test_restored_matrix_goes_through_the_checked_constructor():
    a = csc_from_triplets([0, 1], [0, 1], [1.0, 2.0], 2, 2)
    cls, args = a.__reduce__()
    assert cls is CscMatrix
    with pytest.raises(ValueError, match="row index 2 at position 1 out of range"):
        cls(*args[:3], np.array([0, 2]), args[4])


@pytest.mark.parametrize("name", ["one", "linear", "quadratic"])
def test_named_weights_pickle(name):
    weight = WeightField.by_name(name)
    back = pickle.loads(pickle.dumps(weight))
    mesh = generate_unit_square_mesh(2)
    assert back.name == name and back.sample(mesh).tobytes() == weight.sample(mesh).tobytes()


def test_worker_process_assembles_the_same_matrix():
    mesh = generate_disk_mesh(8)
    args = (mesh, MatrixKind.WEIGHTED_MASS, Strategy.OPTV2)
    weight = WeightField.quadratic()
    here = assemble(*args, weight=weight)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        there = pool.submit(assemble, *args, weight=weight).result(timeout=120)
    _assert_same_arrays(here, there, CSC + ("values",))
