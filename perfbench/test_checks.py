"""The benchmark's checker must pass the program's correct output and
report a wrong one.  Run with ``python -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import femasm  # noqa: E402

import checks  # noqa: E402
from workloads import KINDS, _assemble_cell, shuffle_mesh  # noqa: E402


def _assemble(mesh, kind, strategy="optv2"):
    cell = _assemble_cell(femasm, mesh, kind, strategy, expected=None)
    return cell.matrix(cell.call())


@pytest.mark.parametrize("strategy", ["classical", "optv0", "optv1", "optv2"])
@pytest.mark.parametrize("kind", KINDS)
def test_program_output_passes(kind, strategy):
    mesh = femasm.generate_disk_mesh(3)
    actual = _assemble(mesh, kind, strategy)
    expected = checks.Reference(mesh.vertices, mesh.connectivity).matrix(kind)
    assert checks.values_match(actual, expected)
    assert checks.property_failures(kind, actual, mesh.vertices, mesh.connectivity) == []


@pytest.mark.parametrize("kind", KINDS)
def test_one_perturbed_entry_fails(kind):
    mesh = femasm.generate_unit_square_mesh(4)
    actual = _assemble(mesh, kind).copy()
    expected = checks.Reference(mesh.vertices, mesh.connectivity).matrix(kind)
    actual.data[actual.nnz // 2] *= 1.0 + 1e-6
    assert not checks.values_match(actual, expected)
    assert checks.property_failures(kind, actual, mesh.vertices, mesh.connectivity)


@pytest.mark.parametrize("kind", KINDS)
def test_off_by_one_permutation_fails(kind):
    square = femasm.generate_unit_square_mesh(4)
    shuffled, perm = shuffle_mesh(femasm, square, seed=7)
    actual = _assemble(shuffled, kind)
    ordered = checks.Reference(square.vertices, square.connectivity).matrix(kind)
    assert checks.values_match(actual, checks.permuted(ordered, checks.dof_permutation(perm, kind)))
    off_by_one = np.roll(perm, 1)
    assert not checks.values_match(
        actual, checks.permuted(ordered, checks.dof_permutation(off_by_one, kind))
    )
