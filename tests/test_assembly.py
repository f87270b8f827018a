import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femasm import (
    AssemblyBudgetExceeded,
    ElasticParams,
    MatrixKind,
    Mesh,
    Pattern,
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
    csc_from_triplets,
    generate_disk_mesh,
    generate_unit_square_mesh,
    max_abs_diff,
)

import femasm.assembly
import oracles
from test_elements import ELASTIC_UNIT_TABLE

PARAMS = ElasticParams(1.0, 1.0)


def unit_triangle_mesh() -> Mesh:
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def jittered_square_mesh(n: int, seed: int = 0) -> Mesh:
    """Structured mesh with interior vertices nudged off the grid, so the
    triangles are in generic position (no exact zero stiffness entries)."""
    base = generate_unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    verts = base.vertices.copy()
    interior = (
        (verts[:, 0] > 0) & (verts[:, 0] < 1) & (verts[:, 1] > 0) & (verts[:, 1] < 1)
    )
    verts[interior] += rng.uniform(-0.2 / n, 0.2 / n, size=(interior.sum(), 2))
    conn = base.connectivity
    return Mesh(verts, conn)


class TestIndexBatches:
    def test_single_triangle_pattern(self):
        ig, jg = build_ig_jg_p1(np.array([[5, 7, 9]]))
        assert ig[:, 0].tolist() == [5, 7, 9, 5, 7, 9, 5, 7, 9]
        assert jg[:, 0].tolist() == [5, 5, 5, 7, 7, 7, 9, 9, 9]

    def test_shapes(self):
        mesh = generate_unit_square_mesh(1)
        ig, jg = build_ig_jg_p1(mesh.connectivity)
        assert ig.shape == jg.shape == (9, 2)

    def test_transpose_pattern(self):
        conn = generate_unit_square_mesh(3).connectivity
        ig, jg = build_ig_jg_p1(conn)
        me = conn.T
        for a in range(3):
            for b in range(3):
                il = 3 * b + a
                assert np.array_equal(ig[il], me[a])
                assert np.array_equal(jg[il], me[b])

    def test_vector_single_triangle(self):
        ig, jg = build_ig_jg_p1_vector(np.array([[0, 1, 2]]))
        dofs = [0, 1, 2, 3, 4, 5]
        assert ig[:, 0].tolist() == dofs * 6
        assert jg[:, 0].tolist() == [d for d in dofs for _ in range(6)]

    @pytest.mark.parametrize("build", [build_ig_jg_p1, build_ig_jg_p1_vector])
    def test_refuses_non_integer_index(self, build):
        with pytest.raises(ValueError, match="vertex index 1.7 at position 1 "):
            build(np.array([[0, 1.7, 2]]))
        ig, jg = build(np.array([[5.0, 7.0, 9.0]]))
        assert np.array_equal(ig, build(np.array([[5, 7, 9]]))[0])

    @pytest.mark.parametrize("vector, width", [(False, 3), (True, 6)])
    def test_no_triangles_give_no_dofs(self, vector, width):
        dofs = femasm.assembly.element_dofs(np.zeros((0, 3), dtype=np.int64), vector)
        assert dofs.shape == (0, width)

    @pytest.mark.parametrize("conn", [[0, 1, 2], [[0, 1, 2, 3]], [[[0], [1], [2]]]])
    @pytest.mark.parametrize("build", [build_ig_jg_p1, build_ig_jg_p1_vector])
    def test_refuses_a_connectivity_not_of_shape_nme_by_3(self, build, conn):
        shape = np.shape(conn)
        with pytest.raises(ValueError, match=rf"shape \(nme, 3\), got {re.escape(str(shape))}"):
            build(np.array(conn))

    def test_vector_shape_and_pattern(self):
        conn = generate_unit_square_mesh(2).connectivity
        ig, jg = build_ig_jg_p1_vector(conn)
        assert ig.shape == jg.shape == (36, conn.shape[0])
        dofs = np.empty((6, conn.shape[0]), dtype=np.int64)
        dofs[0::2] = 2 * conn.T
        dofs[1::2] = 2 * conn.T + 1
        for a in range(6):
            for b in range(6):
                il = 6 * b + a
                assert np.array_equal(ig[il], dofs[a])
                assert np.array_equal(jg[il], dofs[b])


class TestGradients:
    def test_unit_triangle_values(self):
        g = batch_gradients(unit_triangle_mesh())
        assert g.shape == (3, 2, 1)
        assert np.allclose(g[:, :, 0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_columns_sum_to_zero(self):
        g = batch_gradients(generate_disk_mesh(5))
        total = g.sum(axis=0)
        assert np.abs(total).max() <= 1e-12 * max(1.0, np.abs(g[0]).max())

    def test_translation_invariance(self):
        mesh = generate_disk_mesh(4)
        shifted = Mesh(mesh.vertices + [3.5, -2.25], mesh.connectivity)
        a = batch_gradients(mesh)
        b = batch_gradients(shifted)
        assert np.abs(a - b).max() <= 1e-9 * np.abs(a[0]).max()

    def test_matches_inversion_gradients(self):
        mesh = jittered_square_mesh(4)
        g = batch_gradients(mesh)
        for k in range(0, mesh.nme, 5):
            p1, p2, p3 = mesh.vertices[mesh.connectivity[k]]
            ref = oracles.basis_gradients(p1, p2, p3)
            mine = g[:, :, k].T
            assert np.abs(mine - ref).max() <= 1e-10 * np.abs(ref).max()


class TestValueBatches:
    def test_mass_single_column(self):
        kg = batch_kg_mass(unit_triangle_mesh())  # area 0.5
        expect = [1 / 12, 1 / 24, 1 / 24, 1 / 24, 1 / 12, 1 / 24, 1 / 24, 1 / 24, 1 / 12]
        assert np.abs(kg[:, 0] - expect).max() <= 1e-16

    def test_mass_column_sums_equal_areas(self):
        areas = np.random.default_rng(0).uniform(0.1, 3.0, 40)
        # 40 separate right triangles with legs 2*area and 1
        verts = np.zeros((120, 2))
        verts[1::3, 0], verts[2::3, 1] = 2.0 * areas, 1.0
        mesh = Mesh(verts, np.arange(120).reshape(40, 3))
        assert np.array_equal(mesh.areas, areas)
        kg = batch_kg_mass(mesh)
        assert np.abs(kg.sum(axis=0) - areas).max() <= 1e-14 * areas.max()

    def test_mass_diagonal_rows(self):
        verts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [6.0, 0.0]])
        kg = batch_kg_mass(Mesh(verts, np.array([[0, 1, 2], [0, 3, 2]])))  # areas 6, 12
        assert kg[[0, 4, 8], 0].tolist() == [1.0, 1.0, 1.0]
        assert kg[[0, 4, 8], 1].tolist() == [2.0, 2.0, 2.0]

    def test_weighted_unit_weight_equals_mass(self):
        mesh = generate_unit_square_mesh(3)
        kg_w = batch_kg_mass_weighted(mesh, WeightField.one().sample(mesh))
        kg = batch_kg_mass(mesh)
        assert np.abs(kg_w - kg).max() <= 1e-15 * kg.max()

    def test_weighted_zero_weight(self):
        mesh = generate_unit_square_mesh(2)
        kg = batch_kg_mass_weighted(mesh, WeightField("zero", lambda x, y: 0.0 * x).sample(mesh))
        assert not kg.any()
        m = assemble(mesh, MatrixKind.WEIGHTED_MASS, Strategy.OPTV2,
                     weight=WeightField("zero", lambda x, y: 0.0 * x))
        assert m.nnz == 0

    def test_weighted_non_finite_weight_names_vertex(self):
        mesh = generate_unit_square_mesh(2)
        all_nan = WeightField("nan", lambda x, y: np.full_like(x, np.nan))
        with pytest.raises(ValueError, match="not finite at vertex 0"):
            assemble(mesh, MatrixKind.WEIGHTED_MASS, Strategy.OPTV2, weight=all_nan)
        corner = WeightField("corner", lambda x, y: np.where(x + y == 2.0, np.inf, 1.0))
        with pytest.raises(ValueError, match="not finite at vertex 8"):
            assemble(mesh, MatrixKind.WEIGHTED_MASS, Strategy.CLASSICAL, weight=corner)

    def test_weighted_single_triangle_column(self):
        verts = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 2.0]])  # area 30
        mesh = Mesh(verts, np.array([[0, 1, 2]]))
        # weight sampling at the three vertices gives (1, 2, 3)
        field = WeightField(
            "samples", lambda x, y: np.where(x > 0, 2.0, np.where(y > 0, 3.0, 1.0))
        )
        kg = batch_kg_mass_weighted(mesh, field.sample(mesh))
        expect = [8.0, 4.5, 5.0, 4.5, 10.0, 5.5, 5.0, 5.5, 12.0]
        assert np.abs(kg[:, 0] - expect).max() <= 1e-13

    def test_weighted_refuses_misshapen_weights(self):
        mesh = generate_unit_square_mesh(2)  # nq = 9
        for tw in (np.ones(8), np.ones(10), np.ones((9, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"vertex weights must have shape \(9,\)"):
                batch_kg_mass_weighted(mesh, tw)
        with pytest.raises(ValueError, match=r"got \(\)"):  # a field, not its samples
            batch_kg_mass_weighted(mesh, WeightField.one())

    def test_stiff_unit_triangle_column(self):
        kg = batch_kg_stiff(unit_triangle_mesh())
        expect = [1.0, -0.5, -0.5, -0.5, 0.5, 0.0, -0.5, 0.0, 0.5]
        assert np.abs(kg[:, 0] - expect).max() <= 1e-14

    def test_stiff_column_sums_vanish(self):
        mesh = generate_disk_mesh(6)
        kg = batch_kg_stiff(mesh)
        assert np.abs(kg.sum(axis=0)).max() <= 1e-12 * np.abs(kg).max()

    def test_elastic_columns_are_symmetric_matrices(self):
        mesh = generate_disk_mesh(3)
        kg = batch_kg_elastic(mesh, PARAMS)
        assert kg.shape == (36, mesh.nme)
        for k in range(0, mesh.nme, 7):
            ke = kg[:, k].reshape(6, 6, order="F")
            assert np.abs(ke - ke.T).max() == 0.0

    def test_elastic_unit_triangle_column(self):
        kg = batch_kg_elastic(unit_triangle_mesh(), PARAMS)
        assert np.abs(kg[:, 0] - ELASTIC_UNIT_TABLE.ravel(order="F")).max() <= 1e-14

    def test_elastic_matches_element_kernel(self):
        # every kind's batch kernel and element view run one formula, so
        # they agree bit for bit, not just to roundoff
        from femasm import elem_mass, elem_mass_weighted, elem_stiff, elem_stiff_elastic

        mesh = jittered_square_mesh(3, seed=5)
        me, areas = mesh.connectivity, mesh.areas
        weight = WeightField.quadratic()
        tw = weight.sample(mesh)
        cases = [
            (batch_kg_mass(mesh), lambda k, p: elem_mass(areas[k])),
            (batch_kg_mass_weighted(mesh, tw),
             lambda k, p: elem_mass_weighted(areas[k], *tw[me[k]])),
            (batch_kg_stiff(mesh), lambda k, p: elem_stiff(*p, areas[k])),
            (batch_kg_elastic(mesh, PARAMS), lambda k, p: elem_stiff_elastic(*p, areas[k], PARAMS)),
        ]
        for kg, elem in cases:
            for k in range(mesh.nme):
                ke = elem(k, mesh.vertices[me[k]])
                assert np.array_equal(kg[:, k].view(np.int64), ke.ravel(order="F").view(np.int64))


def assemble_all_strategies(mesh, kind, **kwargs):
    return {s: assemble(mesh, kind, s, **kwargs) for s in Strategy}


class TestAssemble:
    def test_mass_total_is_domain_area(self):
        mesh = generate_unit_square_mesh(1)
        m = assemble(mesh, MatrixKind.MASS, Strategy.OPTV2)
        assert m.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stiffness_annihilates_constants(self):
        for mesh in (generate_unit_square_mesh(5), generate_disk_mesh(4)):
            s = assemble(mesh, MatrixKind.STIFFNESS, Strategy.OPTV2)
            residual = s.to_dense() @ np.ones(mesh.nq)
            assert np.abs(residual).max() <= 1e-10 * np.abs(s.values).max()

    def test_classical_vs_batched_small_square(self):
        mesh = generate_unit_square_mesh(4)
        a = assemble(mesh, MatrixKind.MASS, Strategy.CLASSICAL)
        b = assemble(mesh, MatrixKind.MASS, Strategy.OPTV2)
        assert max_abs_diff(a, b) <= 1e-14

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_strategies_agree_and_match_oracle(self, kind):
        mesh = jittered_square_mesh(4, seed=3)
        kwargs = {}
        if kind is MatrixKind.WEIGHTED_MASS:
            kwargs["weight"] = WeightField.quadratic()
        elif kind is MatrixKind.ELASTIC:
            kwargs["params"] = PARAMS
        mats = assemble_all_strategies(mesh, kind, **kwargs)
        ref = mats[Strategy.OPTV2]
        scale = np.abs(ref.values).max()
        for s, m in mats.items():
            assert max_abs_diff(m, ref) <= 1e-12 * scale, s
        dense = oracles.dense_assembly(mesh, kind, **kwargs)
        assert np.abs(ref.to_dense() - dense).max() <= 1e-13 * scale

    def test_dimensions(self):
        mesh = generate_unit_square_mesh(2)
        m = assemble(mesh, MatrixKind.MASS, Strategy.OPTV2)
        k = assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS)
        assert m.shape == (mesh.nq, mesh.nq)
        assert k.shape == (2 * mesh.nq, 2 * mesh.nq)

    def test_missing_parameters(self):
        mesh = generate_unit_square_mesh(1)
        with pytest.raises(ValueError, match="WeightField"):
            assemble(mesh, MatrixKind.WEIGHTED_MASS, Strategy.OPTV2)
        with pytest.raises(ValueError, match="ElasticParams"):
            assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV1)

    def test_elastic_annihilates_rigid_modes(self):
        mesh = jittered_square_mesh(3, seed=9)
        k = assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS).to_dense()
        scale = np.abs(k).max()
        tx = np.zeros(2 * mesh.nq)
        tx[0::2] = 1.0
        ty = np.zeros(2 * mesh.nq)
        ty[1::2] = 1.0
        rot = np.zeros(2 * mesh.nq)
        rot[0::2] = -mesh.vertices[:, 1]
        rot[1::2] = mesh.vertices[:, 0]
        for v in (tx, ty, rot):
            assert np.abs(k @ v).max() <= 1e-9 * scale * max(1.0, np.abs(v).max())

    def test_mass_and_stiffness_share_pattern_generically(self):
        mesh = jittered_square_mesh(5, seed=1)
        m = assemble(mesh, MatrixKind.MASS, Strategy.OPTV2)
        s = assemble(mesh, MatrixKind.STIFFNESS, Strategy.OPTV2)
        assert m.nnz == s.nnz
        assert np.array_equal(m.row_idx, s.row_idx)
        assert np.array_equal(m.col_ptr, s.col_ptr)

    def test_incremental_keeps_zeros_triplet_drops_them(self):
        # the square mesh has exact zero stiffness entries on the diagonal edges
        mesh = generate_unit_square_mesh(4)
        inc = assemble(mesh, MatrixKind.STIFFNESS, Strategy.CLASSICAL)
        bat = assemble(mesh, MatrixKind.STIFFNESS, Strategy.OPTV2)
        assert inc.nnz > bat.nnz
        assert csc_from_triplets(*inc.triplets(), *inc.shape).nnz == bat.nnz
        assert max_abs_diff(inc, bat) <= 1e-14

    def test_budget_abort(self):
        mesh = generate_unit_square_mesh(16)
        with pytest.raises(AssemblyBudgetExceeded) as exc:
            assemble(mesh, MatrixKind.MASS, Strategy.CLASSICAL, budget_s=1e-9)
        assert exc.value.elements_done < mesh.nme
        with pytest.raises(AssemblyBudgetExceeded):
            assemble(mesh, MatrixKind.MASS, Strategy.OPTV1, budget_s=1e-9)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0, float("inf")])
    def test_refuses_a_budget_that_is_not_finite_and_positive(self, strategy, budget):
        mesh = generate_unit_square_mesh(2)
        with pytest.raises(ValueError, match="time budget must be finite and > 0 seconds"):
            assemble(mesh, MatrixKind.MASS, strategy, budget_s=budget)

    def test_names_run_the_strategy_and_kind_they_name(self):
        # the square's diagonal edges cancel to exact zeros, which only the
        # incremental strategies keep, so optv2's matrix would differ here
        mesh = generate_unit_square_mesh(20)
        by_member = assemble(mesh, MatrixKind.STIFFNESS, Strategy.CLASSICAL)
        assert by_member.nnz == 2921
        assert_bit_identical(assemble(mesh, MatrixKind.STIFFNESS, "classical"), by_member)
        assert_bit_identical(assemble(mesh, "stiff", Strategy.CLASSICAL), by_member)

    @pytest.mark.parametrize(
        "kind, strategy",
        [("stiff", None), ("stiff", 3), ("stiff", "bogus"), ("stiff", "OPTV2"), ("nope", "optv2")],
    )
    def test_refuses_an_unknown_kind_or_strategy(self, kind, strategy):
        with pytest.raises(ValueError, match="is not a valid"):
            assemble(generate_unit_square_mesh(2), kind, strategy)

    def test_symmetry(self):
        mesh = generate_disk_mesh(4)
        for kind, kwargs in (
            (MatrixKind.MASS, {}),
            (MatrixKind.STIFFNESS, {}),
            (MatrixKind.ELASTIC, {"params": PARAMS}),
        ):
            m = assemble(mesh, kind, Strategy.OPTV2, **kwargs)
            d = m.to_dense()
            assert np.abs(d - d.T).max() <= 1e-14 * np.abs(d).max()


def kind_kwargs(kind: MatrixKind) -> dict:
    if kind is MatrixKind.WEIGHTED_MASS:
        return {"weight": WeightField.quadratic()}
    if kind is MatrixKind.ELASTIC:
        return {"params": ElasticParams(1.0, 2.5)}
    return {}


def triplet_reference(mesh: Mesh, kind: MatrixKind, **kwargs):
    """csc_from_triplets on the index and value arrays optv2 starts from."""
    if kind is MatrixKind.ELASTIC:
        ig, jg = build_ig_jg_p1_vector(mesh.connectivity)
        kg = batch_kg_elastic(mesh, kwargs["params"])
    else:
        ig, jg = build_ig_jg_p1(mesh.connectivity)
        if kind is MatrixKind.MASS:
            kg = batch_kg_mass(mesh)
        elif kind is MatrixKind.WEIGHTED_MASS:
            kg = batch_kg_mass_weighted(mesh, kwargs["weight"].sample(mesh))
        else:
            kg = batch_kg_stiff(mesh)
    n = kind.n_dof(mesh.nq)
    return csc_from_triplets(
        ig.ravel(order="F"), jg.ravel(order="F"), kg.ravel(order="F"), n, n
    )


def shuffled_square_mesh(n: int, seed: int) -> Mesh:
    """The n x n square with vertices and triangles renumbered at random."""
    square = generate_unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    vertex_perm = rng.permutation(square.nq)
    new_index = np.empty_like(vertex_perm)
    new_index[vertex_perm] = np.arange(square.nq)
    conn = new_index[square.connectivity[rng.permutation(square.nme)]]
    return Mesh(square.vertices[vertex_perm], conn)


def assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.col_ptr, b.col_ptr)
    assert np.array_equal(a.row_idx, b.row_idx)
    assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))


class TestPattern:
    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize(
        "make_mesh",
        [
            lambda: shuffled_square_mesh(12, seed=7001),
            lambda: generate_disk_mesh(5),
            # 31,250 triangles: two scalar blocks and five elastic ones, the last short
            lambda: shuffled_square_mesh(125, seed=7001),
        ],
    )
    def test_optv2_is_triplet_reference_bit_for_bit(self, kind, make_mesh):
        mesh = make_mesh()
        kwargs = kind_kwargs(kind)
        for _ in range(2):  # building the pattern, then reusing it
            assert_bit_identical(
                assemble(mesh, kind, Strategy.OPTV2, **kwargs),
                triplet_reference(mesh, kind, **kwargs),
            )

    def test_stiff_drops_exact_cancellations(self):
        # on the square, the diagonal edges' off-diagonal stiffness sums to 0.0
        mesh = generate_unit_square_mesh(20)
        s = assemble(mesh, MatrixKind.STIFFNESS, Strategy.OPTV2)
        assert s.nnz < mesh.pattern.nnz
        assert_bit_identical(s, triplet_reference(mesh, MatrixKind.STIFFNESS))
        k = assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS)
        assert_bit_identical(k, triplet_reference(mesh, MatrixKind.ELASTIC, params=PARAMS))

    def test_built_once_per_mesh_and_shared(self, monkeypatch):
        built = []
        for name in ("build_pattern_p1", "expand_pattern_p1_vector"):
            original = getattr(femasm.assembly, name)

            def counted(arg, name=name, original=original):
                built.append(name)
                return original(arg)

            monkeypatch.setattr(femasm.assembly, name, counted)
        mesh = shuffled_square_mesh(6, seed=3)
        scalar = [k for k in MatrixKind if not k.is_vector]
        mats = [assemble(mesh, k, Strategy.OPTV2, **kind_kwargs(k)) for k in scalar * 2]
        assert built == ["build_pattern_p1"]
        # mass and massw cancel nothing, so they store the pattern's own arrays
        for m in mats[:2]:
            assert m.col_ptr is mesh.pattern.col_ptr and m.row_idx is mesh.pattern.row_idx
        for _ in range(2):
            assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS)
        assert built == ["build_pattern_p1", "expand_pattern_p1_vector"]
        assert mesh.vector_pattern.nnz == 4 * mesh.pattern.nnz

    def test_optv2_samples_the_weight_once_per_call(self):
        mesh = generate_unit_square_mesh(125)
        assert mesh.nme > femasm.assembly.BLOCK_BYTES // (8 * 9)  # two scalar blocks
        sampled = []

        def evaluate(x, y):
            sampled.append(x.size)
            return 1.0 + x * x + y * y

        weight = WeightField("counted", evaluate)
        for calls in (1, 2):  # building the pattern, then reusing it
            assemble(mesh, MatrixKind.WEIGHTED_MASS, Strategy.OPTV2, weight=weight)
            assert sampled == [mesh.nq] * calls

    def test_equal_meshes_do_not_share(self):
        a = generate_unit_square_mesh(3)
        b = Mesh(a.vertices, a.connectivity)
        assert a == b
        assert a.pattern is not b.pattern
        assert a.vector_pattern is not b.vector_pattern
        with pytest.raises(AttributeError):
            a.pattern = b.pattern


class TestSymbolicPhase:
    """The gate for any new way of building the mesh patterns: they must be
    the patterns of the index streams optv2's values follow."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(["shuffled-square", "disk", "jittered-square"]),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mesh_patterns_are_the_triplet_patterns(self, shape, n, seed):
        if shape == "shuffled-square":
            mesh = shuffled_square_mesh(n, seed)
        elif shape == "disk":
            mesh = generate_disk_mesh(n + 1)
        else:
            mesh = jittered_square_mesh(n, seed)
        for pattern, build in (
            (mesh.pattern, build_ig_jg_p1),
            (mesh.vector_pattern, build_ig_jg_p1_vector),
        ):
            ig, jg = build(mesh.connectivity)
            expected = Pattern.from_triplets(
                ig.ravel(order="F"), jg.ravel(order="F"), pattern.n_rows, pattern.n_cols
            )
            assert np.array_equal(pattern.col_ptr, expected.col_ptr)
            assert np.array_equal(pattern.row_idx, expected.row_idx)
            assert np.array_equal(pattern.slot, expected.slot)
            assert pattern.slot.dtype == expected.slot.dtype


class TestNumericPhaseMemory:
    """A repeated elastic call at n=300 holds the sums (8 B per position),
    and, when some sum is exactly zero, the kept rows (4 B per kept
    position) and the new col_ptr, besides a few BLOCK_BYTES."""

    # Measured with numpy 2.4 (tracemalloc): the block loop holds 3.00
    # BLOCK_BYTES beside the sums (the kernel's output, its element-major
    # copy and the kernel's temporaries), the in-place drop 2.56 beside the
    # sums and the kept structure; one block of headroom over the larger.
    # The whole-array drop it replaced took 10.89 on the square.
    BLOCKS = 4

    def assert_repeated_call_within_the_model(self, mesh, dropped):
        assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS)  # builds the patterns
        assert mesh.pattern.slot.dtype == np.int32
        assert mesh.vector_pattern.slot.dtype == np.int32
        tracemalloc.start()
        try:
            a = assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nnz = mesh.vector_pattern.nnz
        assert nnz - a.nnz == dropped
        model = 8 * nnz + (4 * a.nnz + 4 * (a.n_cols + 1) if dropped else 0)
        bound = model + self.BLOCKS * femasm.assembly.BLOCK_BYTES
        assert bound < 8 * 36 * mesh.nme  # less than one whole-mesh value array
        assert peak <= bound

    def test_repeated_elastic_call_needs_no_whole_mesh_value_array(self):
        # the square's right triangles cancel 14.2% of the positions
        self.assert_repeated_call_within_the_model(generate_unit_square_mesh(300), 360_004)

    def test_repeated_elastic_call_that_drops_nothing(self):
        self.assert_repeated_call_within_the_model(jittered_square_mesh(300), 0)


def pattern_model_bytes(mesh: Mesh) -> tuple[int, int]:
    """README's memory model of the kept (scalar, elastic) patterns: int32
    col_ptr, row_idx and slot, with nnz = nq + 2E over the E mesh edges."""
    edges = np.sort(mesh.connectivity[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    nnz = mesh.nq + 2 * np.unique(edges, axis=0).shape[0]
    return (
        4 * (mesh.nq + 1) + 4 * nnz + 36 * mesh.nme,
        4 * (2 * mesh.nq + 1) + 16 * nnz + 144 * mesh.nme,
    )


def pattern_bytes(pattern: Pattern) -> int:
    return pattern.col_ptr.nbytes + pattern.row_idx.nbytes + pattern.slot.nbytes


class TestPatternMemory:
    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_patterns_take_the_modelled_bytes(self, kind):
        mesh = generate_unit_square_mesh(40)
        assemble(mesh, kind, Strategy.OPTV2, **kind_kwargs(kind))
        scalar, elastic = pattern_model_bytes(mesh)
        assert pattern_bytes(mesh.pattern) == scalar
        assert pattern_bytes(mesh.vector_pattern) == elastic

    @pytest.mark.parametrize("kind", [MatrixKind.MASS, MatrixKind.ELASTIC])
    def test_first_call_peak(self, kind):
        mesh = generate_unit_square_mesh(125)
        tracemalloc.start()
        try:
            assemble(mesh, kind, Strategy.OPTV2, **kind_kwargs(kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scalar, elastic = pattern_model_bytes(mesh)
        kept = scalar + elastic if kind.is_vector else scalar
        # the scalar sort's working set beside the pattern it builds: ig and
        # jg (4 B per scalar triplet each), the sort order and the int64
        # cumulative sum with its shifted copy (8 B each), the run heads
        # (1 B) and the distinct sort codes.  With numpy 2.4 that measured
        # 42 B per triplet: peaks of 12.91 MiB for mass and 17.01 MiB for
        # elastic, whose numeric phase needs less; int64 patterns put
        # elastic at 20.31 MiB, above the bound.
        margin = 46 * 9 * mesh.nme
        assert peak <= kept + margin


def assert_strategies_bit_identical(mesh, kind):
    """The four strategies' matrices as dense arrays, compared exactly;
    dense, because CLASSICAL and OPTV0 keep exact zeros as entries."""
    kwargs = kind_kwargs(kind)
    dense = {s: assemble(mesh, kind, s, **kwargs).to_dense() for s in Strategy}
    for s, d in dense.items():
        assert np.array_equal(d, dense[Strategy.OPTV2]), s


class TestBitIdentity:
    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize(
        "make_mesh",
        [
            lambda: shuffled_square_mesh(12, seed=7001),
            lambda: generate_disk_mesh(5),
            lambda: jittered_square_mesh(4),
            lambda: generate_unit_square_mesh(20),  # stiffness cancels exactly here
        ],
        ids=["shuffled-square-12", "disk-5", "jittered-square-4", "square-20"],
    )
    def test_strategies_agree_bit_for_bit(self, kind, make_mesh):
        assert_strategies_bit_identical(make_mesh(), kind)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_strategies_agree_bit_for_bit_on_jittered_squares(self, n, seed):
        mesh = jittered_square_mesh(n, seed)
        for kind in MatrixKind:
            assert_strategies_bit_identical(mesh, kind)
