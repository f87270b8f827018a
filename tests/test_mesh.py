import numpy as np
import pytest

from femasm import (
    DegenerateTriangleError,
    Mesh,
    MeshFormatError,
    compute_areas,
    generate_disk_mesh,
    generate_unit_square_mesh,
    read_mesh,
    write_mesh,
)


class TestUnitSquare:
    def test_n1_two_triangles(self):
        m = generate_unit_square_mesh(1)
        assert m.nq == 4 and m.nme == 2
        assert np.allclose(m.areas, 0.5)

    def test_n4_counts_and_tiling(self):
        m = generate_unit_square_mesh(4)
        assert m.nq == 25 and m.nme == 32
        assert abs(m.areas.sum() - 1.0) <= 1e-14

    def test_n100_counts(self):
        m = generate_unit_square_mesh(100)
        assert m.nq == 10201 and m.nme == 20000

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_total_area_is_one(self, n):
        m = generate_unit_square_mesh(n)
        assert abs(m.areas.sum() - 1.0) <= 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_unit_square_mesh(0)


class TestDisk:
    def test_counts(self):
        m = generate_disk_mesh(3)
        assert m.nq == 1 + 3 * 3 * 4
        assert m.nme == 6 * 9

    def test_coarse_underestimates_disk(self):
        m = generate_disk_mesh(2)
        assert m.areas.sum() < np.pi

    def test_n64_close_to_pi(self):
        m = generate_disk_mesh(64)
        assert abs(m.areas.sum() - np.pi) < 0.01

    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_all_areas_positive(self, n):
        m = generate_disk_mesh(n)
        assert (m.areas > 0).all()

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            generate_disk_mesh(1)


class TestComputeAreas:
    def test_half_unit_square(self):
        areas = compute_areas(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 1, 2]]))
        assert areas[0] == 0.5

    def test_scaled_triangle(self):
        areas = compute_areas(np.array([[0.0, 0], [2, 0], [0, 2]]), np.array([[0, 1, 2]]))
        assert areas[0] == 2.0

    def test_collinear_raises_with_index(self):
        verts = np.array([[0.0, 0], [1, 0], [2, 0], [0, 1]])
        conn = np.array([[0, 1, 3], [0, 1, 2]])
        with pytest.raises(DegenerateTriangleError) as exc:
            compute_areas(verts, conn)
        assert exc.value.index == 1

    def test_cyclic_permutation_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            verts = rng.uniform(-3, 3, size=(3, 2))
            base = compute_areas(verts, np.array([[0, 1, 2]]))[0]
            for perm in ([1, 2, 0], [2, 0, 1]):
                permuted = compute_areas(verts, np.array([perm]))[0]
                assert abs(permuted - base) <= 1e-12 * base


class TestMeshValidation:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Mesh(np.zeros((3, 2)) + [[0, 0]], np.array([[0, 1, 3]]))

    def test_repeated_vertex(self):
        verts = np.array([[0.0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="repeated"):
            Mesh(verts, np.array([[0, 1, 1]]))

    def test_inconsistent_areas_rejected(self):
        verts = np.array([[0.0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="areas"):
            Mesh(verts, np.array([[0, 1, 2]]), areas=np.array([0.75]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_names_vertex(self, bad):
        # a NaN area passes the degeneracy test, so this needs its own check
        square = generate_unit_square_mesh(2)
        verts = square.vertices.copy()
        verts[0, 0] = bad
        with pytest.raises(ValueError, match="vertex 0 has a non-finite coordinate"):
            Mesh(verts, square.connectivity)
        verts = square.vertices.copy()
        verts[5, 1] = bad
        with pytest.raises(ValueError, match="vertex 5 has a non-finite"):
            Mesh(verts, square.connectivity)

    def test_immutable(self):
        m = generate_unit_square_mesh(2)
        with pytest.raises(AttributeError):
            m.nq = 7
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 3.0


class TestMeshIO:
    def test_round_trip_square(self, tmp_path):
        m = generate_unit_square_mesh(4)
        path = tmp_path / "square.txt"
        write_mesh(m, path)
        assert read_mesh(path) == m

    def test_round_trip_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(3)
        verts = rng.standard_normal((4, 2)) * np.pi
        conn = np.array([[0, 1, 2], [0, 2, 3]])
        m = Mesh(verts, conn)
        path = tmp_path / "awkward.txt"
        write_mesh(m, path)
        back = read_mesh(path)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.connectivity, m.connectivity)

    def test_one_based_indices_on_disk(self, tmp_path):
        m = generate_unit_square_mesh(1)
        path = tmp_path / "square.txt"
        write_mesh(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "4 2"
        first_tri = [int(s) for s in lines[5].split()]
        assert min(first_tri) >= 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(path)
        assert exc.value.line_no == 1

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 0\n1 0\n0 1\n1 2 4\n")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(path)
        assert exc.value.line_no == 5
        path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        with pytest.raises(MeshFormatError):
            read_mesh(path)

    def test_vertex_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 1\n0 0\n1 0\n")
        with pytest.raises(MeshFormatError):
            read_mesh(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "header.txt"
        path.write_text("3\n")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(path)
        assert exc.value.line_no == 1

    def test_bad_coordinate_reports_line(self, tmp_path):
        path = tmp_path / "coord.txt"
        path.write_text("3 1\n0 0\nx 0\n0 1\n1 2 3\n")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(path)
        assert exc.value.line_no == 3

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("3 1\n0 0\n1 0\n0 1\n1 2 3\nextra\n")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(path)
        assert exc.value.line_no == 6
