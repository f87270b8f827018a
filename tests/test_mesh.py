import hashlib
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femasm import (
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
from femasm.sparse import TEXT_BLOCK


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
        for n in range(2, 41):
            m = generate_disk_mesh(n)
            assert (m.nq, m.nme) == (1 + 3 * n * (n + 1), 6 * n * n), n

    def test_coarse_underestimates_disk(self):
        m = generate_disk_mesh(2)
        assert m.areas.sum() < np.pi

    def test_n64_close_to_pi(self):
        m = generate_disk_mesh(64)
        assert abs(m.areas.sum() - np.pi) < 0.01

    @pytest.mark.parametrize("n", range(2, 14))
    def test_all_areas_positive(self, n):
        """Signed areas: every triangle is counterclockwise."""
        m = generate_disk_mesh(n)
        (x1, y1), (x2, y2), (x3, y3) = (m.vertices[m.connectivity[:, k]].T for k in range(3))
        assert ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) > 0).all()

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            generate_disk_mesh(1)

    def test_the_file_roundtrip_disk_is_pinned(self):
        """The n=56 disk that the file-roundtrip benchmark writes and reads,
        pinned bit for bit: vertices, then 0-based int64 connectivity."""
        m = generate_disk_mesh(56)
        assert (m.nq, m.nme) == (9577, 18816)
        digest = hashlib.sha256(m.vertices.tobytes() + m.connectivity.tobytes()).hexdigest()
        assert digest == "9f957cd53755799c7fab19ddd0818468c9c991d2779d0003e30f29499511d3db"


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


UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestMeshValidation:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Mesh(np.zeros((3, 2)) + [[0, 0]], np.array([[0, 1, 3]]))

    @pytest.mark.parametrize("build", [Mesh, compute_areas])
    def test_refuses_non_integer_index(self, build):
        # a cast would read 1.7 as vertex 1 and accept triangle (0, 1, 2)
        with pytest.raises(ValueError) as exc:
            build(UNIT_TRIANGLE, [[0, 1.7, 2]])
        assert str(exc.value) == "vertex index 1.7 at position 1 is not an int64 integer"
        conn = np.array([[0, 1, 2], [2, 1, np.nan]])
        with pytest.raises(ValueError, match="vertex index nan at position 5 "):
            build(UNIT_TRIANGLE, conn)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_compute_areas_refuses_index_out_of_range(self, bad):
        # numpy indexing would read -1 as the last vertex
        with pytest.raises(ValueError, match=f"vertex index {bad} at position 2 out of range"):
            compute_areas(UNIT_TRIANGLE, [[0, 1, bad]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32, np.uint8])
    def test_integral_index_types_accepted(self, dtype):
        mesh = Mesh(UNIT_TRIANGLE, np.array([[0, 1, 2]], dtype))
        assert mesh.connectivity.dtype == np.int64
        assert mesh.connectivity.tolist() == [[0, 1, 2]] and mesh.areas.tolist() == [0.5]

    def test_repeated_vertex(self):
        verts = np.array([[0.0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="repeated"):
            Mesh(verts, np.array([[0, 1, 1]]))

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

    def test_overflowing_area_names_triangle(self):
        # finite coordinates whose cross product overflows: the area is inf
        big = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMeshError, match="triangle 0 has a non-finite area") as exc:
                Mesh([[0, 0], [big, 0], [0, big], [big, big]], [[0, 1, 2], [1, 3, 2]])
            assert exc.value.triangle == 0
            with pytest.raises(InvalidMeshError, match="triangle 1 has a non-finite area") as exc:
                Mesh([[0, 0], [1, 0], [0, 1], [big, big]], [[0, 1, 2], [1, 3, 2]])
            assert exc.value.triangle == 1

    def test_immutable(self):
        m = generate_unit_square_mesh(2)
        with pytest.raises(AttributeError):
            m.nq = 7
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 3.0

    def test_owns_copies_of_its_arrays(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c = np.array([[0, 1, 2]], dtype=np.int64)
        m = Mesh(v, c)
        assert v.flags.writeable and c.flags.writeable
        v[2] = [5.0, 5.0]
        c[0] = [0, 2, 1]
        assert m.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert m.connectivity.tolist() == [[0, 1, 2]] and m.areas.tolist() == [0.5]


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


def reference_mesh_bytes(mesh: Mesh) -> bytes:
    """The file write_mesh produces, written out one line at a time."""
    out = [f"{mesh.nq} {mesh.nme}\n"]
    for x, y in mesh.vertices:
        out.append(f"{'%.17g' % x} {'%.17g' % y}\n")
    for a, b, c in mesh.connectivity:
        out.append(f"{a + 1} {b + 1} {c + 1}\n")
    return "".join(out).encode("ascii")


# four vertices, two triangles; vertex lines are 2..5, triangle lines 6..7
QUAD = ["4 2", "0 0", "1 0", "1 1", "0 1", "1 2 3", "1 3 4"]


def read_lines(tmp_path, lines, newline="\n"):
    path = tmp_path / "mesh.txt"
    path.write_bytes(newline.join(lines).encode("ascii") + newline.encode("ascii"))
    return read_mesh(path)


def format_error(tmp_path, lines) -> MeshFormatError:
    with pytest.raises(MeshFormatError) as exc:
        read_lines(tmp_path, lines)
    return exc.value


class TestMeshFileBytes:
    def test_jittered_mesh_across_blocks(self, tmp_path):
        n = 256  # nq = 66049 crosses one block, nme = 131072 is exactly two
        square = generate_unit_square_mesh(n)
        assert square.nq > TEXT_BLOCK and square.nme == 2 * TEXT_BLOCK
        rng = np.random.default_rng(11)
        mesh = Mesh(square.vertices + rng.uniform(-0.2, 0.2, square.vertices.shape) / n,
                    square.connectivity)
        path = tmp_path / "jitter.txt"
        write_mesh(mesh, path)
        assert path.read_bytes() == reference_mesh_bytes(mesh)
        back = read_mesh(path)
        assert np.array_equal(back.vertices.view(np.int64), mesh.vertices.view(np.int64))
        assert np.array_equal(back.connectivity, mesh.connectivity)
        assert back.connectivity.dtype == np.int64

    def test_awkward_floats(self, tmp_path):
        verts = np.array([[5e-324, -1 / 3], [1e20, 0.1], [-0.0, 1e15], [2.5e-310, -1e20]])
        mesh = Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
        path = tmp_path / "awkward.txt"
        write_mesh(mesh, path)
        assert path.read_bytes() == reference_mesh_bytes(mesh)
        back = read_mesh(path)
        assert np.array_equal(back.vertices.view(np.int64), verts.view(np.int64))


# any finite float, with subnormals and the ends of the range drawn often
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.5e-310, -0.0, 1e308, -1e308, 1.7976931348623157e308]),
)


@st.composite
def meshes(draw):
    """A mesh of random finite vertices and random valid connectivity: the
    vertex triples whose area ``Mesh`` accepts, plus one triangle of unit
    legs at a drawn place, so there is always one."""
    nq = draw(st.integers(3, 12))
    verts = np.array(draw(st.lists(st.tuples(FINITE, FINITE), min_size=nq, max_size=nq)))
    anchor = draw(st.lists(st.integers(0, nq - 1), min_size=3, max_size=3, unique=True))
    x, y = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    verts[anchor] = [(x, y), (x + 1.0, y), (x, y + 1.0)]
    triples = st.lists(st.integers(0, nq - 1), min_size=3, max_size=3, unique=True)
    conn = []
    for triple in draw(st.lists(triples, max_size=20)):
        try:
            compute_areas(verts, np.array([triple]))
        except InvalidMeshError:  # degenerate, or its area overflows
            continue
        conn.append(triple)
    conn.insert(draw(st.integers(0, len(conn))), anchor)
    return Mesh(verts, conn)


class TestMeshFileFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mesh=meshes())
    def test_round_trip_is_exact(self, mesh):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mesh.txt"
            write_mesh(mesh, path)
            back = read_mesh(path)
        assert np.array_equal(back.vertices.view(np.int64), mesh.vertices.view(np.int64))
        assert np.array_equal(back.connectivity, mesh.connectivity)


class TestMeshFileErrors:
    def test_accepts_tabs_and_crlf(self, tmp_path):
        expected = read_lines(tmp_path, QUAD)
        tabbed = [line.replace(" ", "\t") for line in QUAD]
        assert read_lines(tmp_path, tabbed, newline="\r\n") == expected
        spaced = ["  " + line.replace(" ", " \t ") + " " for line in QUAD]
        assert read_lines(tmp_path, spaced) == expected

    @pytest.mark.parametrize("token", ["nan", "1e400", "-inf"])
    def test_non_finite_vertex_reports_its_line(self, tmp_path, token):
        exc = format_error(tmp_path, QUAD[:2] + [f"{token} 0"] + QUAD[3:])
        assert exc.line_no == 3
        assert "invalid mesh: vertex 1 has a non-finite coordinate" in str(exc)
        assert isinstance(exc.__cause__, InvalidMeshError)

    def test_degenerate_triangle_reports_its_line(self, tmp_path):
        # vertices 1, 2 and 3 of this file are collinear
        exc = format_error(tmp_path, ["4 2", "0 0", "1 0", "2 0", "0 1", "1 2 4", "1 2 3"])
        assert exc.line_no == 7
        assert "invalid mesh: triangle 1 is degenerate" in str(exc)
        assert isinstance(exc.__cause__, DegenerateTriangleError)

    def test_overflowing_area_reports_its_line(self, tmp_path):
        exc = format_error(tmp_path, ["4 2", "0 0", "1 0", "0 1", "1.7e308 1.7e308", "1 2 3", "2 4 3"])
        assert exc.line_no == 7
        assert "invalid mesh: triangle 1 has a non-finite area (inf)" in str(exc)

    def test_repeated_indices_report_their_line(self, tmp_path):
        exc = format_error(tmp_path, QUAD[:6] + ["1 3 3"])
        assert exc.line_no == 7
        assert "invalid mesh: triangle with repeated vertex indices" in str(exc)

    def square_lines(self):
        """Lines of the n=3 square's file: vertices on lines 2..17,
        triangles on lines 18..35."""
        lines = reference_mesh_bytes(generate_unit_square_mesh(3)).decode().splitlines()
        assert len(lines) == 1 + 16 + 18
        return lines

    def test_short_triangle_line_mid_block(self, tmp_path):
        lines = self.square_lines()
        lines[26] = "5 6"
        exc = format_error(tmp_path, lines)
        assert exc.line_no == 27
        assert "expected 3 fields for triangle, got 2" in str(exc)

    def test_hash_line_in_vertex_block_is_not_a_comment(self, tmp_path):
        lines = self.square_lines()
        lines[6] = "# note"
        exc = format_error(tmp_path, lines)
        assert exc.line_no == 7 and "invalid coordinate" in str(exc)
        lines[6] = "#"
        exc = format_error(tmp_path, lines)
        assert exc.line_no == 7 and "expected 2 coordinates, got 1" in str(exc)

    def test_blank_lines_inside_blocks(self, tmp_path):
        lines = self.square_lines()
        exc = format_error(tmp_path, lines[:9] + [""] + lines[10:])
        assert exc.line_no == 10 and "expected 2 coordinates, got 0" in str(exc)
        exc = format_error(tmp_path, lines[:30] + ["  "] + lines[31:])
        assert exc.line_no == 31 and "expected 3 fields for triangle, got 0" in str(exc)

    @pytest.mark.parametrize("line_no", [1, 3, 6, 8])
    def test_non_ascii_byte_reports_its_line(self, tmp_path, line_no):
        data = [line.encode("ascii") for line in QUAD + [""]]
        data[line_no - 1] += "\u00e9".encode("utf-8")
        path = tmp_path / "mesh.txt"
        path.write_bytes(b"\n".join(data) + b"\n")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(path)
        assert exc.value.line_no == line_no

    def test_all_blank_vertex_block_warns_nothing(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exc = format_error(tmp_path, ["4 2", "", "", "", ""] + QUAD[5:])
        assert exc.line_no == 2
        assert caught == []

    @pytest.mark.parametrize(
        "index, message",
        [
            ("1.5", "invalid integer in triangle"),
            ("1_0", "invalid integer in triangle"),
            ("0x1", "invalid integer in triangle"),
            ("0", "vertex index 0 out of range 1..16"),
            ("-3", "vertex index -3 out of range 1..16"),
            ("17", "vertex index 17 out of range 1..16"),
            ("9223372036854775807", "vertex index 9223372036854775807 out of range 1..16"),
            ("99999999999999999999", "invalid integer in triangle"),  # outside int64
        ],
    )
    def test_bad_index_reports_its_line(self, tmp_path, index, message):
        lines = self.square_lines()
        lines[24] = f"1 {index} 2"
        exc = format_error(tmp_path, lines)
        assert exc.line_no == 25
        assert message in str(exc)

    @pytest.mark.parametrize(
        "triangles, line_no, message",
        [
            (["1 2 9", "1 x 4"], 6, "vertex index 9 out of range 1..4"),
            (["1 x 4", "1 2 9"], 6, "invalid integer in triangle"),
            (["1 2 3", "0 2 4", "1 2"], 7, "vertex index 0 out of range 1..4"),
        ],
    )
    def test_first_bad_triangle_line_is_named(self, tmp_path, triangles, line_no, message):
        # an index out of range on a line the parser accepts comes before a
        # refused line after it
        header = f"4 {len(triangles)}"
        exc = format_error(tmp_path, [header, "0 0", "1 0", "1 1", "0 1"] + triangles)
        assert exc.line_no == line_no
        assert message in str(exc)

    @pytest.mark.parametrize(
        "token",
        ["1", "-0.5", "+.5", "5.", "1E5", "1e-400", "nan", "-Infinity", "1_0", "0x1p3",
         "1,5", ".", "e5", "1e", "1d5", "1j", "--1", "1e5e", "#1"],
    )
    def test_scan_agrees_with_the_parser(self, tmp_path, token):
        # a token numpy's parser refuses is reported at its line by the scan;
        # one it takes reaches Mesh, which may still refuse a non-finite value
        try:
            np.loadtxt([f"{token} 0"], dtype=np.float64, comments=None)
            parsed = True
        except ValueError:
            parsed = False
        lines = self.square_lines()
        lines[4] = f"{token} 0"
        try:
            read_lines(tmp_path, lines)
            assert parsed
        except MeshFormatError as exc:
            assert exc.line_no == 5
            assert ("invalid coordinate" in str(exc)) == (not parsed)
            assert "no line is malformed" not in str(exc)


class TestMeshFileErrorSearch:
    """A refused block is searched by halving; these pin the line it finds
    at the ends and the middle of each block of the n=40 square's file
    (header line 1, vertex lines 2..1682, triangle lines 1683..4882)."""

    NQ, NME = 41 * 41, 2 * 40 * 40

    @pytest.fixture(scope="class")
    def lines(self):
        return reference_mesh_bytes(generate_unit_square_mesh(40)).decode().splitlines()

    @pytest.mark.parametrize(
        "line_no", [1, 2, 2 + NQ // 2, 1 + NQ, 2 + NQ, 2 + NQ + NME // 2, 1 + NQ + NME]
    )
    @pytest.mark.parametrize("corrupt", ["token", "field"])
    def test_names_the_line(self, tmp_path, lines, line_no, corrupt):
        lines = list(lines)
        fields = lines[line_no - 1].split()
        if corrupt == "token":
            fields[-1] = "x"
        else:
            fields.append(fields[-1])
        lines[line_no - 1] = " ".join(fields)
        exc = format_error(tmp_path, lines)
        assert exc.line_no == line_no
        kind = "header" if line_no == 1 else "triangle" if line_no > 1 + self.NQ else "vertex"
        invalid = {"header": "invalid integer in header", "vertex": "invalid coordinate",
                   "triangle": "invalid integer in triangle"}
        width = {"header": "2 fields for header", "vertex": "2 coordinates",
                 "triangle": "3 fields for triangle"}
        if corrupt == "token":
            assert str(exc).endswith(invalid[kind])
        else:
            assert str(exc).endswith(f"expected {width[kind]}, got {len(fields)}")

    def test_bad_last_triangle_costs_a_logarithm_of_parses(self, tmp_path, lines, monkeypatch):
        lines = list(lines)
        lines[-1] = "1 2 x"
        loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        exc = format_error(tmp_path, lines)
        assert exc.line_no == 1 + self.NQ + self.NME
        assert len(calls) <= 2 * int(np.ceil(np.log2(self.NME))) + 4

    def test_file_ending_early(self, tmp_path, lines):
        exc = format_error(tmp_path, lines[:-10])
        assert exc.line_no == 2 + self.NQ + self.NME - 10
        assert "file ends early: header promises 4882 lines" in str(exc)
        short = lines[:-10]
        short[2 + self.NQ] = "1 2"  # a refused line before the end is named first
        assert format_error(tmp_path, short).line_no == 3 + self.NQ
        assert format_error(tmp_path, lines[:1]).line_no == 2

    def test_header_counts_at_the_int64_limit(self, tmp_path):
        big = 2**63 - 1
        exc = format_error(tmp_path, [f"{big} {big}", "0 0", "1 0", "0 1"])
        assert exc.line_no == 5 and f"header promises {1 + 2 * big} lines" in str(exc)
        exc = format_error(tmp_path, [f"{big + 1} 1"] + QUAD[1:])
        assert exc.line_no == 1 and str(exc).endswith("invalid integer in header")


def corrupt_line(draw, line: bytes, line_no: int, nq: int) -> bytes:
    """``line`` of a mesh file made invalid by the grammar: a field dropped
    or added, a non-numeric token, an index of 0 or nq+1, a non-ASCII
    byte, or a blank line.  The header only gets a non-integer token,
    because other counts move the error to another line."""
    fields = line.split(b" ")
    k = draw(st.integers(0, len(fields) - 1))
    is_triangle = line_no > 1 + nq
    tokens = [b"1_0", b"#", b"x"] + ([b"1.5"] if line_no == 1 or is_triangle else [])
    if line_no == 1:
        kind = "token"
    else:
        kinds = ["drop", "add", "token", "byte", "blank"] + (["index"] if is_triangle else [])
        kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del fields[k]
    elif kind == "add":
        fields.insert(k, fields[k])
    elif kind == "token":
        fields[k] = draw(st.sampled_from(tokens))
    elif kind == "index":
        fields[k] = str(draw(st.sampled_from([0, nq + 1]))).encode("ascii")
    elif kind == "byte":
        pos = draw(st.integers(0, len(line)))
        return line[:pos] + draw(st.sampled_from([b"\xe9", b"\xff", b"\x80"])) + line[pos:]
    else:
        return draw(st.sampled_from([b"", b" ", b"\t "]))
    return b" ".join(fields)


class TestMeshFileErrorFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mesh=meshes(), data=st.data())
    def test_error_names_the_corrupted_line(self, mesh, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mesh.txt"
            write_mesh(mesh, path)
            lines = path.read_bytes().split(b"\n")[:-1]
            assert len(lines) == 1 + mesh.nq + mesh.nme
            line_no = data.draw(st.integers(1, len(lines)), label="line_no")
            lines[line_no - 1] = corrupt_line(data.draw, lines[line_no - 1], line_no, mesh.nq)
            path.write_bytes(b"\n".join(lines) + b"\n")
            with pytest.raises(MeshFormatError) as exc:
                read_mesh(path)
        assert exc.value.line_no == line_no


class TestGeneratorSizes:
    """Sizes convert through ``operator.index`` before anything else."""

    @pytest.mark.parametrize("generate", [generate_unit_square_mesh, generate_disk_mesh])
    def test_refuses_a_fractional_size(self, generate):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            generate(2.5)

    @pytest.mark.parametrize("generate", [generate_unit_square_mesh, generate_disk_mesh])
    def test_accepts_a_numpy_integer(self, generate):
        assert generate(np.int64(3)) == generate(3)
