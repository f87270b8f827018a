import numpy as np
import pytest

import femasm.bench
from femasm import generate_unit_square_mesh, write_mesh
from femasm.bench import BenchRecord, write_records_csv
from femasm.cli import main


def test_assemble_writes_matrixmarket(tmp_path, capsys):
    scipy_io = pytest.importorskip("scipy.io")
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_unit_square_mesh(3), mesh_path)
    out = tmp_path / "mass.mtx"
    rc = main(
        ["assemble", "--mesh", str(mesh_path), "--kind", "mass", "--strategy", "optv2",
         "--out", str(out)]
    )
    assert rc == 0
    # 82 stored entries, 16 of them on the diagonal: (82 + 16) / 2 on or below it
    assert out.read_text().splitlines()[:2] == [
        "%%MatrixMarket matrix coordinate real symmetric",
        "16 16 49",
    ]
    m = scipy_io.mmread(out)
    assert m.shape == (16, 16)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)


def test_assemble_elastic_dimensions(tmp_path):
    scipy_io = pytest.importorskip("scipy.io")
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_unit_square_mesh(2), mesh_path)
    out = tmp_path / "elastic.mtx"
    main(
        ["assemble", "--mesh", str(mesh_path), "--kind", "elastic",
         "--lam", "2.0", "--mu", "0.5", "--out", str(out)]
    )
    assert scipy_io.mmread(out).shape == (18, 18)


def test_bench_cli_smoke(tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = main(
        ["bench", "--kinds", "mass", "--strategies", "optv1,optv2",
         "--square-sizes", "4,6", "--reps", "3", "--out", str(out), "--quiet"]
    )
    assert rc == 0
    text = out.read_text()
    assert text.count("\nmass,") == 4


def test_slopes_cli(tmp_path, capsys):
    path = tmp_path / "results.csv"
    records = [
        BenchRecord("mass", "optv2", nq, 2 * nq, nq, 1e-5 * nq, 3)
        for nq in (1000, 10000, 100000, 1000000)
    ] + [BenchRecord("mass", "classical", 100, 200, 100, 1.0, 3)]
    write_records_csv(records, path, {"machine": "test"})
    rc = main(["slopes", "--in", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "optv2" in out and "slope: 1.000" in out
    assert "classical" in out and "n/a" in out


def test_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "--kinds", "nope", "--square-sizes", "4",
              "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["assemble", "--mesh", "m.txt", "--kind", "mass", "--strategy", "bogus"],
         "argument --strategy: unknown strategy 'bogus'; choose from classical, optv0, optv1, optv2"),
        (["bench", "--kinds", "mass,nope", "--square-sizes", "4"],
         "argument --kinds: unknown kind 'nope'; choose from elastic, mass, massw, stiff"),
        # a kind that reads no weight still checks it
        (["assemble", "--mesh", "m.txt", "--kind", "elastic", "--weight", "bogus"],
         "argument --weight: unknown weight field 'bogus'; choose from linear, one, quadratic"),
    ],
)
def test_refuses_an_unknown_name_and_lists_the_choices(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def cli_error(capsys, *argv) -> str:
    """stderr of a run that must stop on its input with exit status 2 and
    one error line, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main([str(arg) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("femasm: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def assemble_error(capsys, mesh_path, out, *options) -> str:
    return cli_error(capsys, "assemble", "--mesh", mesh_path, "--out", out, *options)


def test_assemble_reports_a_bad_mesh_line(tmp_path, capsys):
    mesh_path = tmp_path / "bad.txt"
    mesh_path.write_text("3 1\n0 0\n1 0\n0 1\n1 2 9\n")
    out = tmp_path / "mass.mtx"
    err = assemble_error(capsys, mesh_path, out, "--kind", "mass")
    assert f"{mesh_path}:5: vertex index 9 out of range 1..3" in err
    assert not out.exists()


def test_assemble_reports_a_bad_weight(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_unit_square_mesh(2), mesh_path)
    out = tmp_path / "w.mtx"
    with pytest.raises(SystemExit) as exc:
        main(["assemble", "--mesh", str(mesh_path), "--out", str(out), "--kind", "massw",
              "--weight", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "femasm assemble: error: argument --weight: unknown weight field 'bogus'; "
        "choose from linear, one, quadratic"
    )
    assert not out.exists()


@pytest.mark.parametrize("name", ["Quadratic", " QUADRATIC "])
def test_assemble_reads_a_weight_name_as_a_kind_name(tmp_path, name):
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_unit_square_mesh(3), mesh_path)
    written = {}
    for weight in ("quadratic", name):
        out = tmp_path / "w.mtx"
        assert main(["assemble", "--mesh", str(mesh_path), "--out", str(out), "--kind", "massw",
                     "--weight", weight]) == 0
        written[weight] = out.read_bytes()
    assert written[name] == written["quadratic"]


def test_assemble_reports_bad_paths_and_params(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_unit_square_mesh(2), mesh_path)
    err = assemble_error(capsys, tmp_path / "missing.txt", tmp_path / "m.mtx", "--kind", "mass")
    assert "No such file or directory" in err
    err = assemble_error(capsys, mesh_path, tmp_path / "no" / "m.mtx", "--kind", "mass")
    assert "No such file or directory" in err
    err = assemble_error(capsys, mesh_path, tmp_path / "e.mtx", "--kind", "elastic", "--mu", "0")
    assert "mu must be positive" in err


@pytest.mark.parametrize(
    "options, message",
    [
        (["--kind", "mass", "--mu", "0"], "mu must be positive"),
        (["--kind", "stiff", "--lam", "nan"], "lam must be finite, got nan"),
    ],
)
def test_assemble_checks_every_coefficient_for_every_kind(tmp_path, capsys, options, message):
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_unit_square_mesh(2), mesh_path)
    out = tmp_path / "m.mtx"
    assert message in assemble_error(capsys, mesh_path, out, *options)
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--lam", "inf"), ("--lam", "nan"), ("--mu", "inf")])
def test_assemble_refuses_non_finite_lame_coefficients(tmp_path, capsys, option, value):
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_unit_square_mesh(2), mesh_path)
    out = tmp_path / "e.mtx"
    err = assemble_error(capsys, mesh_path, out, "--kind", "elastic", option, value)
    assert f"femasm: error: {option[2:]} must be finite, got {value}" in err
    assert not out.exists()


def test_slopes_reports_a_missing_file(tmp_path, capsys):
    err = cli_error(capsys, "slopes", "--in", tmp_path / "missing.csv")
    assert "No such file or directory" in err and "missing.csv" in err


def test_slopes_reports_a_missing_column(tmp_path, capsys):
    path = tmp_path / "results.csv"
    write_records_csv([BenchRecord("mass", "optv2", 81, 128, 81, 0.5, 3)], path, {})
    header, row = path.read_text().splitlines()
    path.write_text(header.replace(",nq,", ",") + "\n" + row.replace(",81,", ",", 1) + "\n")
    err = cli_error(capsys, "slopes", "--in", path)
    assert "no 'nq' column" in err


def test_slopes_reports_a_cell_that_does_not_parse(tmp_path, capsys):
    path = tmp_path / "results.csv"
    write_records_csv([BenchRecord("mass", "optv2", 81, 128, 81, 0.5, 3)], path, {})
    header, row = path.read_text().splitlines()
    path.write_text(header + "\n" + row.replace(",81,", ",abc,", 1) + "\n")
    err = cli_error(capsys, "slopes", "--in", path)
    assert err == f"femasm: error: {path}: record 1 has a bad 'nq': 'abc'\n"


@pytest.mark.parametrize(
    "options, message",
    [
        (["--reps", "2"], "repetitions must be >= 3, got 2"),
        (["--square-sizes", "8,4"], "sizes must be strictly ascending"),
        (["--budget", "-1"], "time budget must be finite and > 0 seconds, got -1.0"),
        (["--square-sizes", "0,4"], "sizes must be positive, got 0"),
    ],
)
def test_bench_reports_bad_arguments(tmp_path, capsys, options, message):
    out = tmp_path / "r.csv"
    err = cli_error(capsys, "bench", "--square-sizes", "4", "--out", out, "--quiet", *options)
    assert message in err
    assert not out.exists()


def test_bench_refuses_an_unwritable_out_before_timing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(femasm.bench, "assemble", lambda *args, **kwargs: calls.append(args))
    err = cli_error(capsys, "bench", "--kinds", "mass", "--strategies", "optv2",
                    "--square-sizes", "4", "--out", tmp_path / "no" / "r.csv", "--quiet")
    assert "No such file or directory" in err
    assert calls == []
