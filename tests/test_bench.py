import math
import platform

import numpy as np
import pytest

import femasm.assembly
from femasm import MatrixKind, Strategy
from femasm.bench import (
    BenchRecord,
    STATUS_OK,
    STATUS_SKIPPED,
    default_metadata,
    fit_loglog_slope,
    median_time,
    read_records_csv,
    run_bench,
    write_records_csv,
)


def synthetic_records(times_by_nq, kind="mass", strategy="optv2"):
    return [
        BenchRecord(kind, strategy, nq, 2 * nq, nq, t, 3)
        for nq, t in sorted(times_by_nq.items())
    ]


class TestFitSlope:
    def test_linear_power_law(self):
        recs = synthetic_records({nq: 3.5e-6 * nq for nq in (100, 1000, 10000, 100000)})
        assert fit_loglog_slope(recs) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_power_law(self):
        recs = synthetic_records({nq: 2e-9 * nq**2 for nq in (100, 1000, 10000, 100000)})
        assert fit_loglog_slope(recs) == pytest.approx(2.0, abs=1e-9)

    def test_too_few_records(self):
        recs = synthetic_records({100: 1.0, 1000: 2.0, 100000: 3.0})
        with pytest.raises(ValueError, match=">= 4"):
            fit_loglog_slope(recs)

    def test_insufficient_span(self):
        recs = synthetic_records({nq: 1e-6 * nq for nq in (100, 200, 400, 800)})
        with pytest.raises(ValueError, match="decades"):
            fit_loglog_slope(recs)

    def test_skipped_records_ignored(self):
        recs = synthetic_records({nq: 1e-6 * nq for nq in (100, 1000, 10000, 100000)})
        recs.append(
            BenchRecord("mass", "optv2", 10**6, 2 * 10**6, 10**6, 60.0, 0, STATUS_SKIPPED)
        )
        assert fit_loglog_slope(recs) == pytest.approx(1.0, abs=1e-9)


class TestMedian:
    def test_plain_median(self):
        assert median_time([3.0, 1.0, 2.0]) == 2.0

    def test_outlier_replacing_max_does_not_move_median(self):
        for samples in ([1.0, 1.1, 1.2], [1.0, 1.1, 1.2, 1.3], [0.9, 1.0, 1.1, 1.2, 5.0]):
            base = median_time(samples)
            spoiled = sorted(samples)[:-1] + [1e9]
            assert median_time(spoiled) == base


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        recs = synthetic_records({100: 0.1234567, 1000: 1.0, 10000: 12.5})
        meta = {"machine": "testbox", "threads": 1}
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(recs, p1, meta)
        write_records_csv(recs, p2, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_formatting(self, tmp_path):
        recs = [
            BenchRecord("mass", "optv2", 81, 128, 81, 0.123456, 3, STATUS_OK, 1.0),
            BenchRecord("mass", "optv0", 81, 128, 81, 1.5, 3, STATUS_OK, 0.0823),
        ]
        path = tmp_path / "fmt.csv"
        write_records_csv(recs, path, {"k": "v"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# k: v"
        assert lines[1].startswith("kind,strategy,nq,nme,n_df,median_seconds")
        assert "0.123" in lines[2] and "1.00" in lines[2]
        assert "1.500" in lines[3] and "0.08" in lines[3]

    def test_round_trip(self, tmp_path):
        recs = [
            BenchRecord("stiff", "classical", 81, 128, 81, 1.25, 1, STATUS_OK, 0.25),
            BenchRecord("stiff", "classical", 289, 512, 289, 60.0, 0, STATUS_SKIPPED),
        ]
        path = tmp_path / "rt.csv"
        write_records_csv(recs, path, default_metadata(60.0, 3))
        back = read_records_csv(path)
        assert back == recs


    def test_exact_bytes(self, tmp_path):
        recs = [
            BenchRecord("mass", "optv2", 81, 128, 81, 0.0123456, 5, STATUS_OK, 1.0),
            BenchRecord("stiff", "classical", 1089, 2048, 1089, 60.0004, 0, STATUS_SKIPPED,
                        None, 17, 2048),
            BenchRecord("massw", "optv1", 16, 18, 16, 123456.78951, 3, STATUS_OK, 12345.6789),
        ]
        path = tmp_path / "exact.csv"
        write_records_csv(recs, path, {"machine": 'x, "y"', "a": 2.5})
        assert path.read_bytes() == (
            b"# a: 2.5\n"
            b'# machine: x, "y"\n'
            b"kind,strategy,nq,nme,n_df,median_seconds,speedup_vs_reference,repetitions,"
            b"status,elements_done,elements_total\n"
            b"mass,optv2,81,128,81,0.012,1.00,5,ok,,\n"
            b"stiff,classical,1089,2048,1089,60.000,,0,skipped,17,2048\n"
            b"massw,optv1,16,18,16,123456.790,12345.68,3,ok,,\n"
        )

    def test_reads_files_without_progress_columns(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text(
            "# machine: old\n"
            "kind,strategy,nq,nme,n_df,median_seconds,speedup_vs_reference,repetitions,status\n"
            "mass,optv2,81,128,81,0.012,1.00,5,ok\n"
            "mass,classical,289,512,289,60.000,,0,skipped\n"
        )
        assert read_records_csv(path) == [
            BenchRecord("mass", "optv2", 81, 128, 81, 0.012, 5, STATUS_OK, 1.0),
            BenchRecord("mass", "classical", 289, 512, 289, 60.0, 0, STATUS_SKIPPED),
        ]

    def test_names_a_missing_column_or_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        recs = synthetic_records({100: 0.5})
        write_records_csv(recs, path, {})
        header, row = path.read_text().splitlines()
        path.write_text(header.replace(",nme,", ",") + "\n" + row.replace(",200,", ",") + "\n")
        with pytest.raises(ValueError, match="no 'nme' column"):
            read_records_csv(path)
        path.write_text(header + "\n" + row.replace(",3,", ",,") + "\n")
        with pytest.raises(ValueError, match="record 1 has no 'repetitions'"):
            read_records_csv(path)
        path.write_text(header + "\n" + row.replace(",3,", ",3.5,") + "\n")
        with pytest.raises(ValueError, match="record 1 has a bad 'repetitions': '3.5'"):
            read_records_csv(path)


class TestRunBench:
    def test_tiny_run_has_all_cells(self, tmp_path):
        out = tmp_path / "bench.csv"
        records = run_bench(
            list(MatrixKind),
            [Strategy.OPTV1, Strategy.OPTV2],
            [8],
            3,
            out,
        )
        assert len(records) == len(MatrixKind) * 2
        assert all(r.nq == 81 and r.ok for r in records)
        assert all(r.n_df == (162 if r.kind == "elastic" else 81) for r in records)
        assert out.exists()

    def test_reference_speedup_is_one(self, tmp_path):
        records = run_bench(
            [MatrixKind.MASS],
            [Strategy.OPTV0, Strategy.OPTV2],
            [6],
            3,
            tmp_path / "s.csv",
        )
        by_strategy = {r.strategy: r for r in records}
        assert by_strategy["optv2"].speedup == pytest.approx(1.0)
        assert by_strategy["optv0"].speedup is not None

    def test_budget_marks_skipped_and_propagates(self):
        records = run_bench(
            [MatrixKind.MASS],
            [Strategy.CLASSICAL],
            [8, 12],
            3,
            None,
            time_budget_s=1e-4,
        )
        assert [r.status for r in records] == [STATUS_SKIPPED, STATUS_SKIPPED]
        assert records[0].wall_time_seconds > 0
        assert records[1].repetitions == 0  # never attempted, lower bound only

    def test_abort_in_warmup_keeps_progress(self, tmp_path):
        records = run_bench(
            [MatrixKind.MASS], [Strategy.CLASSICAL], [60], 3, None, time_budget_s=0.05
        )
        (rec,) = records
        assert rec.status == STATUS_SKIPPED and rec.repetitions == 0
        assert rec.elements_total == 7200 and 0 <= rec.elements_done < 7200
        path = tmp_path / "abort.csv"
        write_records_csv(records, path, default_metadata(0.05, 3))
        (back,) = read_records_csv(path)
        assert (back.repetitions, back.elements_done, back.elements_total) == (
            0,
            rec.elements_done,
            7200,
        )

    def test_every_run_builds_the_pattern(self, monkeypatch):
        built = []
        original = femasm.assembly.build_pattern_p1

        def counted(mesh):
            built.append(mesh)
            return original(mesh)

        monkeypatch.setattr(femasm.assembly, "build_pattern_p1", counted)
        run_bench([MatrixKind.MASS], [Strategy.OPTV2], [4], 3, None)
        assert len(built) == 4  # warm-up and three timed runs, each on its own mesh
        assert len({id(mesh) for mesh in built}) == 4

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="ascending"):
            run_bench([MatrixKind.MASS], [Strategy.OPTV2], [8, 8], 3, None)
        with pytest.raises(ValueError, match="repetitions"):
            run_bench([MatrixKind.MASS], [Strategy.OPTV2], [8], 2, None)
        with pytest.raises(ValueError, match="nonempty"):
            run_bench([MatrixKind.MASS], [Strategy.OPTV2], [], 3, None)

    @pytest.mark.parametrize("budget", [-1.0, 0.0, float("nan"), float("inf")])
    def test_refuses_a_budget_that_is_not_finite_and_positive(self, tmp_path, budget):
        out = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="time budget must be finite and > 0 seconds"):
            run_bench([MatrixKind.MASS], [Strategy.OPTV2], [4], 3, out, time_budget_s=budget)
        assert not out.exists()


    @pytest.mark.parametrize("sizes", [[0, 4], [-2]])
    def test_refuses_a_non_positive_size_before_opening_the_output(self, tmp_path, sizes):
        out = tmp_path / "r.csv"
        with pytest.raises(ValueError, match=f"sizes must be positive, got {sizes[0]}"):
            run_bench([MatrixKind.MASS], [Strategy.OPTV2], sizes, 3, out)
        assert not out.exists()

    def test_takes_kinds_and_strategies_by_value(self, tmp_path):
        records = run_bench(["stiff"], ["classical", Strategy.OPTV2], [3], 3, None)
        assert [(r.kind, r.strategy) for r in records] == [("stiff", "classical"), ("stiff", "optv2")]
        out = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="'bogus' is not a valid Strategy"):
            run_bench([MatrixKind.MASS], ["bogus"], [3], 3, out)
        assert not out.exists()


class TestRunBenchSizes:
    """Sizes and repetitions convert through ``operator.index`` before any
    other check, and before ``--out`` is opened."""

    @pytest.mark.parametrize("sizes, repetitions", [([2.5], 3), ([2], 3.5), ([2, 2.5], 3)])
    def test_refuses_fractions_before_opening_the_output(self, tmp_path, sizes, repetitions):
        out = tmp_path / "r.csv"
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            run_bench([MatrixKind.MASS], [Strategy.OPTV2], sizes, repetitions, out)
        assert not out.exists()

    def test_accepts_numpy_integers(self):
        (rec,) = run_bench([MatrixKind.MASS], [Strategy.OPTV2], [np.int64(3)], np.int64(3), None)
        assert rec.ok and rec.nq == 16 and rec.repetitions == 3
        assert type(rec.repetitions) is int


def test_csv_records_numpy_python_and_timer(tmp_path):
    out = tmp_path / "r.csv"
    run_bench([MatrixKind.MASS], [Strategy.OPTV2], [2], 3, out)
    lines = out.read_text().splitlines()
    assert f"# numpy: {np.__version__}" in lines
    assert f"# python: {platform.python_version()}" in lines
    assert "# timer: time.perf_counter" in lines
