"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 5 runs the real benchmark series and takes several minutes;
everything else is fast.  Run with ``pytest tests/test_acceptance.py -v -s``
to watch the progress lines.
"""

import statistics
import time

import numpy as np
import pytest

from femasm import (
    CscBuilder,
    ElasticParams,
    MatrixKind,
    Strategy,
    WeightField,
    assemble,
    csc_from_triplets,
    elem_mass,
    elem_stiff,
    elem_stiff_elastic,
    fit_loglog_slope,
    generate_disk_mesh,
    generate_unit_square_mesh,
    max_abs_diff,
)
from femasm.bench import run_bench

import oracles
from test_elements import ELASTIC_UNIT_TABLE

PARAMS = ElasticParams(1.0, 1.0)


def _report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS  {detail}")


def _kind_kwargs(kind: MatrixKind) -> dict:
    if kind is MatrixKind.WEIGHTED_MASS:
        return {"weight": WeightField.quadratic()}
    if kind is MatrixKind.ELASTIC:
        return {"params": PARAMS}
    return {}


def test_criterion_1_csc_worked_example():
    i = [0, 1, 2, 2, 0, 1]
    j = [0, 1, 1, 2, 3, 3]
    k = [1.0, 5.0, 1.0, 2.0, 6.0, 4.0]

    # the gate is on the median of 5 calls, each timed alone, so that it
    # times the construction and not the first use of numpy functions
    build_times, insert_times = [], []
    for call in range(5):
        t0 = time.perf_counter()
        a = csc_from_triplets(i, j, k, 3, 4)
        build_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        b = CscBuilder(3, 4)
        for ii, jj, vv in zip(i, j, k):
            b.add(ii, jj, vv)
        b.add(0, 1, 8.0)
        insert_times.append(time.perf_counter() - t0)
        if call == 0:
            assert a.values.tolist() == [1.0, 5.0, 1.0, 2.0, 6.0, 4.0]
            assert a.row_idx.tolist() == [0, 1, 2, 2, 0, 1]
            assert a.col_ptr.tolist() == [0, 1, 3, 4, 6]
            m = b.to_matrix()
            assert m.values.tolist() == [1.0, 8.0, 5.0, 1.0, 2.0, 6.0, 4.0]
            assert m.row_idx.tolist() == [0, 0, 1, 2, 2, 0, 1]
            assert m.col_ptr.tolist() == [0, 1, 4, 5, 7]

    build_time = statistics.median(build_times)
    insert_time = statistics.median(insert_times)
    assert build_time < 1e-3 and insert_time < 1e-3
    _report(1, f"worked example exact (median of 5: build {build_time*1e6:.0f}us, "
               f"insertions {insert_time*1e6:.0f}us; first call {build_times[0]*1e6:.0f}us "
               f"and {insert_times[0]*1e6:.0f}us)")


def _equivalence_meshes():
    return [
        ("square n=2", generate_unit_square_mesh(2)),
        ("square n=8", generate_unit_square_mesh(8)),
        ("square n=32", generate_unit_square_mesh(32)),
        ("disk n=6", generate_disk_mesh(6)),
    ]


def test_criterion_2_strategy_equivalence():
    worst_pair = 0.0
    worst_oracle = 0.0
    for label, mesh in _equivalence_meshes():
        for kind in MatrixKind:
            kwargs = _kind_kwargs(kind)
            mats = {s: assemble(mesh, kind, s, **kwargs) for s in Strategy}
            ref = mats[Strategy.OPTV2]
            scale = np.abs(ref.values).max()
            for s, m in mats.items():
                rel = max_abs_diff(m, ref) / scale
                worst_pair = max(worst_pair, rel)
                assert rel <= 1e-12, (label, kind, s, rel)
            if mesh.nq <= 127:  # squares n<=8 plus the disk mesh
                dense = oracles.dense_assembly(mesh, kind, **kwargs)
                rel = np.abs(ref.to_dense() - dense).max() / scale
                worst_oracle = max(worst_oracle, rel)
                assert rel <= 1e-13, (label, kind, rel)
    _report(2, f"4 kinds x 4 strategies on 4 meshes "
               f"(worst pairwise {worst_pair:.2e}, worst vs oracle {worst_oracle:.2e})")


def test_criterion_3_analytic_invariants():
    # mass total = unit square area
    for n in (2, 8, 32):
        mesh = generate_unit_square_mesh(n)
        m = assemble(mesh, MatrixKind.MASS, Strategy.OPTV2)
        assert abs(m.values.sum() - 1.0) <= 1e-10

    mesh = generate_disk_mesh(8)
    square = generate_unit_square_mesh(8)

    # weighted-mass total matches its closed form sum_k area_k*(w1+w2+w3)/3
    w = WeightField.quadratic()
    for msh in (mesh, square):
        mw = assemble(msh, MatrixKind.WEIGHTED_MASS, Strategy.OPTV2, weight=w)
        tw = w.sample(msh)
        expect = float((msh.areas * tw[msh.connectivity].sum(axis=1) / 3.0).sum())
        assert abs(mw.values.sum() - expect) <= 1e-12 * max(1.0, abs(expect))

    # stiffness annihilates constants
    for msh in (mesh, square):
        s = assemble(msh, MatrixKind.STIFFNESS, Strategy.OPTV2)
        resid = np.abs(s.to_dense() @ np.ones(msh.nq)).max()
        assert resid <= 1e-10 * np.abs(s.values).max()

    # elastic matrix annihilates both translations and the rotation field
    for msh in (mesh, square):
        kmat = assemble(msh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS)
        kd = kmat.to_dense()
        scale = np.abs(kmat.values).max()
        tx = np.zeros(2 * msh.nq)
        tx[0::2] = 1.0
        ty = np.zeros(2 * msh.nq)
        ty[1::2] = 1.0
        rot = np.zeros(2 * msh.nq)
        rot[0::2] = -msh.vertices[:, 1]
        rot[1::2] = msh.vertices[:, 0]
        for v in (tx, ty, rot):
            assert np.abs(kd @ v).max() <= 1e-9 * scale * max(1.0, np.abs(v).max())

    # symmetry of every kind
    for kind in MatrixKind:
        mat = assemble(mesh, kind, Strategy.OPTV2, **_kind_kwargs(kind))
        d = mat.to_dense()
        assert np.abs(d - d.T).max() <= 1e-14 * np.abs(d).max()

    # unit weight reproduces the plain mass matrix
    m = assemble(mesh, MatrixKind.MASS, Strategy.OPTV2)
    mw = assemble(mesh, MatrixKind.WEIGHTED_MASS, Strategy.OPTV2, weight=WeightField.one())
    assert max_abs_diff(m, mw) <= 1e-15

    _report(3, "totals, kernels, rigid modes, symmetry, unit-weight reduction")


def test_criterion_4_element_spot_checks():
    m = elem_mass(0.5)
    expect_m = np.array(
        [[1 / 12, 1 / 24, 1 / 24], [1 / 24, 1 / 12, 1 / 24], [1 / 24, 1 / 24, 1 / 12]]
    )
    assert np.abs(m - expect_m).max() <= 1e-14

    p1, p2, p3 = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    s = elem_stiff(p1, p2, p3, 0.5)
    expect_s = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.abs(s - expect_s).max() <= 1e-14

    ke = elem_stiff_elastic(p1, p2, p3, 0.5, PARAMS)
    assert np.abs(ke - ELASTIC_UNIT_TABLE).max() <= 1e-14
    # the frozen table comes from the independent dense product oracle
    assert np.abs(oracles.elastic_matrix(p1, p2, p3, 1.0, 1.0) - ELASTIC_UNIT_TABLE).max() == 0.0

    _report(4, "mass(0.5), stiffness and elasticity unit-triangle tables at 1e-14")


# benchmark series for criterion 5; sizes are cells-per-side, nq = (n+1)^2
QUADRATIC_SIZES = [26, 40, 57, 80, 113, 160, 200]  # nq 729 .. 40401
LINEAR_SIZES = [100, 150, 224, 335, 500, 748, 1000]  # nq 1e4 .. 1e6
ORDERING_SIZE = 317  # nq = 101124 >= 1e5


@pytest.mark.slow
def test_criterion_5_complexity_reproduction(tmp_path):
    t_start = time.perf_counter()

    quad = run_bench(
        [MatrixKind.MASS],
        [Strategy.CLASSICAL, Strategy.OPTV0],
        QUADRATIC_SIZES,
        repetitions=3,
        output_path=tmp_path / "quadratic.csv",
        time_budget_s=240.0,
        long_run_s=5.0,
        verbose=True,
    )
    lin = run_bench(
        [MatrixKind.MASS],
        [Strategy.OPTV1, Strategy.OPTV2],
        LINEAR_SIZES,
        repetitions=3,
        output_path=tmp_path / "linear.csv",
        time_budget_s=90.0,
        long_run_s=5.0,
        verbose=True,
    )
    ordering = run_bench(
        list(MatrixKind),
        [Strategy.OPTV0, Strategy.OPTV1, Strategy.OPTV2],
        [ORDERING_SIZE],
        repetitions=3,
        output_path=tmp_path / "ordering.csv",
        time_budget_s=30.0,
        long_run_s=5.0,
        verbose=True,
    )
    total = time.perf_counter() - t_start

    # (a) the naive insertion strategies are clearly superlinear
    slopes_a = {}
    for strategy in ("classical", "optv0"):
        recs = [r for r in quad if r.strategy == strategy]
        slopes_a[strategy] = fit_loglog_slope(recs)
        assert slopes_a[strategy] >= 1.6, (strategy, slopes_a[strategy])

    # (b) the triplet strategies scale linearly
    slopes_b = {}
    for strategy in ("optv1", "optv2"):
        recs = [r for r in lin if r.strategy == strategy]
        slopes_b[strategy] = fit_loglog_slope(recs)
        assert 0.8 <= slopes_b[strategy] <= 1.3, (strategy, slopes_b[strategy])

    # (c) strict ordering optv2 < optv1 < optv0 at nq >= 1e5 for every kind;
    # an optv0 cell aborted at the budget yields a lower bound on its time
    for kind in MatrixKind:
        cell = {r.strategy: r for r in ordering if r.kind == kind.value}
        t2 = cell["optv2"]
        t1 = cell["optv1"]
        t0 = cell["optv0"]
        assert t2.ok and t1.ok, kind
        assert t2.wall_time_seconds < t1.wall_time_seconds, kind
        assert t1.wall_time_seconds < t0.wall_time_seconds, kind

    assert total <= 900.0, f"benchmark took {total:.0f}s, budget is 15 minutes"
    _report(
        5,
        f"slopes classical={slopes_a['classical']:.2f} optv0={slopes_a['optv0']:.2f} "
        f"(>=1.6); optv1={slopes_b['optv1']:.2f} optv2={slopes_b['optv2']:.2f} "
        f"(in [0.8,1.3]); ordering holds for all kinds; total {total:.0f}s",
    )


@pytest.mark.slow
def test_criterion_6_elastic_scale():
    mesh = generate_unit_square_mesh(707)  # n_df = 2*(708^2) = 1002528
    n_df = 2 * mesh.nq
    assert n_df > 10**6

    t0 = time.perf_counter()
    kmat = assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=PARAMS)
    elapsed = time.perf_counter() - t0

    assert kmat.shape == (n_df, n_df)
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(6, f"elastic batched assembly at n_df={n_df} in {elapsed:.1f}s (< 60s)")


def test_criterion_7_property_suite():
    # 200 random triplet lists reproduce the dense accumulation oracle exactly
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        length = int(rng.integers(0, 501))
        i = rng.integers(0, m, length)
        j = rng.integers(0, n, length)
        k = np.round(rng.standard_normal(length) * 4) / 4
        k[rng.random(length) < 0.05] = 0.0
        mine = csc_from_triplets(i, j, k, m, n).to_dense()
        assert np.array_equal(mine, oracles.dense_from_triplets(i, j, k, m, n))

    # 100 random triangles: symmetry, kernels, definiteness
    rng = np.random.default_rng(7)
    for _ in range(100):
        p1, p2, p3, area = oracles.random_triangle(rng)
        w = rng.uniform(0.0, 4.0, 3)

        em = elem_mass(area)
        ew = np.asarray(
            oracles.weighted_mass_matrix(p1, p2, p3, *w)
        )  # oracle route, checked symmetric below too
        es = elem_stiff(p1, p2, p3, area)
        ee = elem_stiff_elastic(p1, p2, p3, area, PARAMS)

        for e in (em, es, ee):
            assert np.abs(e - e.T).max() == 0.0
        assert (ew >= 0).all()

        assert np.linalg.eigvalsh(em).min() > 0.0

        vals = np.linalg.eigvalsh(es)
        assert vals[0] >= -1e-12 * vals[-1]
        assert vals[1] > 1e-10 * vals[-1]  # kernel is exactly one-dimensional
        assert np.abs(es @ np.ones(3)).max() <= 1e-11 * np.abs(es).max()

        evals = np.linalg.eigvalsh(ee)
        assert evals[0] >= -1e-11 * evals[-1]
        assert (evals[:3] <= 1e-9 * evals[-1]).all()  # two translations + rotation
        assert evals[3] > 1e-9 * evals[-1]

        ref = oracles.stiffness_matrix(p1, p2, p3)
        assert np.abs(es - ref).max() <= 1e-13 * np.abs(ref).max()

    _report(7, "200 triplet lists bit-exact; 100 random triangles hold all invariants")
