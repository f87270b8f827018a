import numpy as np
import pytest

from femasm import (
    ElasticParams,
    elem_mass,
    elem_mass_weighted,
    elem_stiff,
    elem_stiff_elastic,
)

import oracles

UNIT_RIGHT = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

# frozen output of oracles.elastic_matrix on the unit right triangle, lam=mu=1
ELASTIC_UNIT_TABLE = np.array(
    [
        [2.0, 1.0, -1.5, -0.5, -0.5, -0.5],
        [1.0, 2.0, -0.5, -0.5, -0.5, -1.5],
        [-1.5, -0.5, 1.5, 0.0, 0.0, 0.5],
        [-0.5, -0.5, 0.0, 0.5, 0.5, 0.0],
        [-0.5, -0.5, 0.0, 0.5, 0.5, 0.0],
        [-0.5, -1.5, 0.5, 0.0, 0.0, 1.5],
    ]
)


class TestMass:
    def test_half_area_table(self):
        e = elem_mass(0.5)
        expect = np.array(
            [
                [1 / 12, 1 / 24, 1 / 24],
                [1 / 24, 1 / 12, 1 / 24],
                [1 / 24, 1 / 24, 1 / 12],
            ]
        )
        assert np.abs(e - expect).max() <= 1e-14

    def test_area_twelve(self):
        e = elem_mass(12.0)
        assert np.allclose(np.diag(e), 2.0) and e[0, 1] == 1.0

    def test_entries_sum_to_area(self):
        rng = np.random.default_rng(0)
        for area in rng.uniform(1e-6, 100, 30):
            assert elem_mass(area).sum() == pytest.approx(area, rel=1e-14)

    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        for area in rng.uniform(1e-3, 10, 20):
            assert np.linalg.eigvalsh(elem_mass(area)).min() > 0

    def test_rejects_nonpositive_area(self):
        for area in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                elem_mass(area)


class TestWeightedMass:
    def test_unit_weight_reduces_to_mass(self):
        e = elem_mass_weighted(0.5, 1.0, 1.0, 1.0)
        assert np.abs(e - elem_mass(0.5)).max() <= 1e-16

    def test_zero_weight_is_zero(self):
        assert not elem_mass_weighted(2.0, 0.0, 0.0, 0.0).any()

    def test_sampled_weights_table(self):
        e = elem_mass_weighted(30.0, 1.0, 2.0, 3.0)
        assert e[0, 0] == 8.0
        assert e[0, 1] == 4.5
        assert e[0, 2] == 5.0
        assert e[1, 1] == 10.0
        assert e[1, 2] == 5.5
        assert e[2, 2] == 12.0

    def test_matches_oracle_on_random_input(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p1, p2, p3, area = oracles.random_triangle(rng)
            w = rng.uniform(0, 5, 3)
            mine = elem_mass_weighted(area, *w)
            ref = oracles.weighted_mass_matrix(p1, p2, p3, *w)
            assert np.abs(mine - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    def test_nonnegative_for_nonnegative_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = elem_mass_weighted(rng.uniform(0.1, 5), *rng.uniform(0, 10, 3))
            assert (e >= 0).all()

    def test_rejects_nonpositive_area(self):
        for area in (-0.5, np.inf, np.nan):
            with pytest.raises(ValueError):
                elem_mass_weighted(area, 1, 1, 1)

    def test_refuses_a_non_finite_weight(self):
        with pytest.raises(ValueError, match="weight must be finite, got nan"):
            elem_mass_weighted(0.5, np.nan, 1, 1)


class TestStiffness:
    def test_unit_right_triangle_table(self):
        e = elem_stiff(*UNIT_RIGHT, 0.5)
        expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.abs(e - expect).max() <= 1e-14

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p1, p2, p3, area = oracles.random_triangle(rng)
            e = elem_stiff(p1, p2, p3, area)
            assert np.abs(e.sum(axis=1)).max() <= 1e-12 * np.abs(e).max()

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        p1, p2, p3, area = oracles.random_triangle(rng)
        base = elem_stiff(p1, p2, p3, area)
        for s in (0.01, 3.0, 1e3):
            scaled = elem_stiff(s * p1, s * p2, s * p3, s * s * area)
            assert np.abs(scaled - base).max() <= 1e-12 * np.abs(base).max()

    def test_quadrature_oracle_equivalence(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p1, p2, p3, area = oracles.random_triangle(rng)
            mine = elem_stiff(p1, p2, p3, area)
            ref = oracles.stiffness_matrix(p1, p2, p3)
            assert np.abs(mine - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_refuses_a_non_finite_corner(self):
        with pytest.raises(ValueError, match="corner coordinate must be finite, got nan"):
            elem_stiff((0, 0), (1, 0), (0, np.nan), 0.5)

    def test_kernel_is_constants(self):
        rng = np.random.default_rng(7)
        p1, p2, p3, area = oracles.random_triangle(rng)
        e = elem_stiff(p1, p2, p3, area)
        vals, vecs = np.linalg.eigh(e)
        assert vals[0] <= 1e-13 * vals[-1] < vals[1]
        kernel = vecs[:, 0]
        assert np.abs(kernel - kernel.mean()).max() <= 1e-10


class TestElasticParams:
    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            ElasticParams(-1.0, 0.5)
        with pytest.raises(ValueError):
            ElasticParams(1.0, 0.0)
        with pytest.raises(ValueError):
            ElasticParams(1.0, -2.0)

    @pytest.mark.parametrize(
        "lam, mu, message",
        [
            (np.inf, 1.0, "lam must be finite, got inf"),
            (-np.inf, 1.0, "lam must be finite, got -inf"),
            (np.nan, 1.0, "lam must be finite, got nan"),
            (1.0, np.inf, "mu must be finite, got inf"),
            (1.0, np.nan, "mu must be finite, got nan"),
        ],
    )
    def test_refuses_non_finite_coefficients(self, lam, mu, message):
        # inf passes lam + mu > 0 and mu > 0, and makes every elastic value inf or nan
        with pytest.raises(ValueError, match=message):
            ElasticParams(lam, mu)


class TestElastic:
    def test_unit_right_triangle_table(self):
        ke = elem_stiff_elastic(*UNIT_RIGHT, 0.5, ElasticParams(1.0, 1.0))
        assert np.abs(ke - ELASTIC_UNIT_TABLE).max() <= 1e-14

    def test_frozen_table_still_matches_oracle(self):
        ref = oracles.elastic_matrix(*UNIT_RIGHT, 1.0, 1.0)
        assert np.abs(ref - ELASTIC_UNIT_TABLE).max() == 0.0

    def test_translations_are_strain_free(self):
        rng = np.random.default_rng(8)
        params = ElasticParams(2.0, 0.7)
        for _ in range(20):
            p1, p2, p3, area = oracles.random_triangle(rng)
            ke = elem_stiff_elastic(p1, p2, p3, area, params)
            scale = np.abs(ke).max()
            for t in (np.array([1.0, 0, 1, 0, 1, 0]), np.array([0.0, 1, 0, 1, 0, 1])):
                assert np.abs(ke @ t).max() <= 1e-12 * scale

    def test_rotation_is_strain_free(self):
        rng = np.random.default_rng(9)
        params = ElasticParams(1.0, 1.0)
        for _ in range(20):
            p1, p2, p3, area = oracles.random_triangle(rng)
            ke = elem_stiff_elastic(p1, p2, p3, area, params)
            rot = np.array([-p1[1], p1[0], -p2[1], p2[0], -p3[1], p3[0]])
            assert np.abs(ke @ rot).max() <= 1e-12 * np.abs(ke).max() * max(
                1.0, np.abs(rot).max()
            )

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p1, p2, p3, area = oracles.random_triangle(rng)
            lam = rng.uniform(-0.4, 3.0)
            mu = rng.uniform(0.5, 3.0)
            mine = elem_stiff_elastic(p1, p2, p3, area, ElasticParams(lam, mu))
            ref = oracles.elastic_matrix(p1, p2, p3, lam, mu)
            assert np.abs(mine - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_kernel_dimension_three(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p1, p2, p3, area = oracles.random_triangle(rng)
            ke = elem_stiff_elastic(p1, p2, p3, area, ElasticParams(1.0, 1.0))
            vals = np.linalg.eigvalsh(ke)
            tol = 1e-10 * vals[-1]
            assert (vals[:3] <= tol).all()
            assert (np.abs(vals[:3]) <= tol).all()
            assert vals[3] > tol


class TestExactSymmetry:
    def test_all_kinds_bitwise_symmetric(self):
        rng = np.random.default_rng(12)
        params = ElasticParams(1.3, 0.8)
        for _ in range(50):
            p1, p2, p3, area = oracles.random_triangle(rng)
            w = rng.standard_normal(3)
            for e in (
                elem_mass(area),
                elem_mass_weighted(area, *w),
                elem_stiff(p1, p2, p3, area),
                elem_stiff_elastic(p1, p2, p3, area, params),
            ):
                assert np.abs(e - e.T).max() == 0.0
