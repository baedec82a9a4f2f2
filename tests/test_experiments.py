import numpy as np
import pytest

from qscond.experiments import (
    ExperimentConfig,
    example1_fixture,
    gen_illscaled_qs,
    gen_random_gv,
    gen_sparse_rhs,
    rows_to_csv,
    rows_to_markdown,
    run_table,
)


class TestExample1Fixture:
    def test_matrix_entries(self):
        A, B1, B2 = example1_fixture()
        assert A.shape == (5, 5)
        assert A[0, 1] == -2.9442
        assert A[4, 0] == -8.5754e12
        assert np.all(np.diag(A) == 1.0)

    def test_rhs_entries(self):
        _, B1, B2 = example1_fixture()
        assert B1[3, 0] == 0.0 and B1[3, 1] == 7.7359e-2
        assert B2[0, 0] == 1.0e-3
        assert np.count_nonzero(B1) == 5  # sparsity 0.5


class TestGenRandomGv:
    def test_deterministic(self):
        a = gen_random_gv(10, seed=42)
        b = gen_random_gv(10, seed=42)
        for f in "lvdwu":
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    def test_lengths_n60(self):
        gv = gen_random_gv(60, seed=0)
        assert tuple(getattr(gv, f).size for f in "lvdwu") == (58, 59, 60, 59, 58)

    def test_standard_normal_mean(self):
        draws = np.concatenate([gen_random_gv(102, seed=s).d for s in range(100)])
        assert draws.size >= 10_000
        assert abs(draws.mean()) < 0.05

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            gen_random_gv(2, seed=0)


class TestGenIllscaledQs:
    def test_selection_sizes_n20(self):
        # l1 = floor(0.3*19) = 5 inflated p's, l2 = floor(0.3*18) = 5 a's
        qs = gen_illscaled_qs(20, seed=0)
        assert np.count_nonzero(np.abs(qs.p) > 1e3) == 5
        assert np.count_nonzero(np.abs(qs.a) > 1e3) == 5

    def test_weight_span(self):
        # alpha runs 1..5, so inflation factors span 1e4..1e8
        qs = gen_illscaled_qs(40, seed=3)
        big = np.sort(np.abs(qs.p[np.abs(qs.p) > 1e3]))
        assert big[0] < 1e6 and big[-1] > 1e6

    def test_d_and_g_scaling(self):
        qs = gen_illscaled_qs(20, seed=1)
        assert np.max(np.abs(qs.d)) < 1.0e-1
        assert np.max(np.abs(qs.g)) > 1.0e2

    def test_deterministic(self):
        a = gen_illscaled_qs(15, seed=9)
        b = gen_illscaled_qs(15, seed=9)
        np.testing.assert_array_equal(a.p, b.p)

    def test_too_small_n(self):
        with pytest.raises(ValueError, match="too small"):
            gen_illscaled_qs(5, seed=0)

    def test_ratio_regime_median(self):
        cfg = ExperimentConfig(n=20, m=2, rho=0.5, seed=11, trials=20, generator="illscaled-qs")
        rows = run_table(cfg)
        ratios = np.array([r.ratio for r in rows])
        assert np.median(ratios) > 1e6


class TestGenSparseRhs:
    def test_rho_one_full(self):
        rhs = gen_sparse_rhs(6, 3, 1.0, seed=0)
        assert rhs.num_terms == 18

    def test_deterministic(self):
        a = gen_sparse_rhs(10, 4, 0.4, seed=5)
        b = gen_sparse_rhs(10, 4, 0.4, seed=5)
        np.testing.assert_array_equal(a.materialize(), b.materialize())

    def test_binomial_count(self):
        rhs = gen_sparse_rhs(100, 100, 0.1, seed=2)
        assert abs(rhs.num_terms - 1000) <= 90  # 3 sigma = 90

    def test_values_in_unit_interval(self):
        rhs = gen_sparse_rhs(10, 5, 0.5, seed=1)
        vals = np.array([w for _, w in rhs.terms])
        assert np.all((vals > 0) & (vals < 1))


class TestRunTable:
    def test_example1_shape_and_chains(self):
        cfg = ExperimentConfig(n=5, m=2, rho=0.5, seed=0, trials=1, generator="example1-fixed")
        rows = run_table(cfg)
        assert len(rows) == 2
        assert rows[0].rhs_mode == "sparse" and rows[1].rhs_mode == "dense"
        for row in rows:
            assert row.k_eff <= row.k_qs <= (row.n - 1) * row.k_eff

    def test_random_gv_rows_satisfy_thm52(self):
        cfg = ExperimentConfig(n=12, m=2, rho=0.4, seed=8, trials=4, generator="random-gv")
        for row in run_table(cfg):
            assert row.k_gv <= row.k_qs <= (3 * row.n - 2) * row.k_gv

    def test_same_seed_identical_rows(self):
        cfg = ExperimentConfig(n=10, m=2, rho=0.5, seed=4, trials=3, generator="random-gv")
        a = rows_to_csv(run_table(cfg))
        b = rows_to_csv(run_table(cfg))
        assert a == b

    def test_dense_mode(self):
        cfg = ExperimentConfig(n=10, m=3, rho=1.0, seed=2, trials=2, generator="illscaled-qs")
        rows = run_table(cfg)
        assert all(r.rhs_mode == "dense" for r in rows)

    def test_csv_and_markdown_emitters(self):
        cfg = ExperimentConfig(n=10, m=2, rho=0.5, seed=4, trials=2, generator="random-gv")
        rows = run_table(cfg)
        csv = rows_to_csv(rows)
        assert csv.splitlines()[0] == "n,m,rho,seed,k_unstructured,k_eff,k_qs,k_gv,ratio"
        assert len(csv.splitlines()) == 3
        md = rows_to_markdown(rows)
        assert md.splitlines()[0].startswith("| n | m |")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(generator="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(rho=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError, match="m must be at least 1"):
            ExperimentConfig(m=0)
