import itertools

import numpy as np
import pytest

from rankphase import (
    InputError,
    InteractionMatrix,
    ModelSpec,
    RankPhaseError,
    RankSpace,
    beta_for_snr,
    build_mean_matrix,
    default_sum_budget,
    default_sumsq_budget,
    identity_rank,
    loss,
    position_mean_table,
    signal_gap,
    signal_gap_closed_form,
    snr,
    space_contains,
)
from rankphase import model as model_module
from rankphase.model import rank_entries, space_argmin
from rankphase.simulate import random_feasible_rank

from conftest import enumerate_space


class TestRankEntries:
    def test_ties_allowed(self):
        r = rank_entries(np.array([2, 2, 3]), 3)
        assert r.dtype == np.int64
        assert list(r) == [2, 2, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            rank_entries(np.array([0, 1, 2]), 3)
        with pytest.raises(InputError):
            rank_entries(np.array([1, 2, 4]), 3)

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            rank_entries(np.array([1.5, 2.0, 3.0]), 3)

    def test_identity(self):
        assert list(identity_rank(4)) == [1, 2, 3, 4]


class TestRankSpace:
    def test_default_budgets_exact(self):
        assert default_sum_budget(16) == 2
        assert default_sum_budget(81) == 3
        assert default_sum_budget(100) == 4
        assert default_sumsq_budget(4) == 8
        assert default_sumsq_budget(100) == 1000

    def test_invariants(self):
        with pytest.raises(InputError):
            RankSpace(n=5, c_n=0)
        with pytest.raises(InputError):
            RankSpace(n=3, c_n=1, c_n_sq=27)
        RankSpace(n=3, c_n=1, c_n_sq=26)

    def test_contains_examples(self):
        assert space_contains(RankSpace(4, 1), [1, 2, 3, 4])
        assert space_contains(RankSpace(4, 1), [1, 2, 3, 3])
        assert not space_contains(RankSpace(4, 1), [1, 1, 1, 1])
        # deviations and admits work along the last axis of a (k, n) block
        block = np.array([[1, 2, 3, 4], [1, 2, 3, 3], [2, 2, 3, 4], [1, 1, 4, 4]])
        space = RankSpace(4, 1, 3)
        dev1, dev2 = space.deviations(block)
        assert dev1.tolist() == [0, -1, 1, 0]
        assert dev2.tolist() == [0, -7, 3, 4]
        assert space.admits(dev1, dev2).tolist() == [True, False, True, False]
        assert [space_contains(space, r) for r in block] == [True, False, True, False]
        assert space.admits(1, -3) is True and space.admits(2, 0) is False
        sum_only = RankSpace(4, 1)
        assert sum_only.deviations(block)[1] == 0
        assert sum_only.admits(*sum_only.deviations(block)).all()

    def test_restricted_subset_of_base(self):
        restricted = RankSpace.default_restricted(12)
        base = RankSpace.default(12)
        for seed in range(50):
            r = random_feasible_rank(restricted, seed)
            assert space_contains(base, r)


class TestMeanMatrix:
    def test_differential_example(self):
        m = ModelSpec.differential([1.0, 2.0, 3.0])
        mu = build_mean_matrix(m, [1, 2, 3])
        assert mu[0, 1] == -1.0
        assert mu[1, 0] == 1.0

    def test_additive_example(self):
        m = ModelSpec.additive([1.0, 2.0, 3.0])
        mu = build_mean_matrix(m, [1, 2, 3])
        assert mu[0, 1] == 3.0 == mu[1, 0]

    def test_poisson_example(self):
        m = ModelSpec.poisson_sqrt_linear(3, alpha=10.0, beta_tilde=1.0)
        mu = build_mean_matrix(m, [1, 2, 3])
        assert mu[0, 1] == 529.0

    def test_diagonal_masked(self):
        m = ModelSpec.differential([1.0, 2.0, 3.0])
        mu = build_mean_matrix(m, [1, 2, 3])
        assert np.all(np.diag(mu) == 0.0)

    def test_dimension_mismatch(self):
        m = ModelSpec.differential([1.0, 2.0, 3.0])
        with pytest.raises(InputError):
            build_mean_matrix(m, [1, 2])

    def test_permutation_equivariance(self, rng):
        theta = rng.normal(0, 2, 7)
        m = ModelSpec.additive(theta)
        r = np.array([2, 2, 5, 1, 7, 3, 4])
        mu = build_mean_matrix(m, r)
        perm = rng.permutation(7)
        mu_relabelled = build_mean_matrix(m, r[perm])
        expected = mu[np.ix_(perm, perm)]
        off = ~np.eye(7, dtype=bool)
        np.testing.assert_array_equal(mu_relabelled[off], expected[off])

    def test_position_table_has_tie_means(self):
        m = ModelSpec.additive([1.0, 2.0, 3.0])
        table = position_mean_table(m)
        assert table[1, 1] == 4.0  # two objects sharing position 2

    def test_poisson_positivity_enforced(self):
        with pytest.raises(InputError):
            ModelSpec.poisson_sqrt_linear(5, alpha=-3.0, beta_tilde=1.0)


class TestLoss:
    def test_zero_on_equal(self):
        for q in (0.0, 0.5, 1.0, 2.0):
            assert loss(q, [1, 3, 2], [1, 3, 2]) == 0.0

    def test_single_unit_deviation(self):
        assert loss(0, [1, 2, 3, 4], [2, 2, 3, 4]) == 0.25
        assert loss(1, [1, 2, 3, 4], [2, 2, 3, 4]) == 0.25
        assert loss(2, [1, 2, 3, 4], [2, 2, 3, 4]) == 0.25

    def test_constant_shift(self):
        assert loss(2, [1, 1, 1], [3, 3, 3]) == 4.0
        assert loss(1, [1, 1, 1], [3, 3, 3]) == 2.0
        assert loss(0, [1, 1, 1], [3, 3, 3]) == 1.0

    def test_q_validation(self):
        with pytest.raises(InputError):
            loss(2.5, [1], [1])
        with pytest.raises(InputError):
            loss(-0.1, [1], [1])

    def test_ranges_and_nesting(self, rng):
        n = 9
        for _ in range(100):
            a = rng.integers(1, n + 1, n)
            b = rng.integers(1, n + 1, n)
            l0, l1, l2 = loss(0, a, b), loss(1, a, b), loss(2, a, b)
            assert 0.0 <= l0 <= 1.0
            assert l1 <= (n - 1) ** 1 and l2 <= (n - 1) ** 2
            assert l0 <= l1 <= l2


class TestSignalGap:
    def test_spec_example(self):
        m = ModelSpec.parametric("differential", 3, alpha=0.0, beta_tilde=1.0)
        assert signal_gap(m, [1, 2, 3], [2, 2, 3]) == pytest.approx(4.0)
        assert signal_gap_closed_form(m, [1, 2, 3], [2, 2, 3]) == pytest.approx(4.0)

    def test_closed_form_examples(self):
        m5 = ModelSpec.parametric("differential", 5, alpha=0.0, beta_tilde=2.0)
        assert signal_gap_closed_form(m5, [1, 2, 3, 4, 5], [2, 2, 3, 4, 4]) == pytest.approx(80.0)
        mp = ModelSpec.poisson_sqrt_linear(4, alpha=20.0, beta_tilde=1.0)
        assert signal_gap_closed_form(mp, [1, 2, 3, 4], [2, 2, 3, 4]) == pytest.approx(6.0)

    def test_zero_iff_same_mean_matrix(self):
        m = ModelSpec.differential([1.0, 1.0, 2.0])
        # distinct ranks, identical ability assignment -> identical means
        assert signal_gap(m, [1, 2, 3], [2, 1, 3]) == 0.0
        assert signal_gap(m, [1, 2, 3], [3, 2, 3]) > 0.0

    def test_symmetry(self, rng):
        theta = rng.normal(0, 1, 6)
        m = ModelSpec.additive(theta)
        a = rng.integers(1, 7, 6)
        b = rng.integers(1, 7, 6)
        assert signal_gap(m, a, b) == signal_gap(m, b, a)

    def test_identity_matches_direct(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 12))
            beta = float(rng.uniform(0.1, 3.0))
            md = ModelSpec.parametric("differential", n, alpha=1.0, beta_tilde=beta)
            mp = ModelSpec.poisson_sqrt_linear(n, alpha=beta * n * n, beta_tilde=beta)
            a = rng.integers(1, n + 1, n)
            b = rng.integers(1, n + 1, n)
            for m in (md, mp):
                direct = signal_gap(m, a, b)
                closed = signal_gap_closed_form(m, a, b)
                assert abs(direct - closed) <= 1e-9 * (1.0 + direct)

    def test_unsupported_kinds(self):
        ma = ModelSpec.parametric("additive", 4, alpha=0.0, beta_tilde=1.0)
        with pytest.raises(InputError):
            signal_gap_closed_form(ma, [1, 2, 3, 4], [1, 2, 3, 4])
        md = ModelSpec.differential([1.0, 4.0, 9.0])
        with pytest.raises(InputError):
            signal_gap_closed_form(md, [1, 2, 3], [1, 2, 3])


class TestSnr:
    def test_examples(self):
        assert snr(100, 0.2, 1.0) == pytest.approx(1.0)
        assert snr(100, 0.0, 1.0) == 0.0
        assert beta_for_snr(100, 1.0, 1.0) == pytest.approx(0.2)

    def test_roundtrip(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 1000))
            beta = float(rng.uniform(1e-4, 5.0))
            sigma = float(rng.uniform(1e-3, 4.0))
            back = beta_for_snr(n, snr(n, beta, sigma), sigma)
            assert abs(back - beta) <= 1e-12 * beta

    def test_validation(self):
        with pytest.raises(InputError):
            snr(100, 1.0, 0.0)
        with pytest.raises(InputError):
            beta_for_snr(1, 1.0, 1.0)


class TestInteractionMatrix:
    def test_diagonal_masked(self):
        X = InteractionMatrix(np.arange(9.0).reshape(3, 3))
        assert np.all(np.diag(X.values) == 0.0)
        assert X.values[0, 1] == 1.0

    def test_offdiag_must_be_finite(self):
        bad = np.ones((3, 3))
        bad[0, 1] = np.inf
        with pytest.raises(InputError):
            InteractionMatrix(bad)

    def test_square_required(self):
        with pytest.raises(InputError):
            InteractionMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("cell", [(0, 299), (53, 0), (299, 298), (270, 0)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_cell_rejected_in_first_and_last_row_block(self, cell, bad):
        # at n = 300 the first row block is rows 0..53 and the last 270..299
        values = np.ones((300, 300))
        values[cell] = bad
        with pytest.raises(InputError, match="off-diagonal"):
            InteractionMatrix(values)

    @pytest.mark.parametrize("diag", [7.5, np.nan, np.inf])
    def test_any_diagonal_accepted_and_caller_array_unmodified(self, diag):
        values = np.arange(300.0 * 300.0).reshape(300, 300)
        np.fill_diagonal(values, diag)
        before = values.copy()
        X = InteractionMatrix(values)
        assert (np.diag(X.values) == 0.0).all()
        off = ~np.eye(300, dtype=bool)
        np.testing.assert_array_equal(X.values[off], before[off])
        np.testing.assert_array_equal(values, before)
        assert values.flags.writeable and not np.shares_memory(values, X.values)

    def test_values_read_only(self):
        X = InteractionMatrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            X.values[0, 1] = 5.0


class TestSpaceArgmin:
    # the independent enumerator of the test suite is the oracle; a chunk of
    # 7 rows puts minimizers and exact ties on both sides of chunk boundaries
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_agrees_with_independent_enumeration(self, monkeypatch, rng, n, restricted):
        monkeypatch.setattr(model_module, "ENUMERATION_CHUNK", 7)
        c_n_sq = n if restricted else None
        space = RankSpace(n, 2, c_n_sq)
        expected = np.array(enumerate_space(n, 2, c_n_sq))
        rows = np.arange(n)
        for _ in range(20):
            # integer costs per (object, position): exact sums, frequent ties
            table = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            blocks = []

            def value(cand):
                assert cand.shape[0] <= 7
                blocks.append(cand.copy())
                return table[rows, cand - 1].sum(axis=1)

            r, v = space_argmin(space, value)
            assert np.array_equal(np.concatenate(blocks), expected)
            scan = table[rows, expected - 1].sum(axis=1)
            first = int(np.argmin(scan))
            assert list(r) == list(expected[first])
            assert v == scan[first]

    @pytest.mark.parametrize("targets", [(6, 7), (7, 13), (13,), (0, 27), (27,)])
    def test_first_minimizer_across_chunk_boundaries(self, monkeypatch, targets):
        monkeypatch.setattr(model_module, "ENUMERATION_CHUNK", 7)
        space = RankSpace(4, 1)
        expected = enumerate_space(4, 1)
        index = {tuple(c): i for i, c in enumerate(expected)}

        def value(cand):
            return np.array([0.0 if index[tuple(c)] in targets else 1.0 for c in cand])

        r, v = space_argmin(space, value)
        assert list(r) == list(expected[min(targets)])
        assert v == 0.0

    @pytest.mark.parametrize("nan_at", ["last", "all"])
    def test_nan_value_raises_naming_the_space(self, nan_at):
        # np.argmin picks a NaN, which then compares false with the best so
        # far; unchecked, the chunk's real minimum would be skipped
        space = RankSpace(4, 1)

        def value(cand):
            vals = cand[:, 0].astype(np.float64)
            if nan_at == "last":
                vals[-1] = np.nan
            else:
                vals[:] = np.nan
            return vals

        with pytest.raises(RankPhaseError, match=r"RankSpace\(n=4, c_n=1, c_n_sq=None\)"):
            space_argmin(space, value)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_restricted_members_filter_the_grid(self, n):
        grid = np.array(list(itertools.product(range(1, n + 1), repeat=n)), dtype=np.int64)
        for c_n, c_n_sq in ((1, 0), (2, n), (3, 2 * n * n)):
            space = RankSpace(n, c_n, c_n_sq)
            dev1 = grid.sum(axis=1) - space.identity_sum()
            dev2 = (grid * grid).sum(axis=1) - space.identity_sumsq()
            expected = grid[(np.abs(dev1) <= c_n) & (np.abs(dev2) <= c_n_sq)]
            members = model_module._space_members(space)
            assert members.dtype == np.int64 and not members.flags.writeable
            assert np.array_equal(members, expected)

    def test_enumeration_is_shared_and_read_only(self):
        # the enumeration is built once per space; a value function that
        # wrote into its block would corrupt every later call on that space
        space = RankSpace(4, 1)

        def value(cand):
            with pytest.raises(ValueError):
                cand[0, 0] = 0
            return np.zeros(cand.shape[0])

        first, _ = space_argmin(space, value)
        first[0] = 0  # the returned minimizer is the caller's own copy
        again, _ = space_argmin(RankSpace(4, 1), value)
        assert list(again) == list(enumerate_space(4, 1)[0])
