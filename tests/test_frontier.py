import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretorecords import (
    Comonotone,
    DimensionMismatchError,
    Frontier2D,
    GenericFrontier,
    InvalidParameterError,
    make_frontier,
    make_rng,
    records_bruteforce,
    run_stream,
    sample_observations,
)
from paretorecords.frontier import _dominates


class TestInsertExamples:
    @pytest.mark.parametrize("frontier", [GenericFrontier(2), Frontier2D()])
    def test_first_insert_is_record(self, frontier):
        out = frontier.insert([0.3, 0.8])
        assert out.is_record and out.broken == 0
        assert frontier.size == 1 and frontier.records_total == 1

    @pytest.mark.parametrize("make", [lambda: GenericFrontier(2), Frontier2D])
    def test_strictly_dominating_point_breaks_all(self, make):
        f = make()
        f.insert([2.0, 1.0])
        f.insert([1.0, 2.0])
        out = f.insert([3.0, 3.0])
        assert out == (True, 2)
        assert f.size == 1
        assert np.array_equal(f.maxima, [[3.0, 3.0]])

    @pytest.mark.parametrize("make", [lambda: GenericFrontier(2), Frontier2D])
    def test_incomparable_point_extends_frontier(self, make):
        f = make()
        f.insert([2.0, 1.0])
        f.insert([1.0, 2.0])
        out = f.insert([1.5, 1.5])
        assert out == (True, 0)
        assert f.size == 3

    @pytest.mark.parametrize("make", [lambda: GenericFrontier(2), Frontier2D])
    def test_dominated_point_is_not_record(self, make):
        f = make()
        f.insert([2.0, 2.0])
        assert f.insert([1.0, 2.0]) == (False, 0)
        assert f.size == 1 and f.records_total == 1

    @pytest.mark.parametrize("make", [lambda: GenericFrontier(2), Frontier2D])
    def test_duplicates_are_non_records(self, make):
        f = make()
        assert f.insert([1.0, 1.0]).is_record
        assert f.insert([1.0, 1.0]) == (False, 0)
        assert f.size == 1

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            GenericFrontier(3).insert([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            Frontier2D().insert([1.0, 2.0, 3.0])
        for d in (0, True, 2.5, 3.0):
            with pytest.raises(InvalidParameterError):
                GenericFrontier(d)

    def test_make_frontier_dispatch(self):
        assert isinstance(make_frontier(2), Frontier2D)
        assert isinstance(make_frontier(3), GenericFrontier)
        assert isinstance(make_frontier(1), GenericFrontier)


class TestRunStream:
    def test_univariate_running_max(self):
        result = run_stream([3.0, 1.0, 4.0, 1.0, 5.0])
        assert [o.is_record for o in result.outcomes] == [True, False, True, False, True]
        assert result.records_total == 3
        assert result.maxima_count == 1

    def test_totals_match_outcomes(self):
        rng = make_rng(0)
        obs = rng.random((100, 3))
        result = run_stream(obs)
        assert result.records_total == sum(o.is_record for o in result.outcomes)

    def test_broken_count_tracks_frontier_size(self):
        rng = make_rng(1)
        obs = rng.random((200, 2))
        f = Frontier2D()
        size = 0
        for row in obs:
            out = f.insert(row)
            if out.is_record:
                assert out.broken == size + 1 - f.size
            size = f.size

    def test_external_frontier_resumes(self):
        head = np.random.default_rng(0).random((10, 2))
        tail = np.random.default_rng(1).random((5, 2))
        f = GenericFrontier(2)
        run_stream(head, frontier=f)
        resumed = run_stream(tail, frontier=f)
        whole = run_stream(np.concatenate([head, tail]))
        assert resumed.outcomes == whole.outcomes[10:]
        assert (resumed.records_total, resumed.maxima_count) == (whole.records_total, whole.maxima_count)

    def test_frontier_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            run_stream(np.zeros((3, 2)), frontier=GenericFrontier(3))

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_stream(np.zeros((0, 2)))
        with pytest.raises(InvalidParameterError):
            records_bruteforce(np.zeros((0, 2)))

    def test_comonotone_record_count_matches_harmonic(self):
        # All coordinates equal, so records are the univariate records and
        # E R_n is the harmonic number.
        n, reps = 50, 4000
        rng = make_rng(2)
        total = 0
        draws = sample_observations(Comonotone(3), n * reps, rng).reshape(reps, n, 3)
        totals = np.empty(reps)
        for i in range(reps):
            totals[i] = run_stream(draws[i]).records_total
        h_n = sum(1.0 / k for k in range(1, n + 1))
        se = totals.std() / math.sqrt(reps)
        assert abs(totals.mean() - h_n) < 4.0 * se


class TestOracleEquivalence:
    def test_insert_decision_equals_all_history_check(self):
        # Frontier-only dominance checks must agree with scanning the whole
        # history, for several dimensions and stream lengths.
        rng = make_rng(3)
        for d in (2, 3, 4):
            for n in (1, 10, 100, 500):
                obs = rng.random((n, d))
                expected, expected_r = records_bruteforce(obs)
                f = make_frontier(d)
                got = [f.insert(row).is_record for row in obs]
                assert got == list(expected), (d, n)
                assert f.size == expected_r, (d, n)

    def test_antichain_preserved(self):
        rng = make_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            obs = rng.random((n, 3))
            f = GenericFrontier(3)
            for row in obs:
                f.insert(row)
                m = f.maxima
                dom = np.all(m[:, None, :] >= m[None, :, :], axis=2)
                np.fill_diagonal(dom, False)
                assert not dom.any()

    def test_planar_matches_generic_on_float_streams(self):
        rng = make_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            obs = rng.random((n, 2))
            f2, fg = Frontier2D(), GenericFrontier(2)
            out2 = [f2.insert(row) for row in obs]
            outg = [fg.insert(row) for row in obs]
            assert out2 == outg
            assert f2.size == fg.size and f2.records_total == fg.records_total
            assert np.array_equal(np.sort(f2.maxima, axis=0), np.sort(fg.maxima, axis=0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40
        )
    )
    def test_planar_matches_generic_with_ties(self, points):
        # Integer grids force ties and duplicates, the worst case for the
        # sorted-structure bookkeeping.
        obs = np.asarray(points, dtype=float)
        f2, fg = Frontier2D(), GenericFrontier(2)
        out2 = [f2.insert(row) for row in obs]
        outg = [fg.insert(row) for row in obs]
        assert out2 == outg
        assert f2.size == fg.size

    def test_planar_sorted_invariant(self):
        rng = make_rng(6)
        f = Frontier2D()
        for row in rng.random((500, 2)):
            f.insert(row)
        m = f.maxima
        assert np.all(np.diff(m[:, 0]) > 0)
        assert np.all(np.diff(m[:, 1]) < 0)


class TestBruteForce:
    def test_single_point(self):
        ind, r = records_bruteforce(np.array([[1.0, 2.0]]))
        assert list(ind) == [True] and r == 1

    def test_duplicate_keeps_first_copy(self):
        ind, r = records_bruteforce(np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 0.5]]))
        assert list(ind) == [True, False, False]
        assert r == 1


class TestDominatesKernel:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_all_coordinates(self, d):
        # Lattice points tie coordinates; the rest of the axes broadcast.
        rng = np.random.default_rng(50 + d)
        x = rng.integers(0, 3, size=(d, 6, 1)).astype(float)
        y = rng.integers(0, 3, size=(d, 1, 7)).astype(float)
        expected = np.all(x >= y, axis=0)
        assert expected.shape == (6, 7)
        assert np.array_equal(_dominates(x, y), expected)
