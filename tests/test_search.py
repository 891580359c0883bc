import contextlib
import functools
import hashlib
import itertools
import math
import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcdesign import (
    ContractionDesign,
    SearchConfig,
    augment,
    c_bar_v,
    e_aug_direct,
    e_aug_formula,
    e_con,
    neighbor_moves,
    random_contraction,
    search_contraction,
    validate_contraction,
)
from arcdesign import search
from arcdesign.designs import _incidence_arrays, balanced_replication
from arcdesign.efficiency import _lifted_joint
from arcdesign.errors import (
    ConfigError,
    ConstructionError,
    DisconnectedDesignError,
    InfeasibleParametersError,
    InvalidDesignError,
)
from arcdesign.search import (
    Move,
    _anneal,
    _catalogue,
    _ContractionObjective,
    _hillclimb,
    _run_restarts,
    _swap,
    _swap_plan,
    _SwapWalk,
    _tabu,
)

from oracles import (
    apply_move,
    c_bar_s_by_centring,
    catalogue_by_loops,
    exhaustive_best_e_con,
    flat_cell,
    pair_term_table,
    sample_move_by_scans,
    swap_pairs_in_order,
    try_fill_by_sets,
)

#: Feasible sizes; (7,5,3), (10,6,3) and (24,16,5) carry unequal replication.
_SIZES = [(4, 4, 2), (6, 4, 3), (7, 5, 3), (10, 6, 3), (12, 8, 3), (9, 9, 3), (24, 16, 5)]


class TestRandomContraction:
    def test_valid_for_reference_dimensions(self):
        c = random_contraction(12, 8, 3, seed=1)
        assert validate_contraction(c).ok

    def test_deterministic(self):
        a = random_contraction(12, 8, 3, seed=1)
        b = random_contraction(12, 8, 3, seed=1)
        assert a == b

    def test_seed_sweep_valid_and_diverse(self):
        seen = set()
        for seed in range(1, 101):
            c = random_contraction(4, 4, 2, seed=seed)
            assert validate_contraction(c).ok
            seen.add(c.cells.tobytes())
        assert len(seen) > 10

    def test_unequal_replication(self):
        c = random_contraction(24, 16, 5, seed=3)
        assert validate_contraction(c).ok
        assert sorted(np.unique(c.r)) == [3, 4]

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            random_contraction(10, 3, 2, seed=0)

    # (5,4,3) dead-ends in about a quarter of its tries and (24,16,5) in about an
    # eighth, so the retry and failure paths are compared as well as completed fills.
    @given(size=st.sampled_from([(3, 3, 2), (5, 4, 3), (7, 5, 3), (9, 6, 4), (10, 6, 3),
                                 (7, 7, 4), (24, 16, 5), (48, 32, 6)]),
           seed=st.integers(0, 2**32 - 1))
    @example(size=(5, 4, 3), seed=0)
    @settings(max_examples=120, deadline=None)
    def test_fill_takes_the_draws_of_the_set_oracle(self, size, seed):
        v, s, k = size
        r = balanced_replication(v, k, s)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # consecutive tries, as _fill makes them
            cells = search._try_fill(v, s, k, r, rng)
            expected = try_fill_by_sets(v, s, k, r, oracle_rng)
            assert (cells is None) == (expected is None)
            if cells is not None:
                assert np.array_equal(cells, expected)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_fill_failures_keep_their_messages(self):
        with mock.patch.object(search, "_try_fill", return_value=None) as tries:
            with pytest.raises(ConstructionError, match="^failed to fill a 3x8 array on 12 labels"):
                random_contraction(12, 8, 3)
            with pytest.raises(ConstructionError,
                               match="^restart 0: could not build a starting contraction$"):
                search_contraction(12, 8, 3, SearchConfig(restarts=1))
        assert tries.call_count == 2 * 200


class TestNeighborMoves:
    def test_within_column_preserves_columns(self):
        c = random_contraction(12, 8, 3, seed=0)
        moves = [m for m in neighbor_moves(c) if m.kind == "within_column"]
        assert moves
        for move in moves:
            after = apply_move(c, move)
            assert validate_contraction(after).ok
            for j in range(8):
                assert set(after.cells[:, j]) == set(c.cells[:, j])

    def test_documented_rejected_row_move(self, ex1_contraction):
        # swapping (1,1)=3 with (1,4)=1 would put 3 into column 4, which
        # already holds a 3, so the catalogue must not contain it
        rejected = Move("within_row", (0, 0), (0, 3))
        moves = neighbor_moves(ex1_contraction)
        assert rejected not in moves
        assert 3 in ex1_contraction.cells[:, 3]
        assert any(m.kind == "within_row" for m in moves)

    def test_all_moves_yield_valid_designs(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            v = int(rng.integers(5, 13))
            s = int(rng.integers(3, min(v, 8) + 1))
            k = int(rng.integers(2, 5))
            from arcdesign import feasibility_df

            if k > v or feasibility_df(v, s, k) < 0:
                continue
            c = random_contraction(v, s, k, seed=int(rng.integers(1 << 32)))
            for move in neighbor_moves(c):
                after = apply_move(c, move)
                assert validate_contraction(after).ok
                assert np.array_equal(after.r, c.r)

    def test_latin_square_has_no_legal_moves(self, latin3):
        # every label already sits in every row and column
        assert neighbor_moves(latin3) == ()

    @pytest.mark.parametrize("cells", [[[1, 2, 3], [2, 3, 9]], [[1, 2, 3], [1, 3, 2]]],
                             ids=["label-beyond-v", "non-binary"])
    def test_invalid_design_rejected(self, cells):
        with pytest.raises(InvalidDesignError):
            neighbor_moves(ContractionDesign.from_cells(cells, v=3))


class TestCatalogueOracle:
    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle_move_for_move(self, size, seed):
        c = random_contraction(*size, seed=seed)
        assert neighbor_moves(c) == tuple(catalogue_by_loops(c.cells, c.v))

    def test_unequal_replication_matches_oracle(self):
        c = random_contraction(24, 16, 5, seed=3)
        assert len(set(c.r.tolist())) == 2
        assert neighbor_moves(c) == tuple(catalogue_by_loops(c.cells, c.v))

    def test_latin_square_matches_oracle(self, latin3):
        assert catalogue_by_loops(latin3.cells, latin3.v) == []
        assert len(_catalogue(latin3.cells, latin3.v)) == 0


class TestSwapPlan:
    @pytest.mark.parametrize("size", _SIZES + [(48, 32, 6)])
    def test_tables_match_the_cell_arithmetic(self, size):
        v, s, k = size
        plan = _swap_plan(k, s, v)
        assert plan.index.tolist() == [list(pair) for pair in swap_pairs_in_order(k, s)]
        i1, j1, i2, j2 = plan.index.T
        assert np.array_equal(plan.flat, [flat_cell(i1, j1, s), flat_cell(i2, j2, s)])
        # bit for bit: the screen adds these terms where it once added the whole table
        assert plan.term.tobytes() == pair_term_table(k, s)[tuple(plan.flat)].tobytes()
        assert not any(table.flags.writeable for table in plan[:-1])


def _screened(obj, cells):
    """The catalogue of a state and the screened value of each of its moves."""
    ids = _catalogue(cells, obj.v)
    return obj.plan.index[ids], obj.screen(cells, ids)(np.arange(len(ids)))


class TestContractionObjective:
    @given(size=st.sampled_from(_SIZES[:6]), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(0, 12))
    @example(size=(12, 8, 3), seed=0, steps=0)  # a disconnected start
    @settings(max_examples=40, deadline=None)
    def test_zero_value_exactly_when_e_con_finds_it_disconnected(self, size, seed, steps):
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        rng = np.random.default_rng(seed)
        cells = c.cells
        for _ in range(steps + 1):
            design = ContractionDesign(c.v, cells)
            assert np.array_equal(design.r, c.r)
            try:
                e_con(design)
                disconnected = False
            except DisconnectedDesignError:
                disconnected = True
            assert (obj.value(cells) == 0.0) == disconnected
            moves = obj.plan.index[_catalogue(cells, c.v)]
            if len(moves) == 0:
                break
            cells = _swap(cells, moves[rng.integers(len(moves))])

    def test_disconnected_example_is_not_vacuous(self):
        c = random_contraction(12, 8, 3, seed=0)
        with pytest.raises(DisconnectedDesignError):
            e_con(c)


class TestScreen:
    @given(size=st.sampled_from(_SIZES[:6]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_screen_matches_exact_along_accepted_walks(self, size, seed):
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        rng = np.random.default_rng(seed)
        cells = c.cells
        for _ in range(4):
            moves, screened = _screened(obj, cells)
            if len(moves) == 0:
                break
            cur = obj.value(cells)
            exact = np.array([obj.value(_swap(cells, m)) for m in moves])
            floor = cur - search._margin(cur)
            # sound: nothing the exact objective would accept is ruled out
            assert not np.any((exact > cur) & (screened <= floor))
            if cur > 0.0 and np.isfinite(screened).all():
                connected = exact > 0.0
                np.testing.assert_allclose(screened[connected], exact[connected],
                                           rtol=0, atol=1e-10)
            better = [m for m in moves if obj.value(_swap(cells, m)) > cur]
            pool = better or list(moves)
            cells = _swap(cells, pool[rng.integers(len(pool))])

    def test_disconnected_state_confirms_every_candidate(self):
        for seed in range(200):
            c = random_contraction(12, 8, 3, seed=seed)
            if _ContractionObjective(c.v, c.s, c.k, c.r).value(c.cells) == 0.0:
                break
        else:
            pytest.fail("no disconnected start found")
        moves = _catalogue(c.cells, c.v)
        # with and without the eigenvalues of the state's own value
        for value_first in (True, False):
            obj = _ContractionObjective(c.v, c.s, c.k, c.r)
            if value_first:
                assert obj.value(c.cells) == 0.0
            assert np.all(obj.screen(c.cells, moves)(np.arange(len(moves))) == np.inf)
        exact = np.array([obj.value(_swap(c.cells, m)) for m in obj.plan.index[moves]])
        assert np.any(exact > 0.0)

    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_screen_without_cached_eigenvalues_matches(self, size, seed):
        # screen guards itself with the inverse it forms, so a state scores
        # alike whether or not value saw it first
        c = random_contraction(*size, seed=seed)
        runs = []
        for warm in (True, False):
            obj = _ContractionObjective(c.v, c.s, c.k, c.r)
            if warm:
                obj.value(c.cells)
            moves, screened = _screened(obj, c.cells)
            runs.append(screened)
        np.testing.assert_array_equal(*runs)
        # a well-conditioned state is screened, not confirmed move by move
        guard = min(1.0, np.linalg.eigvalsh(obj._scaled_info(c.cells)[0])[1])
        if len(moves) and guard >= search._SCREEN_MIN_EIG:
            assert np.isfinite(runs[0]).any()

    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(0, 12))
    @example(size=(12, 8, 3), seed=0, steps=0)  # a disconnected start
    @settings(max_examples=40, deadline=None)
    def test_states_below_the_guard_are_never_screened(self, size, seed, steps):
        # tr(M) >= 1 / (smallest eigenvalue of A_s + qq'), so the screen's own
        # inverse refuses every state the eigenvalues would
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        rng = np.random.default_rng(seed)
        cells = c.cells
        for _ in range(steps + 1):
            ids = _catalogue(cells, c.v)
            if len(ids) == 0:
                break
            w = np.linalg.eigvalsh(obj._scaled_info(cells)[0])
            if min(1.0, w[1]) < search._SCREEN_MIN_EIG:
                assert np.all(obj.screen(cells, ids)(np.arange(len(ids))) == np.inf)
            cells = _swap(cells, obj.plan.index[ids[rng.integers(len(ids))]])

    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_guard_equals_smallest_eigenvalue_of_lifted_matrix(self, size, seed, steps):
        # A_s + qq' has the eigenvalues of A_s with the null one replaced by 1
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        rng = np.random.default_rng(seed)
        cells = c.cells
        for _ in range(steps):
            moves = obj.plan.index[_catalogue(cells, c.v)]
            if len(moves) == 0:
                break
            cells = _swap(cells, moves[rng.integers(len(moves))])
        a_s = obj._scaled_info(cells)[0]
        guard = min(1.0, np.linalg.eigvalsh(a_s)[1])
        lifted = np.linalg.eigh(a_s + obj.null_term)[0][0]
        assert abs(guard - lifted) <= 1e-12

    # Budgets that end a scan at small positions (1 to 40), just before, at
    # or just past the first chunk's end (_FIRST_CHUNK - 1 to + 1), just past
    # the second's (2 * _FIRST_CHUNK + 1), later (100 to 500) or never.
    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           max_iters=st.sampled_from([1, 9, 16, 17, 37, 40, 100, 300, 500, 20000,
                                      search._FIRST_CHUNK - 1, search._FIRST_CHUNK,
                                      search._FIRST_CHUNK + 1, 2 * search._FIRST_CHUNK + 1]))
    @example(size=(12, 8, 3), seed=0, max_iters=20000)  # a disconnected start
    @example(size=(12, 8, 3), seed=0, max_iters=40)
    @settings(max_examples=40, deadline=None)
    def test_screened_hillclimb_equals_exhaustive(self, size, seed, max_iters):
        c = random_contraction(*size, seed=seed)
        runs = [
            _hillclimb(c.cells, objective(c.v, c.s, c.k, c.r), np.random.default_rng(seed),
                       max_iters, None)
            for objective in (_UnscreenedObjective, _ContractionObjective)
        ]
        (state_a, *rest_a), (state_b, *rest_b) = runs
        assert np.array_equal(state_a, state_b)
        assert rest_a == rest_b

    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           ticks=st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_chunks_keep_deadline_stops(self, size, seed, ticks):
        # A clock that advances one unit per reading: a stop depends only on
        # how many deadline checks came before it, which chunking must keep
        # equal to screening the whole catalogue in one chunk.
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        runs = []
        for first_chunk in (search._FIRST_CHUNK, 1 << 30):
            clock = itertools.count()
            with mock.patch.object(search, "_FIRST_CHUNK", first_chunk), \
                    mock.patch.object(search.time, "monotonic", lambda: float(next(clock))):
                runs.append(_hillclimb(c.cells, obj, np.random.default_rng(seed), 20000,
                                       float(ticks)))
        (state_a, *rest_a), (state_b, *rest_b) = runs
        assert np.array_equal(state_a, state_b)
        assert rest_a == rest_b


class _UnscreenedObjective(_ContractionObjective):
    """A screen that rules nothing out: every candidate is evaluated exactly."""

    def screen(self, cells, moves):
        return lambda idx: np.full(len(idx), np.inf)


class TestTabu:
    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           max_iters=st.sampled_from([1, 100, 500, 2000, 8000]))
    @example(size=(12, 8, 3), seed=0, max_iters=8000)  # a disconnected start
    @settings(max_examples=40, deadline=None)
    def test_confirmed_states_are_valid_and_the_best_is_exact(self, size, seed, max_iters):
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        confirmed = []
        value = obj.value

        def recorded(cells):
            confirmed.append(cells)
            return value(cells)

        with mock.patch.object(obj, "value", recorded):
            best, val, trace, evals, timed_out = _tabu(
                c.cells, obj, np.random.default_rng(seed), max_iters, None)
        assert not timed_out
        assert evals <= max_iters
        for cells in confirmed:
            design = ContractionDesign(c.v, cells)
            assert validate_contraction(design).ok
            assert np.array_equal(design.r, c.r)
        assert any(cells is best for cells in confirmed)
        design = ContractionDesign(c.v, best)
        if val == 0.0:
            with pytest.raises(DisconnectedDesignError):
                e_con(design)
        else:
            assert abs(val - e_con(design)) <= 1e-12
        values = [v for _, v in trace]
        assert values == sorted(values) and values[-1] == val
        positions = [it for it, _ in trace]
        assert positions == sorted(positions) and positions[-1] <= evals

    @pytest.mark.parametrize("ticks", [0, 5])
    def test_deadline_stop_sets_timed_out(self, ticks):
        # a clock that advances one unit per reading, read once per step
        c = random_contraction(24, 16, 5, seed=3)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        clock = itertools.count()
        with mock.patch.object(search.time, "monotonic", lambda: float(next(clock))):
            *_, evals, timed_out = _tabu(c.cells, obj, np.random.default_rng(3), 10**6,
                                         ticks - 0.5)
        assert timed_out
        assert (evals == 0) == (ticks == 0)

    def test_walks_past_local_optima(self):
        # the screen sees each state the walk moves through; some moves go downhill
        c = random_contraction(12, 8, 3, seed=5)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        states = []
        screen = obj.screen
        with mock.patch.object(obj, "screen", lambda x, m: states.append(x) or screen(x, m)):
            _tabu(c.cells, obj, np.random.default_rng(5), 20000, None)
        values = [obj.value(x) for x in states]
        assert len(values) > 50
        assert any(b < a for a, b in zip(values, values[1:]))


    def test_labels_stay_out_of_cells_they_left(self):
        # Replays the walk from the states it screens: a label that left a cell
        # returns to it within the shortest tenure only by beating the best value.
        c = random_contraction(12, 8, 3, seed=5)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        states = []
        screen = obj.screen
        with mock.patch.object(obj, "screen", lambda x, m: states.append(x) or screen(x, m)):
            _tabu(c.cells, obj, np.random.default_rng(5), 20000, None)
        shortest = search._TABU_TENURE[0]
        left, best = {}, obj.value(states[0])
        for step, (before, after) in enumerate(zip(states, states[1:])):
            before, after = before.ravel(), after.ravel()
            cells = np.flatnonzero(before != after)
            assert len(cells) == 2
            val = obj.value(after.reshape(c.cells.shape))
            for p in cells.tolist():
                if step - left.get((int(after[p]), p), -shortest) < shortest:
                    assert val > best + search._margin(best)
                left[int(before[p]), p] = step
            best = max(best, val)
        assert len(states) > 50


class TestAnneal:
    def _run(self, max_iters, propose=lambda walk: walk.propose, deadline=None,
             score=lambda walk: walk.score):
        c = random_contraction(12, 8, 3, seed=0)
        walk = _SwapWalk(_ContractionObjective(c.v, c.s, c.k, c.r), c.cells, False)
        calls = []
        propose_fn, score_fn = propose(walk), score(walk)

        def counted(move):
            calls.append(1)
            return score_fn(move)

        walk.propose, walk.score = propose_fn, counted
        out = _anneal(walk, np.random.default_rng(0), max_iters, deadline)
        return out[3], len(calls)  # the starting state's value is not a move evaluation

    def test_full_budget_counts_every_evaluation(self):
        assert self._run(50) == (50, 50)

    @staticmethod
    def _giving_up_after(draws):
        budget = iter(range(draws))

        def propose(walk):
            draw = walk.propose
            return lambda g: draw(g) if next(budget, None) is not None else None

        return propose

    def test_exhausted_sampler_stops_the_count(self):
        # the sampler gives up inside the probe
        assert self._run(50, self._giving_up_after(7)) == (7, 7)

    def test_sampler_exhausted_after_the_probe_stops_the_count(self):
        draws = search._T0_PROBE + 8
        assert self._run(100, self._giving_up_after(draws)) == (draws, draws)

    def test_deadline_stops_the_count(self):
        # the deadline is polled every 64 iterations
        evals, made = self._run(1000, deadline=0.0)
        assert evals == made == 63

    def test_all_ties_probe_gives_a_finite_positive_temperature(self):
        t0 = search._start_temp([0.0] * search._T0_PROBE)
        assert 0.0 < t0 < 1e-6

        def constant(walk):
            walk.val, score = 0.5, walk.score  # the start state ties too

            def tied(move):
                score(move)  # the walk still scores the move, so that accept() can commit it
                return 0.5

            return tied

        # a constant objective ties every move, in the probe and after it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(200, score=constant) == (200, 200)

    @pytest.mark.parametrize("moved", [[3e-4, 1e-4, 2e-4], [4e-4, 1e-4, 3e-4, 0.1e-4]])
    def test_start_temperature_ignores_ties(self, moved):
        t0 = search._start_temp([0.0] * 20 + moved)
        assert t0 == pytest.approx(search._T0_SCALE * 2e-4, rel=1e-12)


#: Sizes for the anneal walk; (10,6,3) and (24,16,5) carry unequal replication.
_WALK_SIZES = [(8, 6, 3), (10, 5, 4), (12, 8, 3), (10, 6, 3), (24, 16, 5)]


def _move_kind(move):
    i1, j1, i2, j2 = move
    return "within_row" if i1 == i2 else "within_column" if j1 == j2 else "transpose"


def _walk_anneal(c, objective, seed, iters, t0=None, **hooks):
    """A seeded contraction anneal on a fresh walk; hooks wrap its methods.

    A hook ``name=fn`` replaces the walk's method ``name`` by
    ``fn(walk, method, *args)``, where ``method`` is the one it replaces.
    A given ``t0`` replaces the start temperature the probe would set.
    """
    walk = _SwapWalk(_ContractionObjective(c.v, c.s, c.k, c.r), c.cells, objective == "e_aug")
    for name, hook in hooks.items():
        setattr(walk, name, functools.partial(hook, walk, getattr(walk, name)))
    fixed = (contextlib.nullcontext() if t0 is None else
             mock.patch.object(search, "_start_temp", lambda probe: t0))
    with fixed:
        return _anneal(walk, np.random.default_rng(seed), iters, None)


def _closed_form_e_aug(c):
    """The closed form of ``e_aug`` on the centring oracle's ``c_bar_s``, 0.0 if disconnected.

    The oracle does not share the anneal's lifted joint matrix.
    """
    try:
        return e_aug_formula((c.v - c.k) * c.s + c.k, c.v, c.s, c.k, c_bar_v(c),
                             c_bar_s_by_centring(c))
    except DisconnectedDesignError:
        return 0.0


def _lifted(c, cells):
    """``B~`` of ``cells``, the anneal's lifted joint matrix."""
    return _lifted_joint(*_incidence_arrays(cells, c.v), c.r.astype(float), c.k)


class TestSwapWalk:
    # t0 = 1 accepts most downhill moves too, so walks pass through
    # disconnected and badly conditioned states at the small sizes; t0 = None
    # keeps the calibrated start temperature.
    @given(size=st.sampled_from(_WALK_SIZES), seed=st.integers(0, 2**32 - 1),
           t0=st.sampled_from([None, 1.0]))
    @example(size=(12, 8, 3), seed=0, t0=1.0)  # a disconnected start
    @example(size=(10, 6, 3), seed=0, t0=1.0)  # scores disconnected candidates
    # badly conditioned: updating states down to a smallest eigenvalue of
    # 1e-4 errs by 1.3e-9 in the first, and updating every candidate of a
    # well-conditioned state scores a disconnected candidate above 0 in the second
    @example(size=(10, 6, 3), seed=361, t0=1.0)
    @example(size=(10, 6, 3), seed=40, t0=1.0)
    @settings(max_examples=30, deadline=None)
    def test_incremental_value_matches_exact(self, size, seed, t0):
        c = random_contraction(*size, seed=seed)
        states = []  # the start state, then the state each candidate is scored from

        def check(val, cells):
            design = ContractionDesign(c.v, cells)
            assert np.array_equal(design.r, c.r)
            exact = _closed_form_e_aug(design)
            assert val == 0.0 if exact == 0.0 else abs(val - exact) <= 1e-10

        def checked(walk, score, move):
            if not states:
                states.append(walk.state())
                check(walk.val, states[0])
            states.append(walk.state())
            val = score(move)
            check(val, _swap(states[-1], move))
            return val

        state, *rest = _walk_anneal(c, "e_aug", seed, 300, t0, score=checked)
        assert len(states) == 301
        if t0 is not None:
            assert sum(not np.array_equal(a, b) for a, b in zip(states, states[1:])) > (
                search._REBUILD_EVERY)
        again, *rest_again = _walk_anneal(c, "e_aug", seed, 300, t0)
        assert state.tobytes() == again.tobytes()
        assert repr(rest) == repr(rest_again)

    @staticmethod
    def _exact_paths(size, seed):
        """Candidates of a t0 = 1 walk scored exactly, by the rule that sent them there."""
        paths = {"disconnected": 0, "state": 0, "candidate": 0}

        def classified(walk, score, move):
            by_state = walk.m is None
            val = score(move)
            paths["disconnected"] += val == 0.0
            paths["state"] += by_state
            paths["candidate"] += not by_state and walk.pending is None and val > 0
            return val

        _walk_anneal(random_contraction(*size, seed=seed), "e_aug", seed, 300, 1.0,
                     score=classified)
        return paths

    def test_disconnected_examples_are_not_vacuous(self):
        c = random_contraction(12, 8, 3, seed=0)
        assert _closed_form_e_aug(c) == 0.0
        assert self._exact_paths((10, 6, 3), 0)["disconnected"] >= 5

    def test_conditioning_examples_are_not_vacuous(self):
        assert self._exact_paths((10, 6, 3), 361)["state"] >= 5
        assert self._exact_paths((10, 6, 3), 40)["candidate"] >= 5

    def test_rebuilds_every_64_updates(self):
        # (24,16,5) stays well conditioned, so only the update count rebuilds M
        c = random_contraction(24, 16, 5, seed=3)
        accepted, rebuilds = [], []

        def counted(walk, commit):
            accepted.append(True)
            with mock.patch.object(walk, "_rebuild", wraps=walk._rebuild) as rebuild:
                commit()
            rebuilds.append(rebuild.call_count)

        _walk_anneal(c, "e_aug", 3, 300, 0.05, accept=counted)
        assert sum(accepted) > 2 * search._REBUILD_EVERY
        assert sum(rebuilds) == sum(accepted) // search._REBUILD_EVERY

    def test_calibrated_anneal_is_not_a_random_walk(self):
        # Each propose call sees whether the candidate before it was accepted.
        # With a start temperature far above the move scale, 0.99 of these
        # candidates were accepted.
        c = random_contraction(24, 16, 5, seed=3)
        accepted, last = [], {"accepted": False}

        def propose(walk, draw, rng):
            accepted.append(last["accepted"])
            last["accepted"] = False
            return draw(rng)

        def accept(walk, commit):
            last["accepted"] = True
            commit()

        probe = search._T0_PROBE
        _walk_anneal(c, "e_aug", 3, probe + 201, propose=propose, accept=accept)
        assert not any(accepted[: probe + 1])  # the probe does not move
        assert 0 < sum(accepted[probe + 1: probe + 201]) < 100

    @given(size=st.sampled_from(_WALK_SIZES), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_cheap_bound_is_never_below_the_exact_norm(self, size, seed, steps):
        # |M'|_F <= |M|_F + sqrt(tr(T^2)) for the candidates of a random state;
        # the state's |M|_F^2, kept by updates since its last rebuild, stays exact
        c = random_contraction(*size, seed=seed)
        walk = _SwapWalk(_ContractionObjective(c.v, c.s, c.k, c.r), c.cells, True)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            move = walk.propose(rng)
            if move is None:
                break
            walk.score(move)
            walk.accept()
        assume(walk.m is not None)
        state = walk.state()
        w = np.linalg.eigvalsh(_lifted(c, state))
        assert walk.norm2 == pytest.approx(float(np.sum(w**-2.0)), rel=1e-9)
        for _ in range(20):
            move = walk.propose(rng)
            if move is None:
                break
            walk.bound = None
            walk.score(move)
            if walk.bound is None:  # a small capacitance determinant: scored exactly
                continue
            w = np.linalg.eigvalsh(_lifted(c, _swap(state, move)))
            assert walk.bound >= math.sqrt(float(np.sum(w**-2.0)))

    @pytest.mark.parametrize("size, seed", [((10, 6, 3), 40), ((10, 6, 3), 361),
                                            ((10, 6, 3), 0), ((8, 6, 3), 5), ((12, 8, 3), 2)])
    def test_cholesky_decides_as_the_smallest_eigenvalue(self, size, seed):
        # a fresh walk on each state a t0 = 1 walk scores from keeps M exactly
        # when the smallest eigenvalue of B~ is at least _WALK_MIN_EIG
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        kept = []

        def check(walk, draw, rng):
            state = walk.state()
            fresh = _SwapWalk(obj, state, True)
            low = np.linalg.eigvalsh(_lifted(c, state))[0] < search._WALK_MIN_EIG
            assert (fresh.m is None) == low
            kept.append(fresh.m is not None)
            return draw(rng)

        _walk_anneal(c, "e_aug", seed, 300, 1.0, propose=check)
        if seed in (40, 361):  # both outcomes occur
            assert 0 < sum(kept) < len(kept)


class TestSampler:
    @given(size=st.sampled_from(_WALK_SIZES + [(6, 4, 3), (9, 9, 3)]),
           seed=st.integers(0, 2**32 - 1), objective=st.sampled_from(["e_con", "e_aug"]))
    @settings(max_examples=25, deadline=None)
    def test_tables_match_scans_draw_for_draw(self, size, seed, objective):
        c = random_contraction(*size, seed=seed)
        kinds = set()
        draws = []  # the oracle's pairs, drawn and popped as the walk's are
        states = [c.cells]  # the walk's state, kept by swapping each accepted move

        def propose(walk, draw, rng):
            cells = states[-1]
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            move = draw(rng)
            assert move == sample_move_by_scans(cells, twin, draws)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert walk.draws == draws
            # the tables the walk keeps up to date are the state's labels, rows and columns
            rows = cells.tolist()
            assert np.array_equal(walk.state(), cells)
            assert walk.labels == [lab for row in rows for lab in row]
            assert walk.rows == [set(row) for row in rows]
            assert walk.cols == [set(col) for col in cells.T.tolist()]
            if objective == "e_aug":
                n_r = _incidence_arrays(cells, c.v)[0]
                assert np.array_equal(walk.xr, n_r.T * (walk.dv / c.s))
            return move

        def accept(walk, commit):
            kinds.add(_move_kind(walk.move))
            states.append(_swap(states[-1], walk.move))
            commit()

        _walk_anneal(c, objective, seed, search._T0_PROBE + 200, 0.05, propose=propose,
                     accept=accept)
        # where every row holds every label, only within-row swaps exist
        assert kinds == ({"within_row"} if c.s == c.v else
                         {"within_row", "within_column", "transpose"})

    @pytest.mark.parametrize("k, s", [(3, 8), (5, 16), (6, 32)])
    def test_pair_table_lists_every_cell_pair_once(self, k, s):
        # so drawing rows of it iid is uniform over unordered cell pairs (any v: the pairs
        # do not depend on it)
        pairs = [((i1, j1), (i2, j2)) for i1, j1, i2, j2 in _swap_plan(k, s, k * s).index.tolist()]
        cells = [(i, j) for i in range(k) for j in range(s)]
        assert sorted(pairs) == list(itertools.combinations(cells, 2))

    def test_latin_square_sampler_gives_up(self, latin3):
        walk = _SwapWalk(_ContractionObjective(latin3.v, latin3.s, latin3.k, latin3.r),
                         latin3.cells, False)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        assert walk.propose(rng) is None
        assert sample_move_by_scans(latin3.cells, twin, []) is None
        assert rng.bit_generator.state == twin.bit_generator.state


#: (design sha256, repr(objective), sha256 of repr(trace), restart of best);
#: the desk-size climbs and the anneal were recorded from the exhaustive hill
#: climb before screening existed, the tabu walks and the (48,32,6) rows
#: under 1 and 2 BLAS threads.  Any change of trajectory changes one of them.
_GOLDEN = {
    "hillclimb-12x8": ((12, 8, 3), dict(seed=7, restarts=3), (
        "6a558ef4b564be00591fd284e7167ddc35c315be254c7a038cbde875cba120e9", "0.5630003552573969",
        "8bdd68eec57b6a0e9e9be63bee857d75235453a4baa8d39ee0c452248fdf237a", 2)),
    "anneal-12x8": ((12, 8, 3), dict(seed=7, strategy="anneal", restarts=3, max_iters=2000), (
        "092bee41d313afc1353fa61c4065e2c070bf6438382be9b62d1805c6c930fa78", "0.5739130434782612",
        "b914af07a5ab602dae71671ccda0139ccb71bc4da8c87081d87e614614629a5d", 0)),
    # restart 0 starts disconnected, so its first step evaluates every move exactly
    "tabu-12x8": ((12, 8, 3), dict(seed=0, strategy="tabu", restarts=2), (
        "5e518dba7866082c34b4d1b3cf032be5b6fd70180495f33d74ea29a99e7948ca", "0.5739130434782612",
        "66b59117fec4a7e00255daf911122df70520e3649656be7e2181fda953d95bd6", 0)),
    "hillclimb-24x16": ((24, 16, 5), dict(seed=3, restarts=2), (
        "4401fe24c955d921fca6f1b34ba0538b20fa91174d64186ee34ee7d17ce6007e", "0.7876033464134794",
        "a568b023a75d64850394fd635514b03dc70416673a5f0cd78e4fb9cc2a3a5ecd", 1)),
    "tabu-24x16": ((24, 16, 5), dict(seed=3, strategy="tabu", restarts=2, max_iters=100000), (
        "52388cd6c9bdc13ea1fa154f846c2a758f944526e7e5c2f28e3c5a3567cf105d", "0.7898788073079485",
        "48f682400f1db4e3e97f3c68debd6fd46db0e659458796c76e7963cf03722931", 0)),
    # field scale, where the screen's ks x ks tables are largest
    "hillclimb-48x32": ((48, 32, 6), dict(seed=3, restarts=2), (
        "e7df5e5d536bc30164b6e382c70fc85bd79e21ac9cf8dc705559ff50ef3d1539", "0.8159455334504594",
        "0a0625c7c2530b89f6d02077757537468aa3eb5ee51c95de0cf4bda2de270e19", 0)),
    "tabu-48x32": ((48, 32, 6), dict(seed=3, strategy="tabu", restarts=2, max_iters=100000), (
        "550244787242bbcfad8b28f74c2e7d53f62b46140a6ab83d144ed3b48a36c6fd", "0.8138539264264012",
        "ba3f5c64e97ae6d5b7255a1ee5b5b7c423779c88644eab34bedf53d634a2d7a5", 1)),
    # a disconnected start and an iteration cap that cuts a catalogue scan
    "capped-12x8": ((12, 8, 3), dict(seed=1, restarts=2, max_iters=40), (
        "ffe83e99c977ded3b4f366724940cb6b936026489461a2bf404f165e49a406ed", "0.535696027407117",
        "6ab0c627eac12ade4403554b6e90da6b43a4df2e4de20393d2a61ff07d3f27a2", 1)),
}


def _fingerprint(result):
    return (
        hashlib.sha256(result.best.cells.tobytes()).hexdigest(),
        repr(result.objective),
        hashlib.sha256(repr(result.trace).encode()).hexdigest(),
        result.restart_of_best,
    )


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_trajectories(name):
    dims, options, expected = _GOLDEN[name]
    assert _fingerprint(search_contraction(*dims, SearchConfig(**options))) == expected


#: Anneal on ``e_aug``: (design sha256, restart of best, objective, trace).
#: The values come from rank-2 updates of a maintained inverse, whose last
#: bits may depend on the BLAS, so they are held within 1e-12 and the rest
#: exactly.  Small symmetric sizes such as (12,8,3) get no row:
#: there some candidates tie the current value exactly, and rounding decides
#: whether ``rng.random()`` is drawn, so their seeded trajectories may differ.
_GOLDEN_ANNEAL_E_AUG = {
    "anneal-e_aug-24x16": ((24, 16, 5), dict(seed=3, restarts=2, max_iters=2000), (
        "f30b2fcad7627226e297289ad9b14a6d939abac2349fc9cc5ed03f82bdec3f25", 1,
        0.600751533418959,
        ((0, 0.5834719168631657), (33, 0.583701270201306), (38, 0.5874315857771003),
         (40, 0.5882540037350336), (41, 0.5890938124468185), (44, 0.5906884986453623),
         (46, 0.590762772282821), (51, 0.591320561952568), (55, 0.5917428017289068),
         (58, 0.5923362246400963), (65, 0.5923369489776923), (73, 0.5930710420766608),
         (87, 0.5931356049229003), (124, 0.5937152919187786), (128, 0.5941987304265106),
         (142, 0.5948062542220263), (145, 0.5951232071309217), (154, 0.5953557605475912),
         (161, 0.5955620172348423), (170, 0.5956100112285073), (171, 0.5961142321699194),
         (177, 0.5965291019653153), (190, 0.5966267111096114), (209, 0.59663588875356),
         (308, 0.5969874065149435), (363, 0.5976790756350918), (407, 0.598175950250009),
         (494, 0.5982103173404328), (520, 0.598518746433749), (521, 0.5986113920652484),
         (541, 0.5986183543829715), (876, 0.5987443600241845), (878, 0.5993829424108206),
         (879, 0.5993890674686634), (991, 0.5995040024502319), (1398, 0.5996188825428278),
         (1466, 0.6001493928010599), (1577, 0.6004161773176339), (1583, 0.600751533418959)))),
    "anneal-e_aug-48x32": ((48, 32, 6), dict(seed=3, restarts=1, max_iters=300), (
        "630377bb702fb340907fb4f05b2f649e3bd0b11d35a93c508310b0a912e333a6", 0,
        0.6508622183941485,
        ((0, 0.6397151138150429), (34, 0.6402496695830081), (35, 0.6411516033656428),
         (37, 0.6413038014990851), (38, 0.6425026792035555), (39, 0.6428807020697122),
         (40, 0.6438316841828028), (41, 0.6442506055122571), (42, 0.6446049045577829),
         (45, 0.6448503924931008), (52, 0.6459059157437709), (53, 0.6467097971849195),
         (54, 0.6471728694864509), (55, 0.6473666690567336), (57, 0.6475168168641832),
         (61, 0.647610826774864), (63, 0.6477922807123111), (64, 0.6479260211980377),
         (65, 0.6481657088014041), (66, 0.648368166051187), (68, 0.6484271028203238),
         (69, 0.6489149942463093), (70, 0.6493931058082419), (71, 0.6495206768204408),
         (72, 0.6495732433163951), (74, 0.6499756219366881), (85, 0.6500267028682474),
         (87, 0.6501427140918984), (89, 0.6502499102375051), (92, 0.6503213908040802),
         (103, 0.6503446072239993), (136, 0.6505057273605905), (172, 0.6505398404806937),
         (174, 0.6505979417240985), (194, 0.6506653594773625), (285, 0.6507567198821441),
         (287, 0.6508622183941485)))),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_ANNEAL_E_AUG))
def test_golden_anneal_e_aug(name):
    dims, options, (design, restart, objective, trace) = _GOLDEN_ANNEAL_E_AUG[name]
    result = search_contraction(*dims, SearchConfig(strategy="anneal", objective="e_aug",
                                                    **options))
    assert hashlib.sha256(result.best.cells.tobytes()).hexdigest() == design
    assert result.restart_of_best == restart
    assert [it for it, _ in result.trace] == [it for it, _ in trace]
    np.testing.assert_allclose([val for _, val in result.trace], [val for _, val in trace],
                               rtol=0, atol=1e-12)
    assert result.objective == pytest.approx(objective, rel=0, abs=1e-12)


class TestSearchContraction:
    def test_quality_band_12x8(self):
        result = search_contraction(12, 8, 3, SearchConfig(seed=0))
        assert result.objective >= 0.5639
        assert validate_contraction(result.best).ok

    def test_exhaustive_optimum_4x4(self):
        best, count = exhaustive_best_e_con(4, 4)
        assert count == 216
        result = search_contraction(4, 4, 2, SearchConfig(seed=0))
        assert result.objective == pytest.approx(best, abs=1e-12)

    def test_determinism(self):
        cfg = SearchConfig(seed=9, restarts=5)
        a = search_contraction(12, 8, 3, cfg)
        b = search_contraction(12, 8, 3, cfg)
        assert a.best == b.best
        assert a.objective == b.objective
        assert a.trace == b.trace
        assert a.restart_of_best == b.restart_of_best

    def test_serial_matches_concurrent(self):
        serial = search_contraction(10, 5, 4, SearchConfig(seed=4, restarts=6))
        threaded = search_contraction(10, 5, 4, SearchConfig(seed=4, restarts=6, workers=3))
        assert serial.best == threaded.best
        assert serial.objective == threaded.objective
        assert serial.trace == threaded.trace

    def test_trace_is_nondecreasing_and_reproducible(self):
        result = search_contraction(12, 8, 3, SearchConfig(seed=2, restarts=4))
        values = [val for _, val in result.trace]
        assert values == sorted(values)
        assert e_con(result.best) == pytest.approx(result.objective, abs=1e-12)

    def test_anneal_strategy(self):
        result = search_contraction(
            12, 8, 3, SearchConfig(seed=2, strategy="anneal", restarts=2, max_iters=3000)
        )
        values = [val for _, val in result.trace]
        assert values == sorted(values)
        assert result.objective >= 0.52

    def test_tabu_strategy(self):
        result = search_contraction(
            12, 8, 3, SearchConfig(seed=2, strategy="tabu", restarts=2)
        )
        assert validate_contraction(result.best).ok
        assert result.objective >= 0.5739

    def test_e_aug_objective(self):
        result = search_contraction(
            12, 8, 3, SearchConfig(seed=0, strategy="anneal", restarts=4, max_iters=2000,
                                   objective="e_aug")
        )
        assert result.objective == pytest.approx(0.388112, abs=2e-3)

    @pytest.mark.parametrize("strategy", ["hillclimb", "tabu"])
    def test_e_aug_objective_needs_anneal(self, strategy):
        with pytest.raises(ConfigError, match="^objective e_aug needs strategy 'anneal'"):
            SearchConfig(strategy=strategy, objective="e_aug")
        assert SearchConfig(strategy="anneal", objective="e_aug").objective == "e_aug"

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("restarts", 2.5), ("max_iters", 10.5), ("workers", 2.0), ("seed", "1"),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize("value", ["1", 1j, [1.0]])
    def test_time_budget_must_be_a_number(self, value):
        message = f"^time_budget must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            SearchConfig(time_budget=value)
        assert SearchConfig(time_budget=np.float32(0.5)).time_budget == 0.5

    def test_numpy_integer_counts_accepted(self):
        cfg = SearchConfig(seed=np.uint64(3), restarts=np.int32(2), max_iters=np.int64(300))
        assert (cfg.seed, cfg.restarts, cfg.max_iters) == (3, 2, 300)
        assert all(type(x) is int for x in (cfg.seed, cfg.restarts, cfg.max_iters))
        plain = SearchConfig(seed=3, restarts=2, max_iters=300)
        assert (search_contraction(8, 6, 3, cfg).to_json()
                == search_contraction(8, 6, 3, plain).to_json())

    def test_infeasible_parameters_raise(self):
        with pytest.raises(InfeasibleParametersError):
            search_contraction(10, 3, 2, SearchConfig(seed=0, restarts=1))

    def test_time_budget_flag(self):
        result = search_contraction(
            16, 10, 4, SearchConfig(seed=0, restarts=500, time_budget=0.3)
        )
        assert result.timed_out
        assert validate_contraction(result.best).ok

    def test_threaded_restarts_start_none_after_the_deadline(self):
        started = []

        def restart(i, rng, deadline):
            started.append(i)
            time.sleep(0.1)
            return np.zeros((1, 1)), 0.0, [(0, 0.0)], 1, False

        cfg = SearchConfig(restarts=8, workers=2, time_budget=0.05)
        result = _run_restarts(cfg, 1, restart)
        assert sorted(started) == [0, 1]
        assert result.timed_out

    @pytest.mark.parametrize("strategy, iters", [("hillclimb", 1), ("anneal", 10), ("tabu", 50)])
    def test_budget_that_leaves_every_restart_disconnected_raises(self, strategy, iters):
        # at seed 0 each budget ends its one restart on a disconnected (12,8,3) design
        with pytest.raises(ConfigError, match=f"^max_iters {iters} left every restart at a "
                                              "disconnected design; raise the budget$"):
            search_contraction(12, 8, 3, SearchConfig(strategy=strategy, restarts=1,
                                                      max_iters=iters))

    def test_tiny_exhaustive_comparison(self):
        # at (3, 3, 2) every contraction is enumerable; the search attains the best e_aug
        best_contraction = 0.0
        for c in _all_3x3_k2_contractions():
            try:
                val = e_aug_direct(augment(c))
            except DisconnectedDesignError:
                val = 0.0
            best_contraction = max(best_contraction, val)

        search_c = search_contraction(3, 3, 2, SearchConfig(seed=0, restarts=6))
        assert e_aug_direct(augment(search_c.best)) == pytest.approx(best_contraction, abs=1e-9)
        assert best_contraction > 0


def _all_3x3_k2_contractions():
    for row1 in itertools.permutations([1, 2, 3]):
        for row2 in itertools.permutations([1, 2, 3]):
            if any(a == b for a, b in zip(row1, row2)):
                continue
            c = ContractionDesign.from_cells(np.array([row1, row2]), v=3)
            if validate_contraction(c).ok:
                yield c
