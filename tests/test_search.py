import contextlib
import hashlib
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcdesign import (
    SearchConfig,
    apply_move,
    e_aug_direct,
    e_con,
    neighbor_moves,
    random_contraction,
    search_augmented_direct,
    search_contraction,
    validate_augmented,
    validate_contraction,
)
from arcdesign import search
from arcdesign.designs import _incidence_arrays
from arcdesign.errors import ConstructionError, InfeasibleParametersError
from arcdesign.search import (
    _CLASSES,
    Move,
    _anneal,
    _catalogue,
    _ContractionObjective,
    _hillclimb,
    _swap,
    _swap_index,
    _SwapWalk,
)

from oracles import catalogue_by_loops, exhaustive_best_e_con, sample_move_by_scans

#: Feasible sizes; (7,5,3), (10,6,3) and (24,16,5) carry unequal replication.
_SIZES = [(4, 4, 2), (6, 4, 3), (7, 5, 3), (10, 6, 3), (12, 8, 3), (9, 9, 3), (24, 16, 5)]
_CLASS_SETS = [_CLASSES, ("within_row", "transpose"), ("within_column",), ("transpose",)]


class TestRandomContraction:
    def test_valid_for_reference_dimensions(self):
        c = random_contraction(12, 8, 3, r=np.full(12, 2), seed=1)
        assert validate_contraction(c).ok

    def test_deterministic(self):
        a = random_contraction(12, 8, 3, seed=1)
        b = random_contraction(12, 8, 3, seed=1)
        assert a == b

    def test_seed_sweep_valid_and_diverse(self):
        seen = set()
        for seed in range(1, 101):
            c = random_contraction(4, 4, 2, r=np.full(4, 2), seed=seed)
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
        with pytest.raises(InfeasibleParametersError):
            random_contraction(12, 8, 3, r=np.full(12, 3), seed=0)

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


class TestCatalogueOracle:
    @given(size=st.sampled_from(_SIZES), classes=st.sampled_from(_CLASS_SETS),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle_move_for_move(self, size, classes, seed):
        c = random_contraction(*size, seed=seed)
        assert neighbor_moves(c, classes) == tuple(catalogue_by_loops(c.cells, c.v, classes))

    def test_unequal_replication_matches_oracle(self):
        c = random_contraction(24, 16, 5, seed=3)
        assert len(set(c.r.tolist())) == 2
        assert neighbor_moves(c) == tuple(catalogue_by_loops(c.cells, c.v))

    def test_latin_square_matches_oracle(self, latin3):
        assert catalogue_by_loops(latin3.cells, latin3.v) == []
        assert len(_catalogue(latin3.cells, latin3.v, _CLASSES)) == 0


def _climb_modes(obj, cells):
    """(exact objective, catalogue, screen) of each hill climb that screens, by name."""
    v = obj.v
    col_gram = obj.column_gram(cells)
    return {
        "full": (obj.value, lambda x: _catalogue(x, v, _CLASSES), obj.screen),
        "columns": (obj.column_value, lambda x: _catalogue(x, v, ("within_row", "transpose")),
                    lambda x, m: obj.screen(x, m, rows=False)),
        "pinned": (lambda x: obj.value(x, col_gram), lambda x: _catalogue(x, v, ("within_column",)),
                   lambda x, m: obj.screen(x, m, col_gram)),
    }


def _mode_args(obj, cells):
    """(pinned column Gram matrix, rows, move classes) of each hill climb that screens."""
    return {
        "full": (None, True, _CLASSES),
        "columns": (None, False, ("within_row", "transpose")),
        "pinned": (obj.column_gram(cells), True, ("within_column",)),
    }


def _screen_modes(obj, cells):
    """(catalogue, exact objective, screened values) for each objective hill climbing screens."""
    out = []
    for exact_fn, catalogue_fn, screen in _climb_modes(obj, cells).values():
        moves = catalogue_fn(cells)
        out.append((moves, exact_fn, screen(cells, moves)(np.arange(len(moves)))))
    return out


class TestScreen:
    @given(size=st.sampled_from(_SIZES[:6]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_screen_matches_exact_along_accepted_walks(self, size, seed):
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        rng = np.random.default_rng(seed)
        cells = c.cells
        for _ in range(4):
            for moves, exact_fn, screened in _screen_modes(obj, cells):
                if len(moves) == 0:
                    continue
                cur = exact_fn(cells)
                exact = np.array([exact_fn(_swap(cells, m)) for m in moves])
                floor = cur - 1e-9 * max(1.0, abs(cur))
                # sound: nothing the exact objective would accept is ruled out
                assert not np.any((exact > cur) & (screened <= floor))
                if cur > 0.0 and np.isfinite(screened).all():
                    connected = exact > 0.0
                    np.testing.assert_allclose(screened[connected], exact[connected],
                                               rtol=0, atol=1e-10)
            moves = _catalogue(cells, c.v, _CLASSES)
            if len(moves) == 0:
                break
            cur = obj.value(cells)
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
        moves = _catalogue(c.cells, c.v, _CLASSES)
        # with and without the eigenvalues of the state's own value
        for value_first in (True, False):
            obj = _ContractionObjective(c.v, c.s, c.k, c.r)
            if value_first:
                assert obj.value(c.cells) == 0.0
            assert np.all(obj.screen(c.cells, moves)(np.arange(len(moves))) == np.inf)
        exact = np.array([obj.value(_swap(c.cells, m)) for m in moves])
        assert np.any(exact > 0.0)

    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["full", "columns", "pinned"]))
    @settings(max_examples=30, deadline=None)
    def test_screen_without_cached_eigenvalues_matches(self, size, seed, mode):
        # screen reads the eigenvalues the last value took of the same A_s,
        # and takes them itself when there are none
        c = random_contraction(*size, seed=seed)
        runs = []
        for warm in (True, False):
            obj = _ContractionObjective(c.v, c.s, c.k, c.r)
            exact_fn, catalogue_fn, screen = _climb_modes(obj, c.cells)[mode]
            if warm:
                exact_fn(c.cells)
            moves = catalogue_fn(c.cells)
            runs.append(screen(c.cells, moves)(np.arange(len(moves))))
        np.testing.assert_array_equal(*runs)
        # a well-conditioned state is screened, not confirmed move by move
        col_gram, rows, _ = _mode_args(obj, c.cells)[mode]
        guard = min(1.0, np.linalg.eigvalsh(obj._scaled_info(c.cells, col_gram, rows)[0])[1])
        if len(moves) and guard >= search._SCREEN_MIN_EIG:
            assert np.isfinite(runs[0]).any()

    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["full", "columns", "pinned"]), steps=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_guard_equals_smallest_eigenvalue_of_lifted_matrix(self, size, seed, mode, steps):
        # A_s + qq' has the eigenvalues of A_s with the null one replaced by 1
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        col_gram, rows, classes = _mode_args(obj, c.cells)[mode]
        rng = np.random.default_rng(seed)
        cells = c.cells
        for _ in range(steps):
            moves = _catalogue(cells, c.v, classes)
            if len(moves) == 0:
                break
            cells = _swap(cells, moves[rng.integers(len(moves))])
        a_s = obj._scaled_info(cells, col_gram, rows)[0]
        guard = min(1.0, np.linalg.eigvalsh(a_s)[1])
        lifted = np.linalg.eigh(a_s + obj.null_term)[0][0]
        assert abs(guard - lifted) <= 1e-12

    # Budgets that end a scan at small positions (1 to 40), just before, at
    # or just past the first chunk's end (_FIRST_CHUNK - 1 to + 1), just past
    # the second's (2 * _FIRST_CHUNK + 1), later (100 to 500) or never.
    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["full", "columns", "pinned"]),
           max_iters=st.sampled_from([1, 9, 16, 17, 37, 40, 100, 300, 500, 20000,
                                      search._FIRST_CHUNK - 1, search._FIRST_CHUNK,
                                      search._FIRST_CHUNK + 1, 2 * search._FIRST_CHUNK + 1]))
    @example(size=(12, 8, 3), seed=0, mode="full", max_iters=20000)  # a disconnected start
    @example(size=(12, 8, 3), seed=0, mode="pinned", max_iters=40)
    @settings(max_examples=40, deadline=None)
    def test_screened_hillclimb_equals_exhaustive(self, size, seed, mode, max_iters):
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        obj_fn, catalogue_fn, screen = _climb_modes(obj, c.cells)[mode]
        runs = [
            _hillclimb(c.cells, obj_fn, catalogue_fn, _swap, np.random.default_rng(seed),
                       max_iters, None, *screen)
            for screen in ((), (screen,))
        ]
        (state_a, *rest_a), (state_b, *rest_b) = runs
        assert np.array_equal(state_a, state_b)
        assert rest_a == rest_b

    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["full", "columns", "pinned"]), ticks=st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_chunks_keep_deadline_stops(self, size, seed, mode, ticks):
        # A clock that advances one unit per reading: a stop depends only on
        # how many deadline checks came before it, which chunking must keep
        # equal to screening the whole catalogue in one chunk.
        c = random_contraction(*size, seed=seed)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        obj_fn, catalogue_fn, screen = _climb_modes(obj, c.cells)[mode]
        runs = []
        for first_chunk in (search._FIRST_CHUNK, 1 << 30):
            clock = itertools.count()
            with mock.patch.object(search, "_FIRST_CHUNK", first_chunk), \
                    mock.patch.object(search.time, "monotonic", lambda: float(next(clock))):
                runs.append(_hillclimb(c.cells, obj_fn, catalogue_fn, _swap,
                                       np.random.default_rng(seed), 20000, float(ticks), screen))
        (state_a, *rest_a), (state_b, *rest_b) = runs
        assert np.array_equal(state_a, state_b)
        assert rest_a == rest_b


class TestAnneal:
    def _run(self, max_iters, sampler=lambda walk: walk.sample, deadline=None,
             value=lambda walk: walk.value):
        c = random_contraction(12, 8, 3, seed=0)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        walk = _SwapWalk(obj)
        calls = []
        value_fn = value(walk)

        def counted(cells):
            calls.append(1)
            return value_fn(cells)

        out = _anneal(c.cells, counted, sampler(walk), walk.apply, np.random.default_rng(0),
                      max_iters, 0.999, deadline)
        return out[3], len(calls) - 1  # the starting state is not a move evaluation

    def test_full_budget_counts_every_evaluation(self):
        assert self._run(50) == (50, 50)

    @staticmethod
    def _giving_up_after(draws):
        budget = iter(range(draws))

        def sampler(walk):
            return lambda x, g: walk.sample(x, g) if next(budget, None) is not None else None

        return sampler

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
        # a constant objective ties every move, in the probe and after it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(200, value=lambda walk: lambda cells: 0.5) == (200, 200)

    @pytest.mark.parametrize("moved", [[3e-4, 1e-4, 2e-4], [4e-4, 1e-4, 3e-4, 0.1e-4]])
    def test_start_temperature_ignores_ties(self, moved):
        t0 = search._start_temp([0.0] * 20 + moved)
        assert t0 == pytest.approx(search._T0_SCALE * 2e-4, rel=1e-12)


#: Sizes for the anneal walk; (10,6,3) and (24,16,5) carry unequal replication.
_WALK_SIZES = [(8, 6, 3), (10, 5, 4), (12, 8, 3), (10, 6, 3), (24, 16, 5)]


def _move_kind(move):
    i1, j1, i2, j2 = move
    return "within_row" if i1 == i2 else "within_column" if j1 == j2 else "transpose"


def _walk_anneal(c, objective, seed, iters, t0=None, value=None, sample=None):
    """A seeded contraction anneal on a fresh walk; hooks wrap its value and sampler.

    A given ``t0`` replaces the start temperature the probe would set.
    """
    walk = _SwapWalk(_ContractionObjective(c.v, c.s, c.k, c.r, objective))
    value_fn = walk.value if value is None else (lambda x: value(walk, x))
    sample_fn = walk.sample if sample is None else (lambda x, g: sample(walk, x, g))
    fixed = (contextlib.nullcontext() if t0 is None else
             mock.patch.object(search, "_start_temp", lambda probe: t0))
    with fixed:
        return _anneal(c.cells, value_fn, sample_fn, walk.apply, np.random.default_rng(seed),
                       iters, 0.999, None)


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
        states = []

        def checked(walk, cells):
            val = walk.value(cells)
            exact = walk.obj._value_e_aug(cells)
            assert val == 0.0 if exact == 0.0 else abs(val - exact) <= 1e-10
            states.append(walk.cells)  # the state each candidate is scored from
            return val

        state, *rest = _walk_anneal(c, "e_aug", seed, 300, t0, checked)
        assert len(states) == 301
        if t0 is not None:
            assert sum(a is not b for a, b in zip(states, states[1:])) > search._REBUILD_EVERY
        again, *rest_again = _walk_anneal(c, "e_aug", seed, 300, t0)
        assert state.tobytes() == again.tobytes()
        assert repr(rest) == repr(rest_again)

    @staticmethod
    def _exact_paths(size, seed):
        """Candidates of a t0 = 1 walk scored exactly, by the rule that sent them there."""
        paths = {"disconnected": 0, "state": 0, "candidate": 0}

        def classified(walk, cells):
            scored = cells is walk.cand and cells is not walk.cells
            by_state = scored and walk.m is None
            val = walk.value(cells)
            paths["disconnected"] += val == 0.0
            paths["state"] += by_state
            paths["candidate"] += scored and not by_state and walk.pending is None and val > 0
            return val

        _walk_anneal(random_contraction(*size, seed=seed), "e_aug", seed, 300, 1.0, classified)
        return paths

    def test_disconnected_examples_are_not_vacuous(self):
        c = random_contraction(12, 8, 3, seed=0)
        assert _ContractionObjective(c.v, c.s, c.k, c.r, "e_aug").value(c.cells) == 0.0
        assert self._exact_paths((10, 6, 3), 0)["disconnected"] >= 5

    def test_conditioning_examples_are_not_vacuous(self):
        assert self._exact_paths((10, 6, 3), 361)["state"] >= 5
        assert self._exact_paths((10, 6, 3), 40)["candidate"] >= 5

    def test_rebuilds_every_64_updates(self):
        # (24,16,5) stays well conditioned, so only the update count rebuilds M
        c = random_contraction(24, 16, 5, seed=3)
        accepted, rebuilds = [], []

        def sampler(walk, cells, rng):
            accepted.append(cells is walk.cand)
            with mock.patch.object(walk, "_rebuild", wraps=walk._rebuild) as rebuild:
                move = walk.sample(cells, rng)
            rebuilds.append(rebuild.call_count)
            return move

        _walk_anneal(c, "e_aug", 3, 300, 0.05, sample=sampler)
        assert sum(accepted) > 2 * search._REBUILD_EVERY
        assert sum(rebuilds) == sum(accepted) // search._REBUILD_EVERY

    def test_calibrated_anneal_is_not_a_random_walk(self):
        # Each sample call sees whether the candidate before it was accepted.
        # With a start temperature far above the move scale, 0.99 of these
        # candidates were accepted.
        c = random_contraction(24, 16, 5, seed=3)
        accepted = []

        def sampler(walk, cells, rng):
            accepted.append(cells is walk.cand)
            return walk.sample(cells, rng)

        probe = search._T0_PROBE
        _walk_anneal(c, "e_aug", 3, probe + 201, sample=sampler)
        assert not any(accepted[: probe + 1])  # the probe does not move
        assert 0 < sum(accepted[probe + 1: probe + 201]) < 100


class TestSampler:
    @given(size=st.sampled_from(_WALK_SIZES + [(6, 4, 3), (9, 9, 3)]),
           seed=st.integers(0, 2**32 - 1), objective=st.sampled_from(["e_con", "e_aug"]))
    @settings(max_examples=25, deadline=None)
    def test_tables_match_scans_draw_for_draw(self, size, seed, objective):
        c = random_contraction(*size, seed=seed)
        kinds = set()
        draws = []  # the oracle's pairs, drawn and popped as the walk's are

        def sampler(walk, cells, rng):
            if walk.cand is not None and cells is walk.cand:
                kinds.add(_move_kind(walk.move))
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            move = walk.sample(cells, rng)
            assert move == sample_move_by_scans(cells, twin, draws)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert walk.draws == draws
            # the tables the walk keeps up to date are the state's labels, rows and columns
            rows = cells.tolist()
            assert walk.labels == [lab for row in rows for lab in row]
            assert walk.rows == [set(row) for row in rows]
            assert walk.cols == [set(col) for col in cells.T.tolist()]
            if objective == "e_aug":
                n_r = _incidence_arrays(cells, c.v)[0]
                assert np.array_equal(walk.xr, n_r.T * (walk.dv / c.s))
            return move

        _walk_anneal(c, objective, seed, search._T0_PROBE + 200, 0.05, sample=sampler)
        # where every row holds every label, only within-row swaps exist
        assert kinds == ({"within_row"} if c.s == c.v else
                         {"within_row", "within_column", "transpose"})

    @pytest.mark.parametrize("k, s", [(3, 8), (5, 16), (6, 32)])
    def test_pair_table_lists_every_cell_pair_once(self, k, s):
        # so drawing rows of it iid is uniform over unordered cell pairs
        pairs = [((i1, j1), (i2, j2)) for i1, j1, i2, j2 in _swap_index(k, s, _CLASSES).tolist()]
        cells = [(i, j) for i in range(k) for j in range(s)]
        assert sorted(pairs) == list(itertools.combinations(cells, 2))

    def test_latin_square_sampler_gives_up(self, latin3):
        walk = _SwapWalk(_ContractionObjective(latin3.v, latin3.s, latin3.k, latin3.r))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        assert walk.sample(latin3.cells, rng) is None
        assert sample_move_by_scans(latin3.cells, twin, []) is None
        assert rng.bit_generator.state == twin.bit_generator.state


#: (design sha256, repr(objective), sha256 of repr(trace), restart of best),
#: recorded from the exhaustive hill climb before screening existed; any
#: change of trajectory changes one of them.
_GOLDEN = {
    "hillclimb-12x8": ((12, 8, 3), dict(seed=7, restarts=3), (
        "6a558ef4b564be00591fd284e7167ddc35c315be254c7a038cbde875cba120e9", "0.5630003552573969",
        "8bdd68eec57b6a0e9e9be63bee857d75235453a4baa8d39ee0c452248fdf237a", 2)),
    "anneal-12x8": ((12, 8, 3), dict(seed=7, strategy="anneal", restarts=3, max_iters=2000), (
        "092bee41d313afc1353fa61c4065e2c070bf6438382be9b62d1805c6c930fa78", "0.5739130434782612",
        "b914af07a5ab602dae71671ccda0139ccb71bc4da8c87081d87e614614629a5d", 0)),
    "column-first-12x8": ((12, 8, 3), dict(seed=7, strategy="column-first", restarts=3), (
        "fa0c850d18072159bd5a1ee2af5038f11b1bb6a06ec46f0a413efa1648c1eab5", "0.5630003552573966",
        "92244b57f1247801086eb55f90985f9e6c743e9bc3a2d95930f552e9ff324f3a", 0)),
    "hillclimb-24x16": ((24, 16, 5), dict(seed=3, restarts=2), (
        "4401fe24c955d921fca6f1b34ba0538b20fa91174d64186ee34ee7d17ce6007e", "0.7876033464134794",
        "a568b023a75d64850394fd635514b03dc70416673a5f0cd78e4fb9cc2a3a5ecd", 1)),
    "column-first-24x16": ((24, 16, 5), dict(seed=3, strategy="column-first", restarts=2), (
        "5551554ca7d7e00313c990e6dfc2e1be480678828a7f0e4643c304c917457706", "0.7886713594856065",
        "2edfc4d5ac4bb4b684d067ee42d2b6896e7dcd43bbff7efea78ae75b461a0f92", 0)),
    # a disconnected start and an iteration cap that cuts a catalogue scan
    "capped-12x8": ((12, 8, 3), dict(seed=1, restarts=2, max_iters=40), (
        "ffe83e99c977ded3b4f366724940cb6b936026489461a2bf404f165e49a406ed", "0.535696027407117",
        "6ab0c627eac12ade4403554b6e90da6b43a4df2e4de20393d2a61ff07d3f27a2", 1)),
    "e_aug-12x8": ((12, 8, 3), dict(seed=0, restarts=2, objective="e_aug"), (
        "e90ce5b03915dc12a9222eb6e440e9cc2ff43b842265b40dfb0296f30a24f5ff", "0.3782862706913341",
        "45f1baa4c79c2c23cd6578a821b567ff674bb87b1021175440061835962946f2", 0)),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_trajectories(name):
    dims, options, expected = _GOLDEN[name]
    result = search_contraction(*dims, SearchConfig(**options))
    assert (
        hashlib.sha256(result.best.cells.tobytes()).hexdigest(),
        repr(result.objective),
        hashlib.sha256(repr(result.trace).encode()).hexdigest(),
        result.restart_of_best,
    ) == expected


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

    def test_column_first_strategy(self):
        result = search_contraction(
            12, 8, 3, SearchConfig(seed=2, strategy="column-first", restarts=8)
        )
        assert validate_contraction(result.best).ok
        assert result.objective >= 0.52

    def test_e_aug_objective(self):
        result = search_contraction(
            12, 8, 3, SearchConfig(seed=0, restarts=4, objective="e_aug")
        )
        assert result.objective == pytest.approx(0.388112, abs=2e-3)

    def test_infeasible_parameters_raise(self):
        with pytest.raises(InfeasibleParametersError):
            search_contraction(10, 3, 2, SearchConfig(seed=0, restarts=1))

    def test_time_budget_flag(self):
        result = search_contraction(
            16, 10, 4, SearchConfig(seed=0, restarts=500, time_budget=0.3)
        )
        assert result.timed_out
        assert validate_contraction(result.best).ok


class TestSearchAugmentedDirect:
    def test_small_budget_12x8(self):
        cfg = SearchConfig(seed=0, restarts=2, max_iters=250)
        result = search_augmented_direct(12, 8, 3, cfg)
        assert 0.0 < result.objective < 1.0
        assert result.objective == pytest.approx(e_aug_direct(result.best), abs=1e-12)
        report = validate_augmented(result.best)
        assert report.ok  # column structure and test-line uniqueness hold
        assert len(result.row_check_counts) == 12
        assert sum(result.row_check_counts) == 24

    def test_determinism(self):
        cfg = SearchConfig(seed=5, restarts=2, max_iters=120)
        a = search_augmented_direct(6, 4, 3, cfg)
        b = search_augmented_direct(6, 4, 3, cfg)
        assert a.best == b.best and a.objective == b.objective

    def test_tiny_exhaustive_comparison(self):
        # at (3, 3, 2) both routes are enumerable; record both optima and
        # check each search attains its own; no ordering is asserted
        import itertools

        from arcdesign import AugmentedDesign, ContractionDesign
        from arcdesign.errors import DisconnectedDesignError

        best_contraction = 0.0
        for c in _all_3x3_k2_contractions():
            try:
                val = e_aug_direct(_augmented_from(c))
            except DisconnectedDesignError:
                val = 0.0
            best_contraction = max(best_contraction, val)

        best_direct = 0.0
        rows = list(itertools.permutations(range(3), 2))
        for placement in itertools.product(rows, repeat=3):
            cells = np.zeros((3, 3), dtype=np.int64)
            for j, (r1, r2) in enumerate(placement):
                cells[r1, j] = 4
                cells[r2, j] = 5
            nxt = 1
            for j in range(3):
                for l in range(3):
                    if cells[l, j] == 0:
                        cells[l, j] = nxt
                        nxt += 1
            try:
                val = e_aug_direct(AugmentedDesign(k=2, cells=cells))
            except DisconnectedDesignError:
                val = 0.0
            best_direct = max(best_direct, val)

        search_c = search_contraction(3, 3, 2, SearchConfig(seed=0, restarts=6))
        from arcdesign import augment

        assert e_aug_direct(augment(search_c.best)) == pytest.approx(best_contraction, abs=1e-9)
        search_d = search_augmented_direct(3, 3, 2, SearchConfig(seed=0, restarts=6, max_iters=300))
        assert search_d.objective == pytest.approx(best_direct, abs=1e-9)
        # the contraction route constrains rows as well, so record both values
        assert best_direct > 0 and best_contraction > 0


def _all_3x3_k2_contractions():
    import itertools

    from arcdesign import ContractionDesign

    for row1 in itertools.permutations([1, 2, 3]):
        for row2 in itertools.permutations([1, 2, 3]):
            if any(a == b for a, b in zip(row1, row2)):
                continue
            c = ContractionDesign.from_cells(np.array([row1, row2]), v=3)
            if validate_contraction(c).ok:
                yield c


def _augmented_from(c):
    from arcdesign import augment

    return augment(c)
