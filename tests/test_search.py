import hashlib
import itertools
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
from arcdesign.errors import InfeasibleParametersError
from arcdesign.search import (
    _CLASSES,
    Move,
    _anneal,
    _catalogue,
    _ContractionObjective,
    _hillclimb,
    _swap,
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
            obj = _ContractionObjective(c.v, c.s, c.k, c.r)
            if obj.value(c.cells) == 0.0:
                break
        else:
            pytest.fail("no disconnected start found")
        moves = _catalogue(c.cells, c.v, _CLASSES)
        exact = np.array([obj.value(_swap(c.cells, m)) for m in moves])
        assert np.any(exact > 0.0)
        assert np.all(obj.screen(c.cells, moves)(np.arange(len(moves))) == np.inf)

    # Budgets that end a scan inside its first chunk (1, 9), at or just past
    # that chunk's end (16, 17), inside a later chunk (37 to 500) or never.
    @given(size=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["full", "columns", "pinned"]),
           max_iters=st.sampled_from([1, 9, 16, 17, 37, 40, 100, 300, 500, 20000]))
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
    def _run(self, max_iters, sampler=lambda walk: walk.sample, deadline=None):
        c = random_contraction(12, 8, 3, seed=0)
        obj = _ContractionObjective(c.v, c.s, c.k, c.r)
        walk = _SwapWalk(obj)
        calls = []

        def counted(cells):
            calls.append(1)
            return walk.value(cells)

        out = _anneal(c.cells, counted, sampler(walk), walk.apply, np.random.default_rng(0),
                      max_iters, 0.05, 0.999, deadline)
        return out[3], len(calls) - 1  # the starting state is not a move evaluation

    def test_full_budget_counts_every_evaluation(self):
        assert self._run(50) == (50, 50)

    def test_exhausted_sampler_stops_the_count(self):
        budget = iter(range(7))

        def sampler(walk):
            return lambda x, g: walk.sample(x, g) if next(budget, None) is not None else None

        assert self._run(50, sampler) == (7, 7)

    def test_deadline_stops_the_count(self):
        # the deadline is polled every 64 iterations
        evals, made = self._run(1000, deadline=0.0)
        assert evals == made == 63


#: Sizes for the anneal walk; (10,6,3) and (24,16,5) carry unequal replication.
_WALK_SIZES = [(8, 6, 3), (10, 5, 4), (12, 8, 3), (10, 6, 3), (24, 16, 5)]


def _move_kind(move):
    i1, j1, i2, j2 = move
    return "within_row" if i1 == i2 else "within_column" if j1 == j2 else "transpose"


def _walk_anneal(c, objective, seed, iters, t0, value=None, sample=None):
    """A seeded contraction anneal on a fresh walk; hooks wrap its value and sampler."""
    walk = _SwapWalk(_ContractionObjective(c.v, c.s, c.k, c.r, objective))
    value_fn = walk.value if value is None else (lambda x: value(walk, x))
    sample_fn = walk.sample if sample is None else (lambda x, g: sample(walk, x, g))
    return _anneal(c.cells, value_fn, sample_fn, walk.apply, np.random.default_rng(seed),
                   iters, t0, 0.999, None)


class TestSwapWalk:
    # t0 = 1 accepts most downhill moves too, so walks pass through
    # disconnected and badly conditioned states at the small sizes.
    @given(size=st.sampled_from(_WALK_SIZES), seed=st.integers(0, 2**32 - 1),
           t0=st.sampled_from([0.05, 1.0]))
    @example(size=(12, 8, 3), seed=0, t0=1.0)  # a disconnected start
    @example(size=(10, 6, 3), seed=0, t0=1.0)  # scores disconnected candidates
    # badly conditioned: updating down to a smallest eigenvalue of 1e-3 errs
    # by 7e-10 here, and updating any candidate of a well-conditioned state
    # by 2e-7 in the next
    @example(size=(10, 6, 3), seed=25, t0=1.0)
    @example(size=(10, 6, 3), seed=12, t0=1.0)
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
        assert sum(a is not b for a, b in zip(states, states[1:])) > search._REBUILD_EVERY
        again, *rest_again = _walk_anneal(c, "e_aug", seed, 300, t0)
        assert state.tobytes() == again.tobytes()
        assert repr(rest) == repr(rest_again)

    def test_disconnected_examples_are_not_vacuous(self):
        c = random_contraction(12, 8, 3, seed=0)
        assert _ContractionObjective(c.v, c.s, c.k, c.r, "e_aug").value(c.cells) == 0.0
        zeros = []

        def counted(walk, cells):
            val = walk.value(cells)
            zeros.append(val == 0.0)
            return val

        _walk_anneal(random_contraction(10, 6, 3, seed=0), "e_aug", 0, 300, 1.0, counted)
        assert sum(zeros) >= 5

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


class TestSampler:
    @given(size=st.sampled_from(_WALK_SIZES + [(6, 4, 3), (9, 9, 3)]),
           seed=st.integers(0, 2**32 - 1), objective=st.sampled_from(["e_con", "e_aug"]))
    @settings(max_examples=25, deadline=None)
    def test_tables_match_scans_draw_for_draw(self, size, seed, objective):
        c = random_contraction(*size, seed=seed)
        kinds = set()

        def sampler(walk, cells, rng):
            if walk.cand is not None and cells is walk.cand:
                kinds.add(_move_kind(walk.move))
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            move = walk.sample(cells, rng)
            assert move == sample_move_by_scans(cells, twin)
            assert rng.bit_generator.state == twin.bit_generator.state
            # the tables the walk keeps up to date are the state's incidences
            for kept, fresh in zip((walk.n_r, walk.n_c), _incidence_arrays(cells, c.v)):
                assert np.array_equal(kept, fresh)
            return move

        _walk_anneal(c, objective, seed, 200, 0.05, sample=sampler)
        # where every row holds every label, only within-row swaps exist
        assert kinds == ({"within_row"} if c.s == c.v else
                         {"within_row", "within_column", "transpose"})

    def test_latin_square_sampler_gives_up(self, latin3):
        walk = _SwapWalk(_ContractionObjective(latin3.v, latin3.s, latin3.k, latin3.r))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        assert walk.sample(latin3.cells, rng) is None
        assert sample_move_by_scans(latin3.cells, twin) is None
        assert rng.bit_generator.state == twin.bit_generator.state


#: (design sha256, repr(objective), sha256 of repr(trace), restart of best),
#: recorded from the exhaustive hill climb before screening existed; any
#: change of trajectory changes one of them.
_GOLDEN = {
    "hillclimb-12x8": ((12, 8, 3), dict(seed=7, restarts=3), (
        "6a558ef4b564be00591fd284e7167ddc35c315be254c7a038cbde875cba120e9", "0.5630003552573969",
        "8bdd68eec57b6a0e9e9be63bee857d75235453a4baa8d39ee0c452248fdf237a", 2)),
    "anneal-12x8": ((12, 8, 3), dict(seed=7, strategy="anneal", restarts=3, max_iters=2000), (
        "4552916ff76a53b8c91d05db632a9692996ec8d6eac6f3d37085be7836ab95eb", "0.5739130434782609",
        "b70c56e29ed6a7da3c0f5ae0296078817b6bd23576eeb9606afd6415731221a8", 0)),
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


#: Anneal on ``e_aug``: (design sha256, restart of best, objective, trace),
#: recorded before the anneal scored candidates on a maintained inverse.  The
#: values now come by another numerical route, so they are held within 1e-12
#: and the rest exactly.  Small symmetric sizes such as (12,8,3) get no row:
#: there some candidates tie the current value exactly, and rounding decides
#: whether ``rng.random()`` is drawn, so their seeded trajectories may differ.
_GOLDEN_ANNEAL_E_AUG = {
    "anneal-e_aug-24x16": ((24, 16, 5), dict(seed=3, restarts=2, max_iters=2000), (
        "8dbe099730142a418aeb9edc64daca2f78e9ef643116cce941b59134261d0b44", 1,
        0.5943363823797876,
        ((0, 0.5834719168631654), (1, 0.5849285900444301), (7, 0.5850440073437293),
         (8, 0.588193555354867), (9, 0.5889826681275822), (26, 0.5895320237704852),
         (32, 0.5901446995669866), (33, 0.590524290408136), (34, 0.590808501477842),
         (37, 0.5913775123626758), (71, 0.5914874387310368), (149, 0.5920544839771473),
         (152, 0.5929481575959887), (157, 0.5933240346271582), (158, 0.5943363823797876)))),
    "anneal-e_aug-48x32": ((48, 32, 6), dict(seed=3, restarts=1, max_iters=300), (
        "1cc60989bcfe1b212129f381e4b3b179baa34ddcd8e33916b1f992b3019960a5", 0,
        0.6495161768374356,
        ((0, 0.6397151138150428), (1, 0.6405389396288836), (2, 0.6408915940089788),
         (3, 0.6427223004147079), (4, 0.6428480521791998), (5, 0.6443795271395645),
         (7, 0.6444203274578345), (8, 0.6447360639520554), (10, 0.6452791301626731),
         (11, 0.6454242168282972), (15, 0.6454320486171362), (17, 0.6455124680307683),
         (28, 0.6460332800053261), (29, 0.6461768746588538), (35, 0.6465785481465501),
         (36, 0.6467328340762478), (37, 0.647182411364802), (38, 0.6475838932263033),
         (42, 0.6478794192327704), (43, 0.6480987066423073), (49, 0.6481104020755559),
         (50, 0.6482115088060801), (63, 0.6484664557921149), (64, 0.6487968635360636),
         (67, 0.6488281063631004), (68, 0.6489227114294234), (69, 0.6489530772121176),
         (70, 0.6489902235489434), (71, 0.6489952005677947), (72, 0.6490878666097727),
         (74, 0.6491843614696493), (79, 0.6494012394301719), (83, 0.6495161768374356)))),
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
