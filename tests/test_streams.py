import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import on_empty_memo, trial_setup, zero_worker
from letcc import sim, streams
from letcc.coding import Dataset
from letcc.points import InterpolationGrid, chebyshev_grid
from letcc.sim import make_worker, monte_carlo, run_trial
from letcc.streams import trial_rng

DATA, STRAGGLERS, NOISE = streams._DATA, streams._STRAGGLERS, streams._NOISE

# each stream's draw of one trial on its own generator, as numpy draws it;
# the stragglers' is the survivors of choice's set
_REFERENCE = {
    DATA: lambda rng, setup: rng.uniform(-1.0, 1.0, (setup.grid.k, setup.func.in_dim)),
    STRAGGLERS: lambda rng, setup: np.setdiff1d(np.arange(setup.stragglers.n), rng.choice(
        setup.stragglers.n, setup.stragglers.s, replace=False)),
    NOISE: lambda rng, setup: rng.standard_normal((setup.stragglers.n - setup.stragglers.s,
                                                   setup.func.out_dim)),
}
ALL = (DATA, STRAGGLERS, NOISE)


def _seeds(master, trials, first=0):
    return [(master, t) for t in range(first, first + trials)]


# case: (setup keywords, the chunk's seeds, the streams drawn, straggler sets
# Floyd's vectorised draws refuse, None where they never run).  A chunk of
# _VECTOR_DRAWS trials or more is seeded and drawn vectorised, a smaller one
# on trial_rng.
BELOW, AT, ABOVE = (streams._VECTOR_DRAWS + step for step in (-1, 0, 1))
_CASES = {
    "one trial": (dict(sigma0=0.1), _seeds(9, 1), ALL, 0),
    "below the vectorised draws": (dict(sigma0=0.1), _seeds(9, BELOW), ALL, 0),
    "at the vectorised draws": (dict(sigma0=0.1), _seeds(9, AT), ALL, 0),
    "entropy past 2**32": (dict(sigma0=0.1), _seeds(2**64 + 5, AT), ALL, 0),
    "entropy past 2**32, one trial": (dict(sigma0=0.1), _seeds(2**64 + 5, 1), ALL, 0),
    # 2 trials of 3 words and the rest of 4, each group seeded by the vectorised pass
    # where the chunk is drawn vectorised
    "two entropy widths": (dict(sigma0=0.1), _seeds(3, AT, 2**32 - 2), ALL, 0),
    "data and stragglers on one output count": (dict(k=4, s=8, sigma0=0.1), _seeds(9, AT), ALL,
                                                0),
    "d = 4 inputs and m = 3 outputs": (dict(k=6, func=make_worker("tanh_net"), sigma0=0.1),
                                       _seeds(17, ABOVE), ALL, 0),
    "no stragglers": (dict(s=0), _seeds(21, AT), (DATA, STRAGGLERS), 0),
    # trial 5 of master seed 144 draws a word Lemire's method rejects
    "Lemire rejection": (dict(k=4, n=10000, s=200), _seeds(144, AT, 5), (DATA, STRAGGLERS), 1),
    "Floyd at N = 10000, S > N // 50": (dict(k=4, n=10000, s=201), _seeds(21, AT),
                                        (DATA, STRAGGLERS), 0),
    "N past 10000, small S": (dict(k=4, n=20000, s=400), _seeds(21, AT), (DATA, STRAGGLERS), 0),
    "tail shuffle": (dict(k=4, n=10001, s=201, sigma0=0.1), _seeds(21, AT), ALL, None),
    # numpy's branch boundary: Floyd up to N = 10000, or S <= N // 50
    **{f"Floyd at N = {n}, S = {s}": (dict(k=4, n=n, s=s), _seeds(13, AT), (DATA, STRAGGLERS), 0)
       for n, s in ((10000, 199), (10001, 199), (10001, 200), (24, 1), (24, 23))},
    "fixed mode": (dict(sigma0=0.1, fixed_stragglers=(0, 7, 8, 22)),
                   _seeds(9, AT), (DATA, NOISE), None),
    "sigma0 = 0": (dict(), _seeds(9, AT), (DATA, STRAGGLERS), 0),
    "identity data, fixed mode, sigma0 = 0": (dict(s=2, fixed_stragglers=(3, 17),
                                                   data_rule="identity"), _seeds(9, AT), (), None),
}


@pytest.mark.parametrize("vector_draws", [None, 1, 10**9])  # or every chunk, or none, vectorised
@pytest.mark.parametrize("case", list(_CASES))
def test_chunk_draws_equal_numpys(case, vector_draws, monkeypatch):
    if vector_draws is not None:
        monkeypatch.setattr(streams, "_VECTOR_DRAWS", vector_draws)
    kw, seeds, tags, refusals = _CASES[case]
    seeded, built, counts, refused, rngs = [], [], [], [], []
    states, pcg64, outputs, floyd, reference = (streams._stream_states, np.random.PCG64,
                                                streams._pcg64_outputs, streams._floyd_sets,
                                                streams.trial_rng)
    monkeypatch.setattr(streams, "_stream_states", lambda rows: seeded.extend(rows) or states(rows))
    monkeypatch.setattr(np.random, "PCG64", lambda *a: built.append(a) or pcg64(*a))
    monkeypatch.setattr(streams, "_pcg64_outputs", lambda rows, count: (
        counts.append(count) or outputs(rows, count)))
    monkeypatch.setattr(streams, "trial_rng", lambda seed, tag: (
        rngs.append(seed + (tag,)) or reference(seed, tag)))

    def refusing(words, n, s):
        sets, drawn = floyd(words, n, s)
        refused.append(int((~drawn).sum()))
        return sets, drawn

    monkeypatch.setattr(streams, "_floyd_sets", refusing)
    setup = trial_setup(**{"k": 5, "n": 23, "s": 4} | kw)
    draws = streams._chunk_draws(setup, seeds)
    assert set(draws) == set(tags)
    for tag in tags:
        for seed, got in zip(seeds, draws[tag], strict=True):
            want = _REFERENCE[tag](trial_rng(seed, tag), setup)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if tag == STRAGGLERS:  # the public one-trial draw is the chunk's row
                one = sim.sample_stragglers(setup.stragglers, trial_rng(seed, STRAGGLERS))
                assert (one.dtype, one.shape, one.tobytes()) == (got.dtype, got.shape,
                                                                 got.tobytes())
    # only the streams drawn are drawn on: a small chunk's on trial_rng, a
    # larger one's seeded by the vectorised pass, one generator serving
    # them all, and drawn vectorised, one pass per count
    rows = sorted(seed + (tag,) for seed in seeds for tag in tags)
    vectorised = len(seeds) >= streams._VECTOR_DRAWS
    assert (sorted(seeded), sorted(rngs)) == ((rows, []) if vectorised else ([], rows))
    assert len(built) == (1 if tags and vectorised else 0)
    assert len(counts) == len(set(counts))
    assert bool(counts) == (vectorised and bool(set(tags) - {NOISE}))
    assert refused == ([] if refusals is None or not vectorised else [refusals])
    if setup.stragglers.fixed_stragglers is not None:  # every trial stacks the fixed survivors
        fixed = sim.sample_stragglers(setup.stragglers, None)
        for row in next(sim._prepare(setup, seeds)).indices:
            assert (row.dtype, row.shape, row.tobytes()) == (fixed.dtype, fixed.shape,
                                                             fixed.tobytes())


@pytest.mark.parametrize("n, s", [(10001, 201), (2**32, 1), (2**40, 3)])
def test_no_vectorised_sets_where_choice_shuffles_or_reads_wide_words(n, s):
    assert streams._STREAMS[STRAGGLERS].count(n, s) is None


def test_negative_entropy_raises_as_trial_rng():
    # a seed entry from outside is refused by the seed rule, naming the
    # seed; an internal entropy row, by the seeder, as numpy refuses it
    with pytest.raises(ValueError) as reference:
        trial_rng((5, -1), 101)
    assert str(reference.value) == "seed must be a nonnegative integer, got -1"
    with pytest.raises(ValueError) as got:
        monte_carlo(trial_setup(), 2, (5, -1))
    assert str(got.value) == str(reference.value)
    with pytest.raises(ValueError) as numpy_refusal:
        np.random.default_rng([5, -1, 101])
    with pytest.raises(ValueError) as got:
        streams._stream_states([(7, 0, 303), (5, -1, 101)])
    assert str(got.value) == str(numpy_refusal.value)


def _counted_draws(monkeypatch) -> tuple[list, list]:
    """The trial counts of every chunk asked for draws, and of every one drawn afresh."""
    asked, drawn = [], []
    chunk_draws, fresh_draws = streams._chunk_draws, streams._fresh_draws
    monkeypatch.setattr(streams, "_chunk_draws", lambda setup, chunk: (
        asked.append(len(chunk)) or chunk_draws(setup, chunk)))
    monkeypatch.setattr(streams, "_fresh_draws", lambda streams_drawn, chunk: (
        drawn.append(len(chunk)) or fresh_draws(streams_drawn, chunk)))
    return asked, drawn


class TestDrawMemo:
    # the draws of the chunk drawn last are kept, and a chunk on a
    # contiguous run of its seeds drawing the same streams takes their slices

    @pytest.mark.parametrize("sigma0", [0.0, 0.1])
    def test_schemes_in_turn_equal_each_on_an_empty_memo(self, sigma0, monkeypatch):
        asked, drawn = _counted_draws(monkeypatch)
        setups = [trial_setup(scheme, k=8, n=64, s=8, sigma0=sigma0, lambda_d=64.0 ** -4,
                              func=make_worker("cubic")) for scheme in sim.SCHEMES]
        paired = [monte_carlo(setup, 50, 5) for setup in setups]
        # letcc draws its one chunk of 50; bacc's chunk and lcc's 25 + 25 are its slices
        assert asked == [50, 50, 25, 25] and drawn == [50]
        inside = [run_trial(setup, (5, 30)) for setup in setups]
        assert drawn == [50]
        prefix = monte_carlo(setups[2], 20, 5)
        assert drawn == [50]
        outside = [run_trial(setup, (5, 50)) for setup in setups]
        assert drawn == [50, 1]
        for setup, agg, trial, late in zip(setups, paired, inside, outside, strict=True):
            assert agg.columns == on_empty_memo(monte_carlo, setup, 50, 5).columns
            assert trial == agg.metrics[30] == on_empty_memo(run_trial, setup, (5, 30))
            assert late == on_empty_memo(run_trial, setup, (5, 50))
        assert prefix.columns == on_empty_memo(monte_carlo, setups[2], 20, 5).columns

    def test_runs_that_are_not_contiguous_in_the_stored_seeds_miss(self, monkeypatch):
        asked, drawn = _counted_draws(monkeypatch)
        setup = trial_setup(k=5, n=23, s=4, sigma0=0.1)
        monte_carlo(setup, 10, 3)
        chunk, = sim._prepare(setup, [(3, 2), (3, 4)])
        later, = sim._prepare(setup, [(3, 9), (3, 10)])
        assert drawn == [10, 2, 2]
        for got, seeds in ((chunk, [(3, 2), (3, 4)]), (later, [(3, 9), (3, 10)])):
            want, = on_empty_memo(list, sim._prepare(setup, seeds))
            assert np.array_equal(got.outputs, want.outputs)
            assert np.array_equal(got.truth, want.truth)

    @pytest.mark.parametrize("first, second, drawn", [
        (dict(s=4), dict(s=5), [9, 9]),
        (dict(s=2), dict(s=2, fixed_stragglers=(0, 7)), [9, 9]),
        (dict(func=make_worker("tanh_net", d=2, m=2)),
         dict(func=make_worker("tanh_net", d=3, m=2)), [9, 9]),
        (dict(func=make_worker("tanh_net", d=2, m=2)),
         dict(func=make_worker("tanh_net", d=2, m=3)), [9, 9]),
        (dict(sigma0=0.0), dict(sigma0=0.1), [9, 9]),
        (dict(sigma0=0.1), dict(sigma0=0.0), [9, 9]),
        (dict(data_rule="uniform"), dict(data_rule="identity"), [9, 9]),
        (dict(data=Dataset(np.linspace(-0.5, 0.5, 6)[:, None])), dict(data_rule="uniform"),
         [9, 9]),
        # what is not drawn does not key the draws: a fixed set, given inputs
        (dict(s=2, fixed_stragglers=(0, 7)),
         dict(s=2, fixed_stragglers=(1, 7)), [9]),
        (dict(data=Dataset(np.linspace(-0.5, 0.5, 6)[:, None])),
         dict(data=Dataset(np.linspace(-0.5, 0.6, 6)[:, None])), [9]),
    ])
    @pytest.mark.parametrize("scheme", ["letcc", "bacc"])
    def test_each_drawn_key_field_misses_when_it_changes(self, scheme, first, second, drawn,
                                                         monkeypatch):
        _, fresh = _counted_draws(monkeypatch)
        setups = [trial_setup(scheme, k=6, n=23, **({"sigma0": 0.1} | kw))
                  for kw in (first, second)]
        monte_carlo(setups[0], 9, 4)
        agg = monte_carlo(setups[1], 9, 4)
        assert fresh == drawn
        assert agg.columns == on_empty_memo(monte_carlo, setups[1], 9, 4).columns

    def test_identity_data_on_grids_of_other_alphas_hits(self, monkeypatch):
        # identity inputs are not drawn: the grids' calls share their draws
        _, drawn = _counted_draws(monkeypatch)
        betas = chebyshev_grid(6, 23).betas
        grids = [chebyshev_grid(6, 23), InterpolationGrid(np.linspace(-0.9, 0.9, 6), betas),
                 InterpolationGrid(np.linspace(-0.9, 0.9, 6), betas)]
        setups = [replace(trial_setup(k=6, n=23, sigma0=0.1, data_rule="identity"), grid=grid)
                  for grid in grids]
        aggs = [monte_carlo(setup, 9, 4) for setup in setups]
        assert drawn == [9]
        for setup, agg in zip(setups, aggs):
            assert agg.columns == on_empty_memo(monte_carlo, setup, 9, 4).columns

    def test_stored_and_sliced_draws_are_read_only(self):
        setup = trial_setup(k=5, n=23, s=4, sigma0=0.1)
        seeds = [(6, t) for t in range(9)]
        drawn = streams._chunk_draws(setup, seeds)
        sliced = streams._chunk_draws(setup, seeds[3:7])
        stored = streams._last_draws[3]
        assert set(drawn) == set(sliced) == set(stored) == {DATA, STRAGGLERS, NOISE}
        for arrays in (drawn, sliced, stored):
            for array in arrays.values():
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        for tag, whole in drawn.items():
            assert np.shares_memory(whole, sliced[tag])
            assert np.array_equal(whole[3:7], sliced[tag])

    def test_noise_levels_on_one_entry_scale_the_same_normals(self, monkeypatch):
        _, drawn = _counted_draws(monkeypatch)
        seeds = [(4, t) for t in range(9)]
        chunks = [next(sim._prepare(trial_setup(k=5, n=23, s=4, sigma0=sigma0,
                                                func=zero_worker(2)), seeds))
                  for sigma0 in (0.1, 0.3)]
        assert drawn == [9]
        normals = streams._last_draws[3][NOISE]
        for sigma0, chunk in zip((0.1, 0.3), chunks):
            assert chunk.outputs.tobytes() == (normals * sigma0 + 0.0).tobytes()
            for seed, outputs in zip(seeds, chunk.outputs):
                noise = trial_rng(seed, NOISE).normal(0.0, sigma0, (19, 2))
                assert outputs.tobytes() == noise.tobytes()

    def test_memo_holds_one_chunk(self, monkeypatch):
        # 50 lcc trials at K = 8, N = 64 run as 25 + 25: the slot keeps the
        # second, and only what it drew
        _, drawn = _counted_draws(monkeypatch)
        setup = trial_setup("lcc", k=8, n=64, s=8, sigma0=0.1, func=make_worker("cubic"))
        monte_carlo(setup, 50, 2)
        assert drawn == [25, 25]
        key, _, seeds, draws = streams._last_draws
        assert key == {DATA: (8, 1), STRAGGLERS: (64, 8), NOISE: (56, 1)}
        assert seeds == [(2, t) for t in range(25, 50)]
        assert {tag: stack.shape for tag, stack in draws.items()} == {
            DATA: (25, 8, 1), STRAGGLERS: (25, 56), NOISE: (25, 56, 1)}

    def test_a_chunk_that_draws_nothing_leaves_the_slot(self, monkeypatch):
        _, drawn = _counted_draws(monkeypatch)
        setup = trial_setup(k=5, n=23, s=4, sigma0=0.1)
        monte_carlo(setup, 9, 4)
        quiet = trial_setup(k=5, n=23, s=2, fixed_stragglers=(3, 17),
                            data_rule="identity")
        assert streams._chunk_draws(quiet, [(4, t) for t in range(9)]) == {}
        monte_carlo(setup, 9, 4)
        assert drawn == [9]

    def test_threads_sharing_the_slot_get_their_own_draws(self):
        # calls of two draw keys and two seeds in turn, on more threads than
        # cores, each equal to its call on an empty memo
        setups = [trial_setup(scheme, k=6, n=23, s=s, sigma0=0.1, func=make_worker("cubic"))
                  for scheme in ("letcc", "lcc") for s in (3, 4)]
        calls = [(setup, seed) for setup in setups for seed in (1, 2)]
        want = [on_empty_memo(monte_carlo, setup, 9, seed).columns for setup, seed in calls]
        wrong, switch = [], sys.getswitchinterval()

        def work(offset):
            for i in range(3 * len(calls)):
                j = (i + offset) % len(calls)
                if monte_carlo(calls[j][0], 9, calls[j][1]).columns != want[j]:
                    wrong.append(j)

        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
