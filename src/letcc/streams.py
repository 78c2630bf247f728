"""Counter-based random streams: every random draw of the Monte-Carlo harness.

Randomness is organized as counter-based streams, in the style of Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011): every
trial derives its generators from ``(master_seed, trial_index,
stream_tag)``, so two schemes given the same seeds see identical straggler
sets, data draws, and noise.  :func:`trial_rng` builds one such generator,
the reference of every draw here.  One table, :data:`_STREAMS`, has a
row of four fields for each stream tag: when a trial draws on it, how
many 64-bit outputs its vectorised draw reads, that draw, and a function
that returns the draw of one trial on its own generator.  A stream a
trial does not use (noise at sigma0 = 0, fixed stragglers, data when it
is given or ``identity``) is never seeded.

:func:`_chunk_draws` draws the streams of a chunk of trials.  A chunk of
fewer than ``_VECTOR_DRAWS`` trials draws each stream of each trial on
:func:`trial_rng` itself.  A larger one computes the states of all its
streams in one vectorised pass (numpy's SeedSequence mixing in uint32
arrays, PCG64's seeding step on the 64-bit halves of its 128-bit state),
as one (rows, 4) uint64 array, and takes its data and straggler draws
from vectorised passes, one per output count: PCG64's first outputs of
every such stream by jump-ahead, turned into what ``Generator.uniform``
and the Floyd sampling of ``Generator.choice`` give on them.  What stays
per trial there is the noise's ``standard_normal`` and any draw the pass
does not reproduce, each returned by the row on the trial's stream,
loaded into one reused generator, and stacked.  A chunk's draws depend
on no scheme, so the draws of the chunk drawn last stay in a one-slot
memo: a chunk with the same draws whose seeds are a contiguous run of
the kept ones takes their slices, as when letcc, bacc and lcc run in
turn on one master seed, and any other chunk draws afresh and takes the
slot.  The kept arrays are read-only, and what stays in memory after a
call is one chunk's draws.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .points import _seed

__all__ = ["trial_rng"]

# Stream tags for per-trial substreams (arbitrary but fixed).
_STRAGGLERS = 101
_NOISE = 202
_DATA = 303


def trial_rng(seed, stream: int) -> np.random.Generator:
    """Generator for one substream of one trial.

    ``seed`` may be an int or a sequence of ints (e.g. (master, trial)),
    checked by :func:`_entropy`.  A small chunk draws on it; a larger one
    computes the same states (:func:`_stream_states`) and draws from them
    vectorised or on a reused generator, with this as their reference.
    """
    return np.random.default_rng([*_entropy(seed), stream])


def _entropy(seed) -> tuple[int, ...]:
    """``seed``, an int or a sequence of ints, as a tuple of ints.

    Each entry takes the seed rule :func:`letcc.points._seed`, named
    ``seed``, which refuses a negative one.
    """
    entries = seed if isinstance(seed, (tuple, list)) else np.atleast_1d(seed).tolist()
    return tuple(_seed(s, "seed") for s in entries)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
# A chunk of _VECTOR_DRAWS trials or more seeds its streams and draws its
# data and stragglers vectorised; a smaller one draws every stream through
# trial_rng, below the fixed cost of the vectorised passes.  That is the
# break-even: timing a chunk's draws of three streams at K = 8 or 16, N =
# 64, 256 or 1024 and S = N / 8 (alternating, medians of 60 paired rounds,
# Python 3.11, numpy 2.4, a shared 2-core box), the vectorised draws take
# 3.2-4.1 times trial_rng's time at 1 trial, 1.04-1.30 at 4, 0.87-1.12 at
# 5, 0.77-1.01 at 6 and 0.69-0.92 at 7.
_VECTOR_DRAWS = 6
# the state of the reused generator is replaced before every draw
_ANY_SEED = np.random.SeedSequence(0)


@cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants at steps 0 to count, init * mult**i mod 2**32.

    One per row, shaped (count + 1, 1) to scale the rows of a word-major pool.
    Built once per count, so once per entropy width for the pool mixing.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
# the pool words each word is mixed into, that word repeated for them, and
# the pool words generate_state(4, uint64) reads in turn
_MIX_DST = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]
_MIX_SRC = [np.full(_POOL_SIZE - 1, s) for s in range(_POOL_SIZE)]
_STATE_WORDS = np.tile(np.arange(_POOL_SIZE), 2)


def _hashmix(values: np.ndarray, consts: np.ndarray, step: int) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values``, row i at step + i."""
    out = values ^ consts[step:step + len(values)]
    out *= consts[step + 1:step + len(values) + 1]
    out ^= out >> np.uint32(16)
    return out


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed and increment words of ``default_rng(row)`` for each row.

    ``entropy`` is (R, w) uint32, the words of R entropy rows of one length
    w.  SeedSequence's pool mixing and ``generate_state(4, uint64)`` run on
    all rows at once, on a word-major (4, R) pool: their hash constants
    depend on the step only, not on the data.  Gives (R, 4) uint64 rows of
    (seed high, seed low, inc high, inc low).
    """
    rows, width = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * width)
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:width] = entropy[:, :_POOL_SIZE].T
    pool = _hashmix(pool, consts, 0)
    step = _POOL_SIZE
    for dst, src in zip(_MIX_DST, _MIX_SRC):  # every pool word into every other one
        mixed = pool[dst]
        mixed *= _MIX_MULT_L
        mixed -= _hashmix(pool[src], consts, step) * _MIX_MULT_R
        mixed ^= mixed >> np.uint32(16)
        pool[dst] = mixed
        step += len(dst)
    for word in entropy.T[_POOL_SIZE:]:  # entropy beyond the pool into every word
        pool *= _MIX_MULT_L
        pool -= _hashmix(np.broadcast_to(word, pool.shape), consts, step) * _MIX_MULT_R
        pool ^= pool >> np.uint32(16)
        step += _POOL_SIZE
    words = _hashmix(pool[_STATE_WORDS], _CONSTS_B, 0).astype(np.uint64)
    return (words[0::2] | words[1::2] << np.uint64(32)).T


def _words(row: tuple[int, ...]) -> list[int]:
    """The uint32 words SeedSequence takes an entropy row of ints as."""
    words = []
    for value in row:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


# 128-bit integers mod 2**128 as uint64 (high, low) halves, elementwise
_MASK64 = 2**64 - 1
_U1, _U11, _U32, _U58, _U63 = (np.uint64(b) for b in (1, 11, 32, 58, 63))
_LOW32 = np.uint64(_MASK32)
_PCG64_MULT_HALVES = (np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64))


def _add128(a_hi, a_lo, b_hi, b_lo):
    low = a_lo + b_lo
    high = a_hi + b_hi
    high += low < a_lo
    return high, low


def _mul128(a_hi, a_lo, b_hi, b_lo):
    # the low halves' 128-bit product from 32-bit limbs, then the cross terms
    a0, a1, b0, b1 = a_lo & _LOW32, a_lo >> _U32, b_lo & _LOW32, b_lo >> _U32
    middle, cross = a0 * b1, a1 * b0
    middle += cross
    low, shifted = a0 * b0, middle << _U32
    low += shifted
    high = a1 * b1
    high += middle >> _U32
    high += (middle < cross).astype(np.uint64) << _U32
    high += low < shifted
    high += a_lo * b_hi
    high += a_hi * b_lo
    return high, low


def _stream_states(rows: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The PCG64 state of ``default_rng(row)`` for each entropy row, in order.

    Gives (R, 4) uint64 rows of (state high, state low, increment high,
    increment low).  SeedSequence's mixing runs vectorised over all rows
    of one word count in uint32 numpy and PCG64's seeding step on their
    64-bit halves.  A row that ``trial_rng`` refuses raises its error.
    """
    states = np.empty((len(rows), 4), dtype=np.uint64)
    for index, words in _word_groups(rows):
        seed_hi, seed_lo, inc_hi, inc_lo = _seed_words(words).T
        # inc = 2 * inc + 1; from state 0: one step, add the seed, one more step
        inc = (inc_hi << _U1 | inc_lo >> _U63, inc_lo << _U1 | _U1)
        state = _add128(*_mul128(*_add128(*inc, seed_hi, seed_lo), *_PCG64_MULT_HALVES), *inc)
        states[index] = np.stack([*state, *inc], axis=1)
    return states


def _word_groups(rows: Sequence[tuple[int, ...]]) -> list[tuple[Sequence[int], np.ndarray]]:
    """The rows of each word count, as (row positions, (R, w) uint32 words) pairs.

    Rows of one length whose entries are all ints in [0, 2**32), the rows
    of a chunk, are one word per entry and read through one array.
    """
    if len(set(map(len, rows))) == 1:
        entries = np.array(rows)
        if entries.dtype.kind in "iu":
            words = entries.astype(np.uint32)
            if (words == entries).all():
                return [(range(len(rows)), words)]
    words = [_words(row) for row in rows]
    widths = {}
    for i, row_words in enumerate(words):
        widths.setdefault(len(row_words), []).append(i)
    return [(index, np.array([words[i] for i in index], dtype=np.uint32))
            for index in widths.values()]


@cache
def _jumps(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Halves of M**j and sum_{i<j} M**i mod 2**128, M PCG64's multiplier, j = 1 to count.

    After j steps the LCG is at state * M**j + inc * sum_{i<j} M**i.  Gives
    the high and the low halves, each (2, 1, count): the two factors' rows.
    """
    scales, shifts = [1], [0]
    for _ in range(count):
        scales.append(scales[-1] * _PCG64_MULT & _MASK128)
        shifts.append((shifts[-1] * _PCG64_MULT + 1) & _MASK128)
    factors = np.array([scales[1:], shifts[1:]], dtype=object)[:, None, :]
    return (factors >> 64).astype(np.uint64), (factors & _MASK64).astype(np.uint64)


def _pcg64_outputs(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs of each fresh PCG64 of ``states``, (R, count).

    ``states`` are rows of :func:`_stream_states`.  Output j is PCG64's
    XSL-RR output of the state after j + 1 steps, each reached by one jump
    from the start.  The harness's bound on a chunk's values bounds R x
    count too.
    """
    # (state, inc) x (high, low) x rows x 1, times (scale, shift)
    factors = np.ascontiguousarray(states.T).reshape(2, 2, -1, 1)
    high, low = _mul128(factors[:, 0], factors[:, 1], *_jumps(count))
    high, low = _add128(high[0], low[0], high[1], low[1])
    low ^= high  # XSL-RR: the halves' xor rotated right by the top 6 bits
    high >>= _U58
    return low >> high | low << (-high & _U63)


def _floyd_sets(words: np.ndarray, n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The straggler sets ``choice(n, s, replace=False)`` draws from ``words``, (T, s).

    ``words`` (T, s) are the first s 32-bit words of each trial's stream,
    in the order numpy reads them, one for each of Floyd's draws.  Floyd's
    step i draws v_i on [0, j_i], j_i = n - s + i, by Lemire's method, and
    adds v_i to the set, or j_i if v_i is in it already: after an earlier
    equal v, or after j_k, k < i, was added for v_k.  So the set is every
    v_i, plus j_i wherever v_i repeats an earlier v or equals a j_k so
    added.  Also gives (T,) whether each trial's draws were taken as
    drawn: False where Lemire's method would reject a word and draw again,
    a set the caller draws by ``choice`` instead.  Only the set agrees
    with ``choice``, whose order is shuffled.
    """
    trials = len(words)
    tops = np.arange(n - s, n)
    bounds = tops.astype(np.uint64) + _U1
    scaled = words * bounds
    drawn = ~((scaled & _LOW32) < np.uint64(2**32) % bounds).any(axis=1)
    values = (scaled >> _U32).astype(int)
    rows = np.arange(trials)[:, None]
    order = np.argsort(values, axis=1, kind="stable")
    ordered = values[rows, order]
    repeat = np.zeros((trials, s), dtype=bool)
    repeat[rows, order[:, 1:]] = ordered[:, 1:] == ordered[:, :-1]
    # v_i = j_k for an earlier k: taken if j_k was, resolved to a fixed point
    step = values - (n - s)
    earlier = (step >= 0) & (step < np.arange(s))
    step[~earlier] = 0
    taken = repeat
    while True:
        grown = repeat | earlier & taken[rows, step]
        if np.array_equal(grown, taken):
            return np.where(taken, tops, values), drawn
        taken = grown


def _uniform_inputs(outputs: np.ndarray, k: int, d: int) -> tuple[np.ndarray, Sequence[int]]:
    """What ``Generator.uniform(-1.0, 1.0, (k, d))`` makes of each trial's outputs.

    Each output u gives -1 + 2 * (u >> 11) * 2**-53; no trial is left over.
    """
    return (-1.0 + 2.0 * ((outputs >> _U11) * 2.0**-53)).reshape(-1, k, d), ()


def _floyd_survivors(outputs: np.ndarray, n: int, s: int) -> tuple[np.ndarray, Sequence[int]]:
    """The survivors of the :func:`_floyd_sets` of each trial's outputs, and the trials it refuses."""
    words = np.stack([outputs & _LOW32, outputs >> _U32], axis=2)  # low half first
    sets, drawn = _floyd_sets(words.reshape(len(outputs), -1)[:, :s], n, s)
    return _survivors(n, sets), np.flatnonzero(~drawn)


def _survivors(n: int, stragglers: np.ndarray) -> np.ndarray:
    """Sorted survivor indices (T, n - s) of T trials from their (T, s) straggler sets.

    One flat mask over all T trials, row t at offset t * n.
    """
    trials, s = stragglers.shape
    offsets = np.arange(0, trials * n, n)[:, None]
    survivors = np.ones(trials * n, dtype=bool)
    survivors[stragglers + offsets] = False
    return np.flatnonzero(survivors).reshape(trials, n - s) - offsets


class _Stream(NamedTuple):
    """What a trial draws on one stream: a row of :data:`_STREAMS`.

    ``args`` gives a :class:`letcc.sim.TrialSetup`'s arguments of the
    draw, None where its trials draw nothing on the stream.  On those
    arguments ``count`` gives the 64-bit outputs a trial's vectorised draw
    reads, None where the stream has no vectorised draw; ``vectorised``
    turns the (T, count) outputs of T trials into their stacked draws and
    the trials it leaves to ``trial``, which returns the draw of one trial
    on its own generator.
    """

    args: Callable
    count: Callable
    vectorised: Callable | None
    trial: Callable


# A trial's stragglers draw is the sorted survivors of the set
# Generator.choice(n, size=(1, s), replace=False) draws, by Floyd's
# algorithm unless n > 10000 and s > n // 50 (numpy/random/_generator.pyx).
# Up to n = 2**32 - 1 each of its s draws, on [0, j] for 0 < j < 2**32 - 1,
# reads one 32-bit word, two to an output.
_STREAMS = {
    _DATA: _Stream(
        lambda setup: ((setup.grid.k, setup.func.in_dim)
                       if setup.data is None and setup.data_rule == "uniform" else None),
        lambda k, d: k * d,
        _uniform_inputs,
        lambda rng, k, d: rng.uniform(-1.0, 1.0, (k, d))),
    _STRAGGLERS: _Stream(
        lambda setup: ((setup.stragglers.n, setup.stragglers.s)
                       if setup.stragglers.fixed_stragglers is None else None),
        lambda n, s: None if n > 10000 and s > n // 50 or n > 2**32 - 1 else (s + 1) // 2,
        _floyd_survivors,
        lambda rng, n, s: _survivors(n, rng.choice(n, size=(1, s), replace=False))[0]),
    _NOISE: _Stream(
        lambda setup: ((setup.stragglers.n - setup.stragglers.s, setup.func.out_dim)
                       if setup.noise.sigma0 > 0 else None),
        lambda v, m: None,
        None,
        lambda rng, v, m: rng.standard_normal((v, m))),
}


def _loaded(gen: np.random.Generator, state_hi: int, state_lo: int, inc_hi: int,
            inc_lo: int) -> np.random.Generator:
    """``gen``, a PCG64 generator, set to a fresh PCG64 at one row of :func:`_stream_states`."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0, "uinteger": 0}
    return gen


# the draws of the chunk drawn last, which a chunk on a contiguous run of its
# seeds reuses (see _chunk_draws): (each drawn stream's arguments, seed
# positions, seeds, draws), or None
_last_draws = None


def _chunk_draws(setup, chunk: list[tuple[int, ...]]) -> dict[int, np.ndarray]:
    """The random draws of the trials of ``chunk``, read-only, stacked, by stream tag.

    ``setup`` is a :class:`letcc.sim.TrialSetup`; only the streams its
    trials draw on, by :data:`_STREAMS`, have an entry.  The draws of the
    chunk drawn last stay in a one-slot memo, keyed by the streams drawn
    and their arguments: a chunk of an equal key whose seeds are a
    contiguous run of its seeds takes their slices, so schemes run in turn
    on the same seeds draw once, whatever their chunk sizes.  Any other
    chunk is drawn by :func:`_fresh_draws` and replaces the slot; a chunk
    that draws nothing leaves it.
    """
    global _last_draws
    drawn = {tag: args for tag, stream in _STREAMS.items()
             if (args := stream.args(setup)) is not None}
    if not drawn:
        return {}
    memo = _last_draws
    if memo is not None and memo[0] == drawn:
        _, positions, seeds, draws = memo
        start = positions.get(chunk[0])
        if start is not None and seeds[start:start + len(chunk)] == chunk:
            return {tag: stack[start:start + len(chunk)] for tag, stack in draws.items()}
    _last_draws = None  # the slot's arrays may go before the new ones are drawn
    draws = _fresh_draws(drawn, chunk)
    _last_draws = (drawn, {seed: t for t, seed in enumerate(chunk)}, list(chunk), draws)
    return draws


def _fresh_draws(drawn: dict[int, tuple], chunk: list[tuple[int, ...]]) -> dict[int, np.ndarray]:
    """The draws of :func:`_chunk_draws` on each stream of ``drawn``, at its arguments, drawn.

    A chunk of fewer than ``_VECTOR_DRAWS`` trials returns each draw by the
    row's ``trial`` on :func:`trial_rng`, stacked by ``np.array``.  A larger
    one seeds its streams in one vectorised pass, computes the first outputs
    of each stream with a vectorised draw, by :func:`_pcg64_outputs` in one
    pass per output count, and takes its draws from them; every other draw
    (the noise's, one the vectorised draw leaves over) is returned by the
    row's ``trial`` on the trial's stream, loaded just before it into one
    reused generator: into its row of a vectorised stack, or stacked by
    ``np.array``.
    """
    if len(chunk) < _VECTOR_DRAWS:
        draws = {tag: np.array([_STREAMS[tag].trial(trial_rng(seed, tag), *args)
                                for seed in chunk]) for tag, args in drawn.items()}
    else:
        gen = np.random.Generator(np.random.PCG64(_ANY_SEED))
        states = _stream_states([seed + (tag,) for seed in chunk for tag in drawn])
        states = {tag: states[i::len(drawn)] for i, tag in enumerate(drawn)}
        outputs, passes = {}, {}
        for tag, args in drawn.items():  # the streams of one output count take one pass
            if (count := _STREAMS[tag].count(*args)) is not None:
                passes.setdefault(count, []).append(tag)
        for count, tags in passes.items():
            firsts = _pcg64_outputs(np.concatenate([states[tag] for tag in tags]), count)
            outputs.update(zip(tags, np.split(firsts, len(tags))))
        draws = {}
        for tag, args in drawn.items():
            stream, rows = _STREAMS[tag], states[tag].tolist()
            if tag in outputs:
                draws[tag], redo = stream.vectorised(outputs[tag], *args)
                for t in redo:
                    draws[tag][t] = stream.trial(_loaded(gen, *rows[t]), *args)
            else:
                draws[tag] = np.array([stream.trial(_loaded(gen, *row), *args) for row in rows])
    for stack in draws.values():
        stack.flags.writeable = False
    return draws
