"""Monte-Carlo harness: stragglers, worker noise, trials, and metrics.

Randomness is organized as counter-based streams: every trial derives its
generators from ``(master_seed, trial_index, stream_tag)``, so two schemes
given the same seeds see identical straggler sets, data draws, and noise.
A stream a trial does not use (noise at sigma0 = 0, stragglers in
``fixed`` mode, data when it is given or ``identity``) is never seeded.
:func:`trial_rng` builds one such generator; the harness computes the
same states for all streams of many trials in one vectorised pass
(numpy's SeedSequence mixing in uint32 arrays, PCG64's seeding step on
the 64-bit halves of its 128-bit state), as one (rows, 4) uint64 array.

A trial runs in two halves, and the harness runs both on chunks of
trials held as stacked arrays.  The first half, independent of the
decoder weight lambda_d, draws the data, encodes, samples the stragglers
and runs the workers; :func:`monte_carlo_lambdas` prepares all trials of
a call together, in chunks of a bounded number of values.  Each trial
draws on its own streams, and a chunk of enough trials takes its data
and straggler draws from vectorised passes, one per output count:
PCG64's first outputs of every such stream by jump-ahead, turned into
what ``Generator.uniform`` and the Floyd sampling of
``Generator.choice`` give on them.  What stays
per trial is the noise's ``normal``, any draw of a smaller chunk or one
the pass does not reproduce, each on the trial's stream loaded into one
reused generator, and a worker function not declared elementwise,
called once on each of the trial's row sets and never on the rows of
several trials; an elementwise one runs once per row set of the chunk.
Everything else runs once per chunk: the encode (one stacked product
through the grid's cached encoder), the straggler mask, the survivor
gather, the noise add, the finiteness check of survivor outputs, truth
and through-encoder values, and l_enc.  A chunk is (T, N - S) survivor
indices, (T, N - S, m) outputs, (T, K, m) truth and, for letcc, (T, K,
m) through-encoder values and (T,) l_enc.  The second half decodes and scores: those arrays
go straight into each scheme's decode body (``coding._decode_stack``,
letcc's, at every weight of the call; ``baselines._bacc_decode_stack``
and ``_lcc_decode_stack`` at none), which gives stacked estimates, and
each weight's stack is scored into one :class:`TrialColumns` record of
(T,) columns.  A call joins each weight's records into the one that
:func:`aggregate` reads and :class:`MonteCarloResult` keeps: no
per-trial object is built between a decode body and the aggregate.  The
public one-trial :func:`sample_stragglers` and :func:`apply_workers` are
chunks of one of the same draw and workers, and :func:`run_trial` is a
chunk of one decoded through the scheme's public one-trial decode, its
:class:`TrialMetrics` the one row of its columns.
:func:`monte_carlo` is the call at the setup's own lambda_d.  Every step
does the same arithmetic on a trial's values alone as in any batch, so a
trial's metrics are bit-identical whether it runs through
:func:`run_trial` or inside any Monte-Carlo call, at any weights.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from itertools import chain
from math import sqrt
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import baselines, coding
from .coding import CodedBatch, Dataset
from .points import InterpolationGrid, _integer, _integral_indices, _real, _seed

__all__ = [
    "RiskBoundViolation",
    "StragglerModel",
    "NoiseModel",
    "WorkerFunction",
    "WorkerReturns",
    "TrialMetrics",
    "TrialColumns",
    "TrialSetup",
    "MonteCarloResult",
    "sample_stragglers",
    "apply_workers",
    "run_trial",
    "monte_carlo",
    "monte_carlo_lambdas",
    "aggregate",
    "relacc",
    "make_worker",
    "worker_for",
    "WORKER_FUNCTIONS",
    "trial_rng",
    "SCHEMES",
]

SCHEMES = ("letcc", "bacc", "lcc")

# Stream tags for per-trial substreams (arbitrary but fixed).
_STREAM_STRAGGLERS = 101
_STREAM_NOISE = 202
_STREAM_DATA = 303

# Values per trial and decoder weight (N x input dimension coded values;
# N x max(input dimension, K) for bacc, whose batched decode holds (K, N)
# barycentric weights; N x max(input dimension, deg + 1 + output dimension)
# for lcc, whose batched decode factors each trial's augmented Chebyshev
# Vandermonde) prepared and decoded together at most, unless one trial
# alone has more: bounds the memory of a batch.
_CHUNK_VALUES = 2**16


class RiskBoundViolation(ArithmeticError):
    """A letcc trial's risk exceeds its l_dec + l_enc bound.

    The bound holds for every trial in exact arithmetic, so this signals a
    numerical fault, never a property of the data.
    """


def trial_rng(seed, stream: int) -> np.random.Generator:
    """Generator for one substream of one trial.

    ``seed`` may be an int or a sequence of ints (e.g. (master, trial)),
    checked by :func:`_entropy`.  The Monte-Carlo harness computes the
    same states (:func:`_stream_states`) and draws from them vectorised or
    on a reused generator; this is their reference.
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
# A word count needs _VECTOR_ROWS entropy rows for the vectorised seeding
# to beat numpy's own SeedSequence and a Python-int seeding step per row,
# and a chunk _VECTOR_DRAWS trials for its vectorised data and straggler
# draws to beat a state load and a draw per trial.  Each breaks even at
# about that count (10-12 rows and 8 trials at K = 8 or 16 and N = 64 or
# 256, on a 2-core Xeon).
_VECTOR_ROWS = 12
_VECTOR_DRAWS = 8
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
    64-bit halves.  A word count with fewer than ``_VECTOR_ROWS`` rows
    takes numpy's own SeedSequence and the seeding step in Python ints per
    row instead, which costs less than the fixed cost of the vectorised
    pass.  A row that ``trial_rng`` refuses raises its error.
    """
    states = np.empty((len(rows), 4), dtype=np.uint64)
    for index, words in _word_groups(rows):
        if len(words) >= _VECTOR_ROWS:
            seed_hi, seed_lo, inc_hi, inc_lo = _seed_words(words).T
            # inc = 2 * inc + 1; from state 0: one step, add the seed, one more step
            inc = (inc_hi << _U1 | inc_lo >> _U63, inc_lo << _U1 | _U1)
            state = _add128(*_mul128(*_add128(*inc, seed_hi, seed_lo), *_PCG64_MULT_HALVES),
                            *inc)
            states[index] = np.stack([*state, *inc], axis=1)
            continue
        for i, row in zip(index, words):
            seed_hi, seed_lo, inc_hi, inc_lo = (np.random.SeedSequence(row)
                                                .generate_state(4, np.uint64).tolist())
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            states[i] = state >> 64, state & _MASK64, inc >> 64, inc & _MASK64
    return states


def _word_groups(rows: Sequence[tuple[int, ...]]) -> list[tuple[Sequence[int], np.ndarray]]:
    """The rows of each word count, as (row positions, (R, w) uint32 words) pairs.

    At least ``_VECTOR_ROWS`` rows of one length whose entries are all
    ints in [0, 2**32), the rows of a chunk, are one word per entry and
    read through one array.
    """
    if len(rows) >= _VECTOR_ROWS and len(set(map(len, rows))) == 1:
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


def _state_dict(state_hi: int, state_lo: int, inc_hi: int, inc_lo: int) -> dict:
    """``bit_generator.state`` of a fresh PCG64 at one row of :func:`_stream_states`."""
    return {"bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}


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
    from the start, in blocks of at most ``_CHUNK_VALUES`` outputs.
    """
    jump_hi, jump_lo = _jumps(count)
    outputs = np.empty((len(states), count), dtype=np.uint64)
    block = max(1, _CHUNK_VALUES // max(count, 1))
    for start in range(0, len(states), block):
        # (state, inc) x (high, low) x rows x 1, times (scale, shift)
        factors = np.ascontiguousarray(states[start:start + block].T).reshape(2, 2, -1, 1)
        high, low = _mul128(factors[:, 0], factors[:, 1], jump_hi, jump_lo)
        high, low = _add128(high[0], low[0], high[1], low[1])
        low ^= high  # XSL-RR: the halves' xor rotated right by the top 6 bits
        high >>= _U58
        outputs[start:start + block] = low >> high | low << (-high & _U63)
    return outputs


@dataclass(frozen=True)
class StragglerModel:
    """Straggler draw for N workers: at most (exactly) S fail per trial.

    ``uniform`` samples exactly S stragglers uniformly over all C(N, S)
    subsets.  ``fixed`` erases the same declared index set every trial,
    which pairs schemes against identical failure patterns; only ``fixed``
    mode takes them, exactly S distinct ones.  N, S and these indices are
    integers, or integral floats kept as ints, never booleans, and S and
    the indices lie in [0, N): :func:`letcc.points._integral_indices`.
    """

    n: int
    s: int
    mode: str = "uniform"
    fixed_stragglers: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "StragglerModel n"))
        object.__setattr__(self, "s", _integer(self.s, "StragglerModel s", self.n))
        if self.mode not in ("uniform", "fixed"):
            raise ValueError(f"unknown straggler mode {self.mode!r}")
        if self.mode != "fixed" and self.fixed_stragglers is not None:
            raise ValueError(f"fixed_stragglers given for mode {self.mode!r}; "
                             "only mode 'fixed' uses them")
        if self.mode == "fixed":
            if self.fixed_stragglers is None:
                raise ValueError("fixed mode requires fixed_stragglers")
            idx = tuple(sorted(_integral_indices(self.fixed_stragglers,
                                                 "straggler index", self.n).tolist()))
            if len(set(idx)) != len(idx):
                raise ValueError("fixed_stragglers contains duplicates")
            if len(idx) != self.s:
                raise ValueError("fixed_stragglers size must equal S")
            object.__setattr__(self, "fixed_stragglers", idx)


def sample_stragglers(model: StragglerModel, rng: np.random.Generator | None) -> np.ndarray:
    """Sorted survivor indices for one trial.

    ``rng`` is not used, and may be None, in ``fixed`` mode.  A batch of
    one trial of the harness's chunk draw.
    """
    return _survivor_stack(model, [rng])[0]


def _survivor_stack(model: StragglerModel, rngs: Sequence,
                    words: np.ndarray | None = None) -> np.ndarray:
    """Sorted survivor indices of T trials, (T, N - S).

    ``rngs[t]`` is trial t's stragglers stream, ready for its draw (None in
    ``fixed`` mode, where none is used).  Each trial draws its S
    stragglers on its own stream: ``Generator.choice(N, S,
    replace=False)``, or, given ``words`` (T, w), the first w 32-bit words
    of every trial's stream, the same sets from those words by
    :func:`_floyd_sets`, a trial whose draw there would reject taking
    ``choice``.  One mask over all T trials turns them into survivors.
    """
    trials = len(rngs)
    if model.mode == "fixed":
        stragglers = np.array([model.fixed_stragglers] * trials, dtype=int)
    else:
        redo = range(trials)
        if words is not None:
            stragglers, drawn = _floyd_sets(words, model.n, model.s)
            redo = np.flatnonzero(~drawn)
        else:
            stragglers = np.empty((trials, model.s), dtype=int)
        for t in redo:
            stragglers[t] = rngs[t].choice(model.n, size=model.s, replace=False)
    survivors = np.ones((trials, model.n), dtype=bool)
    survivors[np.arange(trials)[:, None], stragglers] = False
    return np.nonzero(survivors)[1].reshape(trials, model.n - model.s)


# Generator.choice(n, s, replace=False) draws by Floyd's algorithm unless
# n > 10000 and s > n // 50 (numpy/random/_generator.pyx); up to n = 2**32 - 1
# each of its draws, on [0, j] for j < 2**32 - 1, takes one 32-bit word
_FLOYD_MAX_N = 10000
_FLOYD_CUTOFF = 50
_LEMIRE_MAX_N = 2**32 - 1


def _floyd_words(n: int, s: int) -> int | None:
    """The 32-bit words ``choice(n, s, replace=False)`` reads by Floyd's draws, else None.

    None where numpy shuffles instead, or where a draw takes 64-bit words.
    Floyd draws on [0, j] for j = n - s to n - 1; j = 0 takes no word.
    """
    if (n > _FLOYD_MAX_N and s > n // _FLOYD_CUTOFF) or n > _LEMIRE_MAX_N:
        return None
    return s - (n == s > 0)


def _floyd_sets(words: np.ndarray, n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The straggler sets ``choice(n, s, replace=False)`` draws from ``words``, (T, s).

    ``words`` (T, w) are the first :func:`_floyd_words` 32-bit words of each
    trial's stream, in the order numpy reads them.  Floyd's step i draws
    v_i on [0, j_i], j_i = n - s + i, by Lemire's method, and adds v_i to
    the set, or j_i if v_i is in it already: after an earlier equal v, or
    after j_k, k < i, was added for v_k.  So the set is every v_i, plus j_i
    wherever v_i repeats an earlier v or equals a j_k so added.  Also gives
    (T,) whether each trial's draws were taken as drawn: False where
    Lemire's method would reject a word and draw again, a set the caller
    draws by ``choice`` instead.  Only the set agrees with ``choice``, whose
    order is shuffled.
    """
    trials = len(words)
    tops = np.arange(n - s, n)
    skip = s - words.shape[1]  # a draw on [0, 0] reads no word
    bounds = tops[skip:].astype(np.uint64) + _U1
    scaled = words * bounds
    drawn = ~((scaled & _LOW32) < np.uint64(2**32) % bounds).any(axis=1)
    values = np.zeros((trials, s), dtype=int)
    values[:, skip:] = scaled >> _U32
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


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean i.i.d. Gaussian noise per worker per output coordinate.

    ``sigma0`` is kept as a float, checked by :func:`letcc.points._real`.
    """

    sigma0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sigma0", _real(self.sigma0, "sigma0"))


@dataclass(frozen=True)
class WorkerFunction:
    """The computing function applied by every worker.

    ``fn`` maps a (q, d) batch to (q, m) outputs, one row per worker, and
    must be row-wise pure: row i of the output depends on row i of the
    input alone, and equal inputs give equal outputs.  The harness calls
    it on each trial's surviving coded rows, on its inputs and, for letcc,
    on the encoder's values at the alphas.  A function declared
    ``elementwise`` gives every value the same bits whatever the other
    rows of the call and their number, as a numpy ufunc applied value by
    value does: the harness calls it once on the stacked rows of all
    trials of a chunk.  Any other is called once per trial and never on
    the rows of several trials together: a BLAS product such as
    tanh_net's can round a row differently with the number of rows in the
    call, which would make a trial's bits depend on its batch.  The
    optional ``lipschitz`` and ``curvature`` bounds are declared over
    [-2, 2]; ``degree`` is the polynomial degree used by the Lagrange
    baseline.  A 1-D result is read as :func:`letcc.coding._rows` reads
    outputs: q values of one column, or the one row's m values if q is 1.
    The dimensions ``in_dim`` (d) and ``out_dim`` (m) are counts of at
    least 1, by :func:`letcc.points._integer`.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int
    lipschitz: float | None = None
    curvature: float | None = None
    degree: int | None = None
    elementwise: bool = False

    def __post_init__(self):
        for name in ("in_dim", "out_dim"):
            dim = _integer(getattr(self, name), name)
            if dim < 1:
                raise ValueError(f"{name} must be >= 1, got {dim}")
            object.__setattr__(self, name, dim)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            x = np.atleast_2d(x)
        if x.shape[1] != self.in_dim:
            raise ValueError(f"{self.name} expects inputs of dim {self.in_dim}, got {x.shape[1]}")
        out = np.asarray(self.fn(x), dtype=float)
        if out.ndim != 2:
            out = coding._rows(out, x.shape[0], f"{self.name} inputs")
        if out.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"{self.name} returned shape {out.shape}, "
                             f"expected {(x.shape[0], self.out_dim)}")
        return out


def _affine() -> WorkerFunction:
    # in both penalty null spaces: the pipeline recovers it exactly
    return WorkerFunction("affine", lambda x: 2.0 * x - 0.5, 1, 1,
                          lipschitz=2.0, curvature=0.0, degree=1, elementwise=True)


def _sin_pi() -> WorkerFunction:
    return WorkerFunction("sin_pi", lambda x: np.sin(np.pi * x), 1, 1,
                          lipschitz=np.pi, curvature=np.pi**2, elementwise=True)


def _cubic() -> WorkerFunction:
    # |3x^2| <= 12 and |6x| <= 12 on [-2, 2].
    return WorkerFunction("cubic", lambda x: x**3, 1, 1,
                          lipschitz=12.0, curvature=12.0, degree=3, elementwise=True)


def _softplus() -> WorkerFunction:
    return WorkerFunction("softplus", lambda x: np.logaddexp(0.0, x), 1, 1,
                          lipschitz=1.0, curvature=0.25, elementwise=True)


def _tanh_net(d: int = 4, m: int = 3, hidden: int = 16) -> WorkerFunction:
    """Fixed-weight 2-layer tanh network with a softmax head over m >= 2 classes."""
    d, m = _integer(d, "d"), _integer(m, "m")
    if d < 1:
        raise ValueError(f"tanh_net needs d >= 1 inputs, got d={d}")
    if m < 2:
        # a softmax over one class is the constant 1
        raise ValueError(f"tanh_net needs m >= 2 outputs, got m={m}")
    rng = np.random.default_rng([9141, d, m, hidden])
    w1 = rng.normal(0.0, 1.0 / sqrt(d), (d, hidden))
    b1 = rng.normal(0.0, 0.1, hidden)
    w2 = rng.normal(0.0, 1.0 / sqrt(hidden), (hidden, m))
    b2 = rng.normal(0.0, 0.1, m)

    def fn(x):
        z = np.tanh(x @ w1 + b1) @ w2 + b2
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    # softmax Jacobian has spectral norm <= 1/2, tanh is 1-Lipschitz
    q = 0.5 * np.linalg.norm(w1, 2) * np.linalg.norm(w2, 2)
    return WorkerFunction(f"tanh_net_{d}_{m}", fn, d, m, lipschitz=float(q))


WORKER_FUNCTIONS = {
    "affine": _affine,
    "sin_pi": _sin_pi,
    "cubic": _cubic,
    "softplus": _softplus,
    "tanh_net": _tanh_net,
}


def make_worker(name: str, **kwargs) -> WorkerFunction:
    """Instantiate a built-in worker function by name."""
    if name not in WORKER_FUNCTIONS:
        raise ValueError(f"unknown worker function {name!r}; "
                         f"choices: {sorted(WORKER_FUNCTIONS)}")
    return WORKER_FUNCTIONS[name](**kwargs)


def worker_for(name: str, d: int, m: int) -> WorkerFunction:
    """Built-in worker ``name``; the dimensions ``d`` and ``m`` size tanh_net only."""
    if name == "tanh_net":
        return make_worker(name, d=d, m=m)
    return make_worker(name)


@dataclass(frozen=True, eq=False)
class WorkerReturns:
    """Survivor indices plus their (possibly noisy) outputs."""

    indices: np.ndarray
    outputs: np.ndarray


def apply_workers(func: WorkerFunction, batch: CodedBatch, noise: NoiseModel,
                  survivors: np.ndarray, rng: np.random.Generator | None) -> WorkerReturns:
    """Evaluate f on the surviving coded points and add worker noise.

    ``rng`` draws the noise; it is not used, and may be None, when
    ``noise.sigma0`` is 0.  The survivors are checked by
    :func:`letcc.points._integral_indices`, in [0, N).  A batch of one
    trial of the harness's chunk workers, after that check.
    """
    survivors = _integral_indices(survivors, "survivor index", batch.n)
    outputs = _worker_stack(func, batch.coded[None], noise, survivors[None], [rng])[0]
    return WorkerReturns(indices=survivors, outputs=outputs)


def _worker_stack(func: WorkerFunction, coded: np.ndarray, noise: NoiseModel,
                  indices: np.ndarray, rngs: Iterable) -> np.ndarray:
    """Worker outputs (T, v, m) of T trials at their survivors, with noise.

    ``coded`` (T, N, d) holds each trial's coded rows and ``indices`` (T, v)
    its checked survivors.  The rows of all trials are gathered at once and
    f runs on them by :func:`_evaluate_stack`.  ``rngs`` yields each
    trial's noise stream in turn, ready for its draw; it is not used when
    ``noise.sigma0`` is 0.
    """
    outputs = _evaluate_stack(func, coded[np.arange(len(indices))[:, None], indices])
    if noise.sigma0 > 0:
        outputs += np.array([rng.normal(0.0, noise.sigma0, outputs.shape[1:]) for rng in rngs])
    return outputs


def _evaluate_stack(func: WorkerFunction, rows: np.ndarray) -> np.ndarray:
    """f at the (T, q, d) rows of T trials, (T, q, m).

    An elementwise f runs once on all T * q rows, any other once per
    trial on exactly that trial's rows (see :class:`WorkerFunction`).
    """
    if func.elementwise:
        trials, count = rows.shape[:2]
        return func.evaluate(rows.reshape(trials * count, -1)).reshape(trials, count, -1)
    return np.array([func.evaluate(trial_rows) for trial_rows in rows])


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial metrics of one pipeline execution.

    ``empirical_risk`` is (1/K) sum_k ||fhat(x_k) - f(x_k)||^2 and ``rmse``
    its square root.  For the spline scheme, ``l_dec`` and ``l_enc`` are the
    two terms of the decomposition

        risk <= (2/K) sum ||u_dec(a_k) - f(u_enc(a_k))||^2   (l_dec)
              + (2/K) sum ||f(u_enc(a_k)) - f(x_k)||^2        (l_enc),

    which holds per trial; baselines report them as None.  ``relacc`` is
    the argmax agreement fraction, defined only for out_dim >= 2.
    """

    scheme: str
    empirical_risk: float
    l_dec: float | None
    l_enc: float | None
    rmse: float
    relacc: float | None
    survivor_count: int
    degraded: bool
    seed: tuple[int, ...]


@dataclass(frozen=True)
class TrialColumns:
    """The :class:`TrialMetrics` of a run of trials as columns, entry t for trial t.

    Every field but ``scheme`` is a tuple of Python values, one per trial,
    or None where the metric is None for every trial (``l_dec`` and
    ``l_enc`` of the baselines, ``relacc`` of 1-D outputs); ``==``
    compares every value.
    """

    scheme: str
    empirical_risk: tuple[float, ...]
    l_dec: tuple[float, ...] | None
    l_enc: tuple[float, ...] | None
    rmse: tuple[float, ...]
    relacc: tuple[float, ...] | None
    survivor_count: tuple[int, ...]
    degraded: tuple[bool, ...]
    seed: tuple[tuple[int, ...], ...]

    def rows(self) -> tuple[TrialMetrics, ...]:
        """Trial t's :class:`TrialMetrics` at index t, built on each call."""
        absent = (None,) * len(self.seed)
        return tuple(TrialMetrics(self.scheme, *row)
                     for row in zip(*(getattr(self, name) or absent for name in _COLUMNS)))

    @classmethod
    def concat(cls, parts: Sequence[TrialColumns]) -> TrialColumns:
        """The columns of ``parts``, runs of trials of one setup, one after another."""
        return cls(parts[0].scheme, *(
            None if getattr(parts[0], name) is None
            else tuple(chain.from_iterable(getattr(part, name) for part in parts))
            for name in _COLUMNS))


# the metrics of a trial, in the field order of both views
_COLUMNS = [f.name for f in fields(TrialMetrics) if f.name != "scheme"]


class _DeclaredDegree(int):
    """An lcc degree taken from the worker, which ``dataclasses.replace`` resolves again."""


@dataclass(frozen=True)
class TrialSetup:
    """Everything but the seed needed to run one trial.

    Every field is checked on construction; ``lambda_e`` and ``lambda_d``
    are kept as floats, checked by :func:`letcc.points._real`.
    ``f_degree``, given or, for lcc without one, the worker's declared
    degree, is resolved into that field once, here, as a nonnegative
    integer (``dataclasses.replace`` resolves it again).
    """

    scheme: str
    func: WorkerFunction
    grid: InterpolationGrid
    stragglers: StragglerModel
    noise: NoiseModel
    lambda_e: float = 0.0
    lambda_d: float = 0.0
    f_degree: int | None = None
    data: Dataset | None = None
    data_rule: str = "uniform"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choices: {SCHEMES}")
        if self.stragglers.n != self.grid.n:
            raise ValueError("straggler model N must match grid worker count")
        if self.data is not None and self.data.k != self.grid.k:
            raise ValueError("dataset K must match grid alpha count")
        if self.data is None and self.data_rule not in ("uniform", "identity"):
            raise ValueError(f"unknown data rule {self.data_rule!r}")
        if self.data is None and self.data_rule == "identity" and self.func.in_dim != 1:
            raise ValueError("identity data rule requires a 1-D worker function")
        degree = None if type(self.f_degree) is _DeclaredDegree else self.f_degree
        if degree is not None:
            degree = baselines._checked_degree(degree)
        elif self.scheme == "lcc":
            if self.func.degree is None:
                raise ValueError("lcc needs a declared polynomial degree")
            degree = _DeclaredDegree(baselines._checked_degree(self.func.degree))
        object.__setattr__(self, "f_degree", degree)
        object.__setattr__(self, "lambda_e", _real(self.lambda_e, "lambda_e"))
        object.__setattr__(self, "lambda_d", _real(self.lambda_d, "lambda_d"))


@dataclass(frozen=True, eq=False)
class _Chunk:
    """The lambda_d-independent half of T trials, everything up to decode, as stacks.

    ``indices`` (T, v) are each trial's sorted survivor indices and
    ``outputs`` (T, v, m) their noisy worker outputs; ``truth`` (T, K, m)
    is f at each trial's inputs.  For letcc, ``through_encoder`` (T, K, m)
    is f at the encoder's values at the alphas and ``l_enc`` (T,) the
    encoder term of each trial's risk bound; both are None for the
    baselines.  All values are finite.
    """

    seeds: list[tuple[int, ...]]
    indices: np.ndarray
    outputs: np.ndarray
    truth: np.ndarray
    through_encoder: np.ndarray | None
    l_enc: np.ndarray | None


def _trial_inputs(setup: TrialSetup, rng: np.random.Generator | None) -> np.ndarray:
    """The (K, d) inputs of one trial; ``rng`` is its data stream, None if it draws none."""
    if setup.data is not None:
        return setup.data.inputs
    if setup.data_rule == "identity":
        return setup.grid.alphas[:, None]
    return rng.uniform(-1.0, 1.0, (setup.grid.k, setup.func.in_dim))


class _Streams:
    """One stream of each trial of a chunk, from its (T, 4) :func:`_stream_states` rows.

    Item t is one reused generator, loaded with trial t's state as it is
    asked for, so each trial must draw before the next is asked for.
    """

    def __init__(self, states: np.ndarray, gen: np.random.Generator):
        self._rows, self._gen = states.tolist(), gen

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, t) -> np.random.Generator:
        self._gen.bit_generator.state = _state_dict(*self._rows[t])
        return self._gen

    def __iter__(self) -> Iterator[np.random.Generator]:
        return map(self.__getitem__, range(len(self._rows)))


def _first_draws(states: dict[int, np.ndarray], counts: dict[int, int]) -> dict[int, np.ndarray]:
    """The first ``counts[tag]`` 64-bit outputs (T, count) of each trial's stream ``tag``.

    ``states`` holds the (T, 4) states of each stream a chunk draws; the
    streams of ``counts`` that read one count run through one
    :func:`_pcg64_outputs` pass at that count.
    """
    groups = {}
    for tag, count in counts.items():
        if tag in states:
            groups.setdefault(count, []).append(tag)
    draws = {}
    for count, tags in groups.items():
        outputs = _pcg64_outputs(np.concatenate([states[tag] for tag in tags]), count)
        trials = len(outputs) // len(tags)
        draws.update((tag, outputs[i * trials:(i + 1) * trials]) for i, tag in enumerate(tags))
    return draws


def _prepare(setup: TrialSetup, seeds, weights: int = 1) -> Iterator[_Chunk]:
    """The prepared trials of ``seeds``, in order, one :class:`_Chunk` at a time.

    A chunk holds at most ``_CHUNK_VALUES`` values of N x d per trial and
    each of the ``weights`` it is decoded at (N x max(d, K) for bacc, whose
    decode weights are K x N, and N x max(d, deg + 1 + m) for lcc, whose
    decode factors the survivors' augmented Vandermonde), or one trial.
    Its random streams are seeded in one vectorised pass.  A chunk of at
    least ``_VECTOR_DRAWS`` trials computes the first outputs of its data
    and straggler streams in one more pass per output count, and takes
    from them what ``Generator.uniform`` and ``Generator.choice`` draw:
    the inputs, as -1 + 2 * (u >> 11) * 2**-53, and the straggler sets by
    :func:`_floyd_sets`.  Every other draw (a smaller chunk's, the noise's
    ``normal``, a straggler set ``choice`` shuffles for or rejects a word
    of) runs on the trial's own stream, loaded just before it into one
    reused generator.  The chunk encodes its trials'
    inputs in one product through the grid's cached encoder, masks the
    stragglers, gathers the survivors' rows, adds the noise and checks
    every value of all its trials at once.  f runs by
    :func:`_evaluate_stack` on each row set: survivors, inputs and, for
    letcc, the encoder's values at the alphas.  A non-finite value raises
    ``ValueError`` naming which of the three it is.  Each seed is a tuple
    of ints, as :func:`_entropy` gives it.
    """
    grid, func, model = setup.grid, setup.func, setup.stragglers
    tags = [tag for tag, used in ((_STREAM_DATA, setup.data is None
                                   and setup.data_rule == "uniform"),
                                  (_STREAM_STRAGGLERS, model.mode == "uniform"),
                                  (_STREAM_NOISE, setup.noise.sigma0 > 0)) if used]
    # one generator, loaded with each stream's state just before its draws
    gen = np.random.Generator(np.random.PCG64(_ANY_SEED)) if tags else None
    # the 64-bit outputs a chunk's vectorised draws read, per stream
    words = _floyd_words(model.n, model.s)
    counts = {_STREAM_DATA: grid.k * func.in_dim}
    if words is not None:
        counts[_STREAM_STRAGGLERS] = (words + 1) // 2

    width = func.in_dim
    if setup.scheme == "bacc":
        width = max(width, grid.k)
    elif setup.scheme == "lcc":
        columns = baselines.LagrangeCodec(grid.k, setup.f_degree).target_degree + 1
        width = max(width, min(columns, grid.n) + func.out_dim)
    size = max(1, _CHUNK_VALUES // (grid.n * width * weights))
    for start in range(0, len(seeds), size):
        chunk = seeds[start:start + size]
        trials = len(chunk)
        streams = dict.fromkeys((_STREAM_DATA, _STREAM_STRAGGLERS, _STREAM_NOISE),
                                [None] * trials)
        draws = {}
        if tags:
            states = _stream_states([seed + (tag,) for seed in chunk for tag in tags])
            states = {tag: states[i::len(tags)] for i, tag in enumerate(tags)}
            streams.update((tag, _Streams(rows, gen)) for tag, rows in states.items())
            if trials >= _VECTOR_DRAWS:
                draws = _first_draws(states, counts)
        if _STREAM_DATA in draws:
            inputs = (-1.0 + 2.0 * ((draws[_STREAM_DATA] >> _U11) * 2.0**-53)).reshape(
                trials, grid.k, func.in_dim)
        else:
            inputs = np.stack([_trial_inputs(setup, rng) for rng in streams[_STREAM_DATA]])
        knot_values = None
        if setup.scheme == "letcc":
            coded, knot_values, _ = coding._linear_encoder(grid, setup.lambda_e).apply(inputs)
        else:
            coded = baselines._encoder(grid, setup.scheme).apply(inputs)
        straggler_words = None
        if _STREAM_STRAGGLERS in draws:  # 32-bit words, low half first
            halves = draws[_STREAM_STRAGGLERS]
            straggler_words = np.stack([halves & _LOW32, halves >> _U32], axis=2).reshape(
                trials, -1)[:, :words]
        indices = _survivor_stack(model, streams[_STREAM_STRAGGLERS], straggler_words)
        outputs = _worker_stack(func, coded, setup.noise, indices, streams[_STREAM_NOISE])
        truth = _evaluate_stack(func, inputs)
        through = l_enc = None
        if knot_values is not None:
            # the encoder's values at the alphas, its knots
            through = _evaluate_stack(func, knot_values)
        for values, name in ((outputs, "survivor outputs"),
                             (truth, "truth values f(x_k)"),
                             (through, "through-encoder values f(u_enc(alpha_k))")):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} contain non-finite values")
        if through is not None:  # of checked values: inf - inf would warn
            l_enc = 2.0 * _mean_sq_dist(through, truth)
        yield _Chunk(chunk, indices, outputs, truth, through, l_enc)


def _mean_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/K) sum_k ||a_k - b_k||^2 over the rows of (K, m) arrays.

    A stack (..., K, m) gives one distance per array of the stack, each
    reduced exactly as on its own.  ``np.add.reduce`` is the reduction of
    ``np.sum`` and ``np.mean`` without their per-call Python wrappers.
    """
    return np.add.reduce(np.add.reduce((a - b) ** 2, axis=-1), axis=-1) / a.shape[-2]


def _decode_chunk(setup: TrialSetup, chunk: _Chunk,
                  lambdas: tuple[float, ...]) -> tuple[np.ndarray, bool]:
    """The (L, T, K, m) estimates of a chunk's trials at each weight of ``lambdas``.

    Every scheme decodes the whole chunk in one batch, its stacked
    survivors going straight into the scheme's decode body; bacc and lcc
    take one weight, which they ignore.  Also gives whether the decodes
    are degraded, which the survivor count alone decides.
    """
    grid, indices, outputs = setup.grid, chunk.indices, chunk.outputs
    if setup.scheme == "letcc":
        estimates, _, degraded = coding._decode_stack(grid, indices, outputs, lambdas)
        return estimates, degraded
    if setup.scheme == "bacc":
        return baselines._bacc_decode_stack(grid, indices, outputs)[None], False
    estimates, _, degraded = baselines._lcc_decode_stack(grid, indices, outputs,
                                                         setup.f_degree)
    return estimates[None], degraded


def _score(setup: TrialSetup, chunk: _Chunk, estimates: np.ndarray,
           degraded: bool) -> TrialColumns:
    """The metric columns of ``chunk``'s trials, from their (T, K, m) ``estimates``.

    The distances, bounds and class agreement of all trials run once on
    the stack, each trial reduced as on its own.  A trial whose risk is
    not finite raises ValueError, and then a letcc trial whose risk exceeds
    its decomposition bound raises :class:`RiskBoundViolation`.
    """
    risks = _mean_sq_dist(estimates, chunk.truth)
    bad = np.flatnonzero(~np.isfinite(risks))
    if bad.size:
        t = bad[0]
        raise ValueError(f"{setup.scheme} trial with seed {chunk.seeds[t]} has "
                         f"non-finite risk {float(risks[t])}")
    l_dec = l_enc = agreement = None
    if setup.scheme == "letcc":
        l_decs = 2.0 * _mean_sq_dist(estimates, chunk.through_encoder)
        bounds = l_decs + chunk.l_enc
        over = np.flatnonzero(risks > bounds + 1e-9 * (1.0 + bounds))
        if over.size:
            t = over[0]
            raise RiskBoundViolation(
                f"risk decomposition violated: {float(risks[t])} > "
                f"{float(l_decs[t])} + {float(chunk.l_enc[t])}")
        l_dec, l_enc = tuple(l_decs.tolist()), tuple(chunk.l_enc.tolist())
    if estimates.shape[-1] >= 2:  # relacc is defined for vector outputs only
        agreement = tuple(_agreement(estimates, chunk.truth).tolist())
    trials = len(chunk.seeds)
    return TrialColumns(setup.scheme, tuple(risks.tolist()), l_dec, l_enc,
                        tuple(np.sqrt(risks).tolist()), agreement,
                        (chunk.indices.shape[1],) * trials, (degraded,) * trials,
                        tuple(chunk.seeds))


def run_trial(setup: TrialSetup, seed) -> TrialMetrics:
    """Run the full encode/compute/decode pipeline once.

    ``seed`` (int or tuple of ints, by :func:`_entropy`) fully determines
    the trial: identical seeds give bit-identical metrics.  The trial is a chunk of one, decoded
    through the scheme's public one-trial decode: a letcc trial through one
    :func:`letcc.coding.decode` call, whose survivors expose ``indices``
    and ``outputs``.
    """
    chunk, = _prepare(setup, [_entropy(seed)])
    returns = WorkerReturns(chunk.indices[0], chunk.outputs[0])
    if setup.scheme == "letcc":
        result = coding.decode(returns, setup.grid, setup.lambda_d)
    elif setup.scheme == "bacc":
        result = baselines.bacc_decode(returns, setup.grid)
    else:
        result = baselines.lcc_decode(returns, setup.grid, setup.f_degree)
    return _score(setup, chunk, result.estimates[None], result.degraded).rows()[0]


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate over trials with a normal-approximation 95% interval.

    ``columns`` keeps every trial's metrics, one tuple per metric in trial
    order (:class:`TrialColumns`): ``empirical_risk``, ``l_dec``,
    ``l_enc``, ``rmse``, ``relacc``, ``survivor_count``, ``degraded`` and
    ``seed``.  ``metrics`` gives them as :class:`TrialMetrics` rows.
    """

    mean_mse: float
    std_mse: float
    ci95_lo: float
    ci95_hi: float
    mean_rmse: float
    mean_relacc: float | None
    trials: int
    degenerate_ci: bool
    columns: TrialColumns

    @property
    def metrics(self) -> tuple[TrialMetrics, ...]:
        """Trial t's metrics at index t, equal to its :func:`run_trial` bit for bit."""
        return self.columns.rows()


def aggregate(columns: TrialColumns) -> MonteCarloResult:
    """Mean, spread and 95% interval of the trials in ``columns``, in their order."""
    trials = len(columns.seed)
    if trials < 1:
        raise ValueError("need at least one trial")
    mses = np.array(columns.empirical_risk)
    mean = float(mses.mean())
    # shifted by a sample, so identical trials give exactly zero spread even
    # when their mean rounds away from the common value
    std = float((mses - mses[0]).std(ddof=1)) if trials > 1 else 0.0
    half = 1.96 * std / sqrt(trials)
    return MonteCarloResult(
        mean_mse=mean,
        std_mse=std,
        ci95_lo=mean - half,
        ci95_hi=mean + half,
        mean_rmse=float(np.mean(columns.rmse)),
        mean_relacc=None if columns.relacc is None else float(np.mean(columns.relacc)),
        trials=trials,
        degenerate_ci=trials == 1,
        columns=columns,
    )


def monte_carlo(setup: TrialSetup, trials: int, master_seed: int) -> MonteCarloResult:
    """Run ``trials`` seeded trials in order and aggregate them.

    Trial t uses seed (master_seed, t), and ``metrics[t]`` equals
    ``run_trial(setup, (master_seed, t))`` bit for bit.
    """
    return monte_carlo_lambdas(setup, trials, master_seed, (setup.lambda_d,))[0]


def monte_carlo_lambdas(setup: TrialSetup, trials: int, master_seed,
                        lambdas) -> list[MonteCarloResult]:
    """:func:`monte_carlo` of ``setup`` at each decoder weight of ``lambdas``, in order.

    Result j equals ``monte_carlo(dataclasses.replace(setup, lambda_d=lambdas[j]),
    trials, master_seed)`` bit for bit, but each trial is prepared once and
    each chunk of trials decoded at every weight together (see the module
    docstring).  bacc and lcc have no decoder weight and take exactly one.
    Every weight is checked by :func:`letcc.points._real`, named
    ``lambda_d``, and the seed by :func:`_entropy`, before any trial runs.
    """
    lams = tuple(lambdas)
    if not lams:
        raise ValueError("need at least one decoder weight")
    if len(lams) > 1 and setup.scheme != "letcc":
        raise ValueError(f"{setup.scheme} has no decoder weight; "
                         f"give one lambda_d, not {len(lams)}")
    lams = tuple(_real(lam, "lambda_d") for lam in lams)
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    entropy = _entropy(master_seed)
    by_weight = [[] for _ in lams]
    for chunk in _prepare(setup, [entropy + (t,) for t in range(trials)], len(lams)):
        estimates, degraded = _decode_chunk(setup, chunk, lams)
        for parts, at_weight in zip(by_weight, estimates, strict=True):
            parts.append(_score(setup, chunk, at_weight, degraded))
    return [aggregate(TrialColumns.concat(parts)) for parts in by_weight]


def relacc(estimates: np.ndarray, truth: np.ndarray) -> float | None:
    """Fraction of rows whose argmax class agrees; None for 1-D outputs.

    Ties resolve toward the lowest index on both sides.
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if estimates.shape != truth.shape:
        raise ValueError("estimates and truth must have matching shapes")
    if estimates.shape[1] < 2:
        return None
    return float(_agreement(estimates, truth))


def _agreement(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Argmax agreement fraction of (K, m) arrays, one per array of a (..., K, m) stack."""
    return np.mean(estimates.argmax(axis=-1) == truth.argmax(axis=-1), axis=-1)
