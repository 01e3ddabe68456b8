"""RandomStream: its key words, the per-shot draw of `multinomial` for rows with fewer
shots than categories, against the law of a multinomial and numpy's own checks, and the
prepared law it draws from, judged and tabulated on its first per-shot draw."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from wvtomo import RandomStream, fourier_mub, optimal_strengths, random_mixed
from wvtomo.montecarlo import outcome_table, run_sweep, simulate_once
from wvtomo.rng import PreparedLaw

SEED = 51113  # statistical bounds rehearsed once at this seed


class _FixedUniforms:
    """Stands in for a stream's generator: every uniform drawn is one of `values`, in turn."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, shape):
        return np.resize(self.values, shape)


@pytest.mark.parametrize("seed, stream_id", [(2**64, 0), (-1, 0), (1, 2**64)],
                         ids=["seed-two-to-64", "seed-minus-one", "stream-two-to-64"])
def test_a_key_word_outside_64_bits_is_refused(seed, stream_id):
    # masked to 64 bits, seed 2**64 + 1 would draw the numbers of seed 1
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        RandomStream(seed, stream_id)


def test_the_largest_key_words_are_accepted():
    top = 2**64 - 1
    stream = RandomStream(top, top)
    assert (stream.seed, stream.stream_id) == (top, top)
    assert not np.array_equal(stream.uniforms(4), RandomStream(top - 1, top).uniforms(4))


def test_per_shot_counts_follow_the_multinomial_law():
    # 2e5 rows of N=4 shots over K=6 categories, one of probability 0.  Rehearsed once:
    # the worst mean deviation was 1.4 stderr and the worst covariance one 2.3.
    p = np.array([0.1, 0.25, 0.0, 0.3, 0.05, 0.3])
    n, rows = 4, 200_000
    counts = RandomStream(SEED, 1).multinomial(n, np.broadcast_to(p, (rows, len(p))))
    assert counts.shape == (rows, len(p)) and counts.dtype == np.int64
    assert np.array_equal(counts.sum(axis=1), np.full(rows, n))
    assert not counts[:, 2].any()

    live = p > 0
    c = counts[:, live].astype(float)
    q = p[live]
    mean_z = (c.mean(axis=0) - n * q) / np.sqrt(n * q * (1 - q) / rows)
    dev = c - c.mean(axis=0)
    products = dev[:, :, None] * dev[:, None, :]
    cov_z = (products.mean(axis=0) - n * (np.diag(q) - np.outer(q, q))) / (
        products.std(axis=0) / np.sqrt(rows))
    assert np.abs(mean_z).max() < 5.0, mean_z
    assert np.abs(cov_z).max() < 5.0, cov_z


def test_per_shot_draw_takes_only_its_uniforms():
    # the zero-shot check of pvals draws nothing: after R rows of n shots the stream stands
    # where a fresh stream stands after drawing R x n uniforms
    rows, n = 64, 5
    p = np.broadcast_to([0.1, 0.25, 0.0, 0.3, 0.05, 0.3, 0.0, 0.0], (rows, 8))
    drawn, fresh = RandomStream(SEED, 8), RandomStream(SEED, 8)
    drawn.multinomial(n, p)
    fresh.uniforms((rows, n))
    np.testing.assert_equal(drawn._gen.bit_generator.state, fresh._gen.bit_generator.state)


@pytest.mark.parametrize("n", [1, 3], ids=["per-shot", "multinomial"])
@pytest.mark.parametrize("pvals", [
    [-0.1, 0.5, 0.6],
    [1.1, 0.0, 0.0],
    [np.nan, 0.5, 0.5],
    [0.6, 0.6, 0.0],
], ids=["negative", "above-one", "nan", "head-sum-above-one"])
def test_both_draws_reject_what_numpy_rejects(n, pvals):
    with pytest.raises(ValueError):
        RandomStream(SEED, 2).multinomial(n, np.array(pvals))
    with pytest.raises(ValueError):  # in any row of a stack
        RandomStream(SEED, 2).multinomial(n, np.array([[0.2, 0.3, 0.5], pvals]))


@pytest.mark.parametrize("stack", [False, True], ids=["row", "stack"])
def test_both_draws_accept_what_numpy_accepts(stack):
    # a plain cumsum puts this head above 1 + 1e-12, numpy's own sum does not: the per-shot
    # draw (N < 8) must accept it as numpy's multinomial (N >= 8) does
    p = np.array([(1 + 1e-12) / 7] * 7 + [0.0])
    pvals = np.array([p, p]) if stack else p
    for n in range(1, 10):
        counts = RandomStream(SEED, 7).multinomial(n, pvals)
        assert np.array_equal(counts.sum(axis=-1), np.full(pvals.shape[:-1], n))


@pytest.mark.parametrize("n", [1, 4], ids=["per-shot", "multinomial"])
@pytest.mark.parametrize("stack", [False, True], ids=["row", "stack"])
def test_both_draws_reject_what_numpy_sums_over_the_limit(n, stack):
    # a plain cumsum puts this head at 1 + 1e-12 exactly, numpy's own sum one ulp above it
    p = np.array([0.37372314295002756, 0.5509841524944409, 0.07529270455653174, 0.0])
    assert np.cumsum(p[:-1])[-1] == 1 + 1e-12
    pvals = np.array([[0.25] * 4, p]) if stack else p
    with pytest.raises(ValueError, match="> 1.0"):
        RandomStream(SEED, 7).multinomial(n, pvals)


# Rows of 8 categories: zero-probability categories, and a row whose whole mass sits in its
# last category.
ROWS = np.array([
    [0.1, 0.0, 0.25, 0.3, 0.0, 0.05, 0.3, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    np.full(8, 0.125),
])


@pytest.mark.parametrize("n", [7, 8], ids=["per-shot-N=K-1", "multinomial-N=K"])
def test_a_prepared_law_draws_the_bits_of_its_pvals(n):
    # a law judged and tabulated on its first per-shot draw draws what its plain pvals draw,
    # to the bit, and leaves the stream where the plain draws leave it, whatever the size of
    # each draw
    plain, prepared = RandomStream(SEED, 11), RandomStream(SEED, 11)
    law = PreparedLaw(ROWS)
    for size in (None, (3, 4), (1, 4), (2, 3, 4)):
        got, want = prepared.multinomial(n, law, size), plain.multinomial(n, ROWS, size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    np.testing.assert_equal(prepared._gen.bit_generator.state, plain._gen.bit_generator.state)
    assert ("cdf" in vars(law)) == (n < ROWS.shape[-1])  # tabulated by a per-shot draw alone


@pytest.mark.parametrize("n", [3, 8], ids=["per-shot", "multinomial"])
def test_a_prepared_law_draws_the_same_rows_in_one_call_or_several(n):
    law = PreparedLaw(ROWS)
    whole = RandomStream(SEED, 12).multinomial(n, law, size=(7, 4))
    stream = RandomStream(SEED, 12)
    parts = [stream.multinomial(n, law, size=(count, 4)) for count in (3, 1, 3)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_two_prepared_laws_interleaved_on_one_stream_draw_the_sequential_draws():
    # each law keeps its own table: two laws of different widths drawn in turn on one stream
    # and its twin give the plain draws of the same sequence, on both branches
    other = np.array([[0.2, 0.0, 0.3, 0.5], [0.0, 0.0, 1.0, 0.0], [0.25] * 4])
    stream, ref = RandomStream(SEED, 13), RandomStream(SEED, 13)
    laws = [(ROWS, PreparedLaw(ROWS)), (other, PreparedLaw(other))]
    for twin, which, n, size in [
        (False, 0, 3, (2, 4)), (False, 1, 2, (3,)), (True, 1, 3, (2, 3)), (False, 0, 5, (1, 4)),
        (True, 0, 3, (4,)), (False, 1, 2, (5, 3)), (False, 0, 9, (2, 4)), (True, 1, 4, (3,)),
        (False, 0, 3, (3, 4)),
    ]:
        pvals, law = laws[which]
        got, want = (stream.twin, ref.twin) if twin else (stream, ref)
        assert got.multinomial(n, law, size).tobytes() == want.multinomial(n, pvals, size).tobytes()


@pytest.mark.parametrize("pvals", [
    np.array([np.nan, 0.5, 0.5]),
    np.array([-0.1, 0.5, 0.6]),
    np.array([0.6, 0.6, 0.0]),
    np.float64(0.5),
], ids=["nan", "negative", "head-sum-above-one", "zero-d"])
def test_a_law_is_refused_when_it_is_prepared_with_the_error_multinomial_raises(pvals):
    # A law is judged when a draw first reads it: by numpy's own draw, or by the per-shot
    # draw as it prepares the law's table, before any uniform is drawn.  Either way numpy's
    # error is raised, no table is kept and the stream stands where it stood.
    for n in (1, 3):  # per shot and numpy's multinomial, for the three categories
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(0).multinomial(n, pvals)
        stream, law = RandomStream(SEED, 14), PreparedLaw(pvals)
        for drawn in (law, pvals):
            with pytest.raises(ValueError) as refused:
                stream.multinomial(n, drawn)
            assert str(refused.value) == str(numpy_error.value)
        assert "cdf" not in vars(law)
        assert stream.uniforms(3).tobytes() == RandomStream(SEED, 14).uniforms(3).tobytes()


def _tables_and_draws(monkeypatch, run):
    # The CDF tables built (`PreparedLaw.cdf`) and the multinomial calls while `run` runs.
    calls = {"cdf": 0, "multinomial": 0}
    table, multinomial = PreparedLaw.cdf.func, RandomStream.multinomial

    def tabulated(law):
        calls["cdf"] += 1
        return table(law)

    def drawn(self, *args, **kwargs):
        calls["multinomial"] += 1
        return multinomial(self, *args, **kwargs)

    cdf = functools.cached_property(tabulated)
    cdf.__set_name__(PreparedLaw, "cdf")
    monkeypatch.setattr(PreparedLaw, "cdf", cdf)
    monkeypatch.setattr(RandomStream, "multinomial", drawn)
    run()
    monkeypatch.undo()
    return calls


def _tables_and_draws_of_a_sweep(monkeypatch, d, n_shots, reps, gs=(0.6, 2.4)):
    # A sweep of g_r over gs: within the held-sums budget the first step draws R and fills
    # the held I sums and each later step draws R alone; over it each step draws R and I.
    rho = random_mixed(d, d, RandomStream(SEED, 15))
    steps = [replace(optimal_strengths(d), g_r=g) for g in gs]
    return _tables_and_draws(monkeypatch, lambda: run_sweep(rho, steps, n_shots, reps, SEED))


def test_a_sweep_step_prepares_each_law_it_draws_once(monkeypatch):
    # The benchmark's highdim sweep: d=32, N=10 < 2d, 20 repetitions (4 batches): 12 per-shot
    # draws from 3 laws, each tabulated once, where tabulating at every draw would make 12.
    calls = _tables_and_draws_of_a_sweep(monkeypatch, 32, 10, 20)
    assert calls == {"cdf": 3, "multinomial": 12}, calls
    # 40 repetitions (7 batches) are over the budget, so the I law the three steps keep is
    # drawn at every step: 42 per-shot draws from 4 laws, the kept one tabulated once.
    calls = _tables_and_draws_of_a_sweep(monkeypatch, 32, 10, 40, (0.6, 1.5, 2.4))
    assert calls == {"cdf": 4, "multinomial": 42}, calls
    # The same laws at another per-shot N draw from the tables the first N built.
    rho = random_mixed(32, 32, RandomStream(SEED, 15))
    table = outcome_table(rho, optimal_strengths(32), fourier_mub(32), 10)
    calls = _tables_and_draws(monkeypatch, lambda: [
        simulate_once(t, RandomStream(SEED)) for t in (table, replace(table, shots=20))])
    assert calls == {"cdf": 2, "multinomial": 4}, calls


def test_a_sweep_with_as_many_shots_as_categories_builds_no_cdf_table(monkeypatch):
    # The benchmark's desk sizes: d=5, N=100 >= 2d, 200 repetitions (one batch).  numpy's
    # multinomial draws and judges every row, so no law is tabulated or judged again.
    calls = _tables_and_draws_of_a_sweep(monkeypatch, 5, 100, 200)
    assert calls == {"cdf": 0, "multinomial": 3}, calls


def test_per_shot_last_category_takes_the_remainder():
    # numpy's multinomial gives the last category 1 - sum(pvals[:-1]) whatever pvals[-1] says
    stream = RandomStream(SEED, 3)
    stream._gen = _FixedUniforms([0.95])
    assert np.array_equal(stream.multinomial(2, np.array([0.3, 0.3, 0.3])), [0, 0, 2])


def test_per_shot_draw_is_exact_at_the_edges():
    # F = [0.25, 1, 1, 1]: u = 0.25 sits on the first edge and belongs above it, the next
    # double below belongs below it, and the top uniform 1 - 2**-53 lands in the last
    # category of nonzero probability, in every one of many rows drawn together
    rows = 1001
    stream = RandomStream(SEED, 4)
    stream._gen = _FixedUniforms([0.25, np.nextafter(0.25, 0.0), 1.0 - 2.0**-53])
    counts = stream.multinomial(3, np.broadcast_to([0.25, 0.75, 0.0, 0.0], (rows, 4)))
    assert np.array_equal(counts, np.broadcast_to([1, 2, 0, 0], (rows, 4)))


@pytest.mark.parametrize("n", [1, 5, 40], ids=["one-shot", "per-shot", "multinomial"])
def test_size_draws_the_bytes_of_the_broadcast_stack(n):
    # multinomial(n, rows, size=(copies, R)) must draw what the broadcast stack of the rows
    # draws, to the bit, on both paths: zero-probability categories, and a row whose whole
    # mass sits in its last category, included
    rows = np.array([
        [0.1, 0.0, 0.25, 0.3, 0.0, 0.05, 0.3, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        np.full(8, 0.125),
    ])
    copies = 7
    stack = RandomStream(SEED, 5).multinomial(n, np.broadcast_to(rows, (copies, *rows.shape)))
    sized = RandomStream(SEED, 5).multinomial(n, rows, size=(copies, len(rows)))
    assert sized.shape == (copies, *rows.shape) and sized.dtype == stack.dtype
    assert np.array_equal(sized, stack)
    assert np.array_equal(sized[:, 1], np.broadcast_to([0] * 7 + [n], (copies, 8)))
    one = RandomStream(SEED, 6).multinomial(n, rows[0], size=(copies,))
    assert np.array_equal(one, RandomStream(SEED, 6).multinomial(
        n, np.broadcast_to(rows[0], (copies, 8))))


@pytest.mark.parametrize("seed, stream_id", [(SEED, 9), (2**64 - 1, 2**64 - 1)],
                         ids=["seed", "top"])
def test_the_twin_is_philox_jumped_on_the_same_key(seed, stream_id):
    # an experiment's I rows come from the twin: numpy's Philox.jumped() on (seed, stream_id),
    # built on first use and kept, so consecutive draws continue it whatever the primary drew
    stream = RandomStream(seed, stream_id)
    stream.uniforms(5)
    ref = np.random.Generator(np.random.Philox(key=[seed, stream_id]).jumped())
    twin = stream.twin
    assert twin is stream.twin and (twin.seed, twin.stream_id) == (seed, stream_id)
    p = np.array([0.1, 0.25, 0.0, 0.3, 0.05, 0.3])
    assert twin.uniforms(7).tobytes() == ref.random(7).tobytes()
    assert twin.normals(7).tobytes() == ref.standard_normal(7).tobytes()
    drawn = twin.multinomial(40, p, size=(3, 2))
    assert drawn.tobytes() == ref.multinomial(40, p, (3, 2)).tobytes()
    stream.uniforms(5)
    assert stream.twin.uniforms(3).tobytes() == ref.random(3).tobytes()
    stream.twin.multinomial(4, p, size=(2,))  # per shot: the uniforms alone, as on the primary
    ref.random((2, 4))
    np.testing.assert_equal(stream.twin._gen.bit_generator.state, ref.bit_generator.state)


def test_the_primary_draws_are_philox_on_the_key_whatever_the_twin_draws():
    # the state draws, and the selfcheck and compare bytes, rest on these bytes
    stream = RandomStream(SEED, 10)
    ref = np.random.Generator(np.random.Philox(key=[SEED, 10]))
    p = np.array([0.1, 0.25, 0.0, 0.3, 0.05, 0.3])
    assert stream.uniforms(7).tobytes() == ref.random(7).tobytes()
    stream.twin.uniforms(11)
    assert stream.normals(7).tobytes() == ref.standard_normal(7).tobytes()
    stream.twin.multinomial(40, p, size=(3,))
    drawn = stream.multinomial(40, p, size=(3, 2))
    assert drawn.tobytes() == ref.multinomial(40, p, (3, 2)).tobytes()
    np.testing.assert_equal(stream._gen.bit_generator.state, ref.bit_generator.state)


def test_a_twins_twin_is_philox_jumped_twice():
    # each twin starts 2**128 draws past the stream it is the twin of, so a twin's twin does
    # not replay the twin: three streams, three independent Philox blocks on one key
    stream = RandomStream(SEED, 10)
    twice = stream.twin.twin
    assert twice is stream.twin.twin and (twice.seed, twice.stream_id) == (SEED, 10)
    ref = np.random.Generator(np.random.Philox(key=[SEED, 10]).jumped(2))
    assert twice.uniforms(7).tobytes() == ref.random(7).tobytes()
    assert not np.array_equal(RandomStream(1).twin.twin.uniforms(5), RandomStream(1).twin.uniforms(5))
