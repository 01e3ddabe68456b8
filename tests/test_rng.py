"""RandomStream: its key words, and the per-shot draw of `multinomial` for rows with fewer
shots than categories, against the law of a multinomial and numpy's own checks."""

import numpy as np
import pytest

from wvtomo import RandomStream

SEED = 51113  # statistical bounds rehearsed once at this seed


class _FixedUniforms:
    """Stands in for a stream's generator: every uniform drawn is one of `values`, in turn,
    and multinomial is a real generator's."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, shape):
        return np.resize(self.values, shape)

    def multinomial(self, n, pvals):
        return np.random.default_rng(0).multinomial(n, pvals)


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
