"""Tests for exact top-k neighbors and pseudo-label aggregation: brute-force
sort oracles, hand enumerations, tie-break contracts, equivariance and
hypothesis properties against the per-row references in oracles.py.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import ranked_topk, reference_pseudo_labels

from selcontrast.evaluation import ranked_neighbors
from selcontrast import neighbors
from selcontrast.neighbors import (_BLOCK_ELEMENTS, _MIN_BLOCK_ROWS, EmbeddingBank,
                                   PseudoLabelState, aggregate_pseudo_labels, grid_rows,
                                   row_blocks, topk_blocks)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
MULTI_BLOCK_N = 300


def unit_rows(m):
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def angles_to_bank(angles):
    z = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return EmbeddingBank(z=z)


def topk_ranked(query, keys, k, exclude_self=False):
    """The (m, k) neighbour sets of topk_blocks, gathered over its row blocks
    and put in rank order by the kNN probe's ranked_neighbors: equal to the
    per-row reference ranking exactly when every set is right and the ranking
    step orders it."""
    blocks = topk_blocks(query, keys, k, exclude_self)
    out = np.empty((len(query), k), dtype=np.int64)
    for start, sims, hood in blocks:
        out[start:start + len(hood)] = ranked_neighbors(sims, hood)
    return out


def topk_of(sims, k, exclude_self=False):
    """topk_ranked over a given similarity matrix: with identity keys every
    cell of sims @ I.T has one nonzero product, so it equals sims exactly
    (up to the sign of a zero, which no ranking sees)."""
    return topk_ranked(sims, np.eye(np.shape(sims)[1]), k, exclude_self=exclude_self)


def bank_topk(bank, k, exclude_self=False):
    return topk_ranked(bank.z, bank.z, k, exclude_self=exclude_self)


# ---------------------------------------------------------------------------
# topk_blocks and the probe's ranking step
# ---------------------------------------------------------------------------

def test_topk_matches_exhaustive_sort():
    rng = np.random.default_rng(0)
    bank = EmbeddingBank(z=unit_rows(rng.normal(size=(30, 5))))
    sims = bank.z @ bank.z.T
    got = bank_topk(bank, 7, exclude_self=True)
    for i in range(30):
        expected = sorted((j for j in range(30) if j != i),
                          key=lambda j: (-sims[i, j], j))[:7]
        np.testing.assert_array_equal(got[i], expected)


def test_topk_identical_embeddings_tie_break_by_index():
    bank = EmbeddingBank(z=unit_rows(np.ones((3, 2))))
    np.testing.assert_array_equal(bank_topk(bank, 2, exclude_self=True),
                                  [[1, 2], [0, 2], [0, 1]])


def test_topk_k_equals_n_minus_one_returns_all_others():
    rng = np.random.default_rng(1)
    bank = EmbeddingBank(z=unit_rows(rng.normal(size=(6, 3))))
    got = bank_topk(bank, 5, exclude_self=True)
    for i in range(6):
        assert sorted(got[i].tolist()) == [j for j in range(6) if j != i]


def test_topk_excludes_query_and_orders_by_similarity():
    bank = angles_to_bank(np.array([0.0, 0.1, 0.5, 1.4, 3.0]))
    got = bank_topk(bank, 3, exclude_self=True)
    np.testing.assert_array_equal(got[0], [1, 2, 3])
    for i in range(5):
        assert i not in got[i]
    # without exclusion every row finds itself first
    np.testing.assert_array_equal(bank_topk(bank, 1)[:, 0], np.arange(5))


def test_topk_bounds_checks():
    z = angles_to_bank(np.array([0.0, 0.3, 0.6])).z
    with pytest.raises(ValueError):
        topk_ranked(z, z, 3, exclude_self=True)
    with pytest.raises(ValueError):
        topk_ranked(z, z, 0, exclude_self=True)
    with pytest.raises(ValueError):
        topk_ranked(z, z, 4)
    with pytest.raises(ValueError):
        topk_ranked(z, z, 0)
    with pytest.raises(ValueError, match="square"):
        topk_ranked(z[:2], z, 1, exclude_self=True)
    with pytest.raises(ValueError, match="2-d"):
        topk_ranked(z[0], z, 1)
    with pytest.raises(ValueError, match="equal width"):
        topk_ranked(z, z[:, :1], 1)
    assert topk_ranked(z, z, 3).shape == (3, 3)


def test_topk_rejects_nan():
    sims = np.array([[1.0, np.nan, 0.5], [0.2, 1.0, 0.3], [0.5, 0.3, 1.0]])
    with pytest.raises(ValueError, match="NaN"):
        topk_of(sims, 2, exclude_self=True)
    z = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="NaN"):
        topk_ranked(z[:1], z, 1)


@st.composite
def similarity_matrices(draw, square):
    """Small matrices whose entries come from a few levels (so the k-th value
    is often tied across the candidate boundary), mixed with arbitrary floats
    and signed zeros."""
    m = draw(st.integers(2 if square else 1, 12))
    n = m if square else draw(st.integers(1, 12))
    levels = st.integers(-2, 2).map(float)
    entries = st.one_of(levels, st.sampled_from([0.0, -0.0]),
                        st.floats(-1.0, 1.0, allow_nan=False))
    sims = draw(arrays(np.float64, (m, n), elements=entries))
    limit = n - 1 if square else n
    k = draw(st.one_of(st.just(1), st.just(limit), st.integers(1, limit)))
    return sims, k


@PROPERTY
@given(similarity_matrices(square=True))
def test_topk_property_bank_matches_per_row_reference(case):
    sims, k = case
    np.testing.assert_array_equal(topk_of(sims, k, exclude_self=True),
                                  ranked_topk(sims, k, exclude_self=True))


@PROPERTY
@given(similarity_matrices(square=False))
def test_topk_property_queries_match_per_row_reference(case):
    sims, k = case
    np.testing.assert_array_equal(topk_of(sims, k), ranked_topk(sims, k))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 6),
       k=st.sampled_from([1, 2, 50, 149, 298, 299]))
def test_topk_property_spans_several_row_blocks(seed, levels, k):
    assert len(row_blocks(MULTI_BLOCK_N, MULTI_BLOCK_N - 1)) > 2  # blocks chain
    rng = np.random.default_rng(seed)
    sims = rng.integers(0, levels, size=(MULTI_BLOCK_N, MULTI_BLOCK_N)).astype(np.float64)
    np.testing.assert_array_equal(topk_of(sims, k, exclude_self=True),
                                  ranked_topk(sims, k, exclude_self=True))
    np.testing.assert_array_equal(topk_of(sims[:, :-1], k), ranked_topk(sims[:, :-1], k))


def test_topk_rows_wider_than_a_block():
    rng = np.random.default_rng(6)
    query = rng.integers(-1, 2, size=(3, 2)).astype(np.float64)
    keys = rng.integers(0, 3, size=(_BLOCK_ELEMENTS + 5, 2)).astype(np.float64)
    sims = query @ keys.T  # small integers: exact, with many ties
    for k in (1, 7, _BLOCK_ELEMENTS + 5):
        np.testing.assert_array_equal(topk_ranked(query, keys, k), ranked_topk(sims, k))


# ---------------------------------------------------------------------------
# the 2**-24 grid: every product of two bank rows is exact
# ---------------------------------------------------------------------------

GRID_WIDTHS = [2, 8, 32, 128]


def random_grid_rows(rng, n, dim):
    return grid_rows(unit_rows(rng.normal(size=(n, dim))))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from(GRID_WIDTHS),
       n=st.sampled_from([601, 1030]))
def test_grid_rows_blocks_are_bit_equal_to_the_full_product(seed, dim, n):
    rng = np.random.default_rng(seed)
    z = random_grid_rows(rng, n, dim)
    assert np.all(np.ldexp(z, 24) == np.rint(np.ldexp(z, 24)))
    full = z @ z.T
    # the row blocks of the top-k and of the selection's passes, of two lengths
    blocks = row_blocks(n)
    assert len(blocks) > 1 and len({stop - start for start, stop in blocks}) == 2
    for start, stop in blocks:
        assert (z[start:stop] @ z.T).tobytes() == full[start:stop].tobytes()
        assert (z[start:stop] @ z[start:].T).tobytes() == full[start:stop, start:].tobytes()
    # shuffled index lists, and lists with duplicates such as a minibatch's twins
    batch = rng.integers(0, n, size=64)
    for rows, cols in ((rng.permutation(n)[:97], rng.permutation(n)[:130]),
                       (np.concatenate([batch, batch]), np.concatenate([batch, batch])),
                       (rng.integers(0, n, size=50), batch[::-1])):
        got = z[rows] @ z[cols].T
        assert got.tobytes() == full[np.ix_(rows, cols)].tobytes()


def test_bank_stores_grid_rows():
    rng = np.random.default_rng(7)
    z = unit_rows(rng.normal(size=(20, 5)))
    bank = EmbeddingBank(z=z)
    np.testing.assert_array_equal(bank.z, grid_rows(z.copy()))
    np.testing.assert_allclose(bank.z, z, rtol=0, atol=2.0 ** -25)
    assert bank.z is not z


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from(GRID_WIDTHS),
       k=st.sampled_from([1, 25, MULTI_BLOCK_N - 1]))
def test_topk_of_grid_rows_spans_several_row_blocks(seed, dim, k):
    rng = np.random.default_rng(seed)
    z = random_grid_rows(rng, MULTI_BLOCK_N, dim)
    sims = z @ z.T
    np.testing.assert_array_equal(topk_ranked(z, z, k, exclude_self=True),
                                  ranked_topk(sims, k, exclude_self=True))
    queries = random_grid_rows(rng, 2 * MULTI_BLOCK_N // 3, dim)
    np.testing.assert_array_equal(topk_ranked(queries, z, k), ranked_topk(queries @ z.T, k))


@pytest.mark.parametrize("rows_per_budget", [1, 3, 13, _MIN_BLOCK_ROWS + 5])
def test_topk_blocks_take_at_least_the_minimum_rows(monkeypatch, rows_per_budget):
    # a block budget below _MIN_BLOCK_ROWS rows of keys (n_train > 2048)
    # still gets blocks of up to _MIN_BLOCK_ROWS rows: the fewest such
    # blocks, their lengths at most one row apart
    n, k = MULTI_BLOCK_N, 25
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", rows_per_budget * n)
    step = max(_MIN_BLOCK_ROWS, rows_per_budget)
    rng = np.random.default_rng(rows_per_budget)
    z = random_grid_rows(rng, n, 8)
    starts, sizes = [], []
    for start, sims, hood in topk_blocks(z, z, k, exclude_self=True):
        starts.append(start)
        sizes.append(len(hood))
        assert sims.shape == (len(hood), n)
    assert len(sizes) == -(-n // step) and max(sizes) <= step
    assert max(sizes) - min(sizes) <= 1
    assert starts == np.cumsum([0] + sizes[:-1]).tolist() and sum(sizes) == n
    np.testing.assert_array_equal(topk_ranked(z, z, k, exclude_self=True),
                                  ranked_topk(z @ z.T, k, exclude_self=True))
    noisy = rng.integers(0, 4, size=n)
    for count_labels in ("pseudo", "noisy"):
        assert_matches_reference(EmbeddingBank(z=z), noisy, k, 4, count_labels)


def test_bank_rejects_non_unit_rows():
    with pytest.raises(ValueError, match="row 1"):
        EmbeddingBank(z=np.array([[1.0, 0.0], [2.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bank_rejects_non_finite_rows(bad):
    with pytest.raises(ValueError, match="row 0"):
        EmbeddingBank(z=np.array([[bad, 0.0], [1.0, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# aggregate_pseudo_labels
# ---------------------------------------------------------------------------

def test_identical_embeddings_identical_labels():
    bank = EmbeddingBank(z=unit_rows(np.ones((5, 3))))
    state = aggregate_pseudo_labels(bank, np.full(5, 2), k=4, n_classes=3)
    np.testing.assert_array_equal(state.y_hat, np.full(5, 2))
    np.testing.assert_array_equal(state.q_hat,
                                  np.tile([0.0, 0.0, 1.0], (5, 1)))


def test_two_cluster_toy_corrects_one_flip_per_cluster():
    """8 points, two tight clusters, one mislabeled point in each; k=3 votes
    repair both. Expected labels enumerated by hand from the geometry."""
    angles = np.array([0.00, 0.02, 0.04, 0.06,      # cluster A
                       3.10, 3.12, 3.14, 3.16])     # cluster B (opposite side)
    noisy = np.array([0, 0, 1, 0,                   # index 2 mislabeled
                      1, 1, 0, 1])                  # index 6 mislabeled
    state = aggregate_pseudo_labels(angles_to_bank(angles), noisy, k=3, n_classes=2)
    np.testing.assert_array_equal(state.y_hat, [0, 0, 0, 0, 1, 1, 1, 1])
    # every neighborhood stays inside its own 4-point cluster, so after the
    # first pass each point sees three corrected same-cluster labels
    np.testing.assert_array_equal(state.q_hat[:4], np.tile([1.0, 0.0], (4, 1)))
    np.testing.assert_array_equal(state.q_hat[4:], np.tile([0.0, 1.0], (4, 1)))


def test_posterior_counts_direct_fraction():
    """Hand case: neighbor pseudo-labels [0,0,1,0] at k=4 give q = [0.75, 0.25]."""
    # star geometry: index 0 is the query; indices 1-4 are its neighborhood
    z = unit_rows(np.array([[1.0, 0.0],
                            [0.99, 0.1], [0.99, -0.1], [0.98, 0.15], [0.98, -0.15],
                            [-1.0, 0.2]]))
    # neighbors 1-4 are tight around the query and each other, so their own
    # pseudo-labels equal their noisy labels by majority inside the clique
    noisy = np.array([0, 0, 0, 1, 0, 1])
    state = aggregate_pseudo_labels(EmbeddingBank(z=z), noisy, k=4, n_classes=2)
    np.testing.assert_array_equal(state.y_hat[1:5], [0, 0, 0, 0])
    np.testing.assert_allclose(state.q_hat[0], [1.0, 0.0])
    # the ablation counts raw noisy labels instead: [0,0,1,0] -> [0.75, 0.25]
    raw = aggregate_pseudo_labels(EmbeddingBank(z=z), noisy, k=4, n_classes=2,
                                  count_labels="noisy")
    np.testing.assert_allclose(raw.q_hat[0], [0.75, 0.25])


def test_tie_break_prefers_own_label_then_smallest_class():
    # four identical points: each sees the other three; votes can tie 1-1-1
    z = unit_rows(np.ones((4, 2)))
    noisy = np.array([0, 1, 2, 2])
    state = aggregate_pseudo_labels(EmbeddingBank(z=z), noisy, k=3, n_classes=3)
    # index 0 sees labels {1,2,2}: majority 2 outright
    assert state.y_hat[0] == 2
    # index 3 sees labels {0,1,2}: three-way tie includes its own label 2
    assert state.y_hat[3] == 2
    # index 2 sees labels {0,1,2}: tie includes own label 2
    assert state.y_hat[2] == 2
    # index 1 sees labels {0,2,2}: majority 2 outright
    assert state.y_hat[1] == 2


def test_tie_break_smallest_class_when_own_not_tied():
    z = unit_rows(np.ones((5, 2)))
    noisy = np.array([2, 0, 0, 1, 1])
    # index 0 sees {0,0,1,1}: tie between 0 and 1, own label 2 not tied -> 0
    state = aggregate_pseudo_labels(EmbeddingBank(z=z), noisy, k=4, n_classes=3)
    assert state.y_hat[0] == 0


def test_q_hat_row_stochastic_and_count_quantized():
    rng = np.random.default_rng(2)
    bank = EmbeddingBank(z=unit_rows(rng.normal(size=(40, 4))))
    noisy = rng.integers(0, 3, size=40)
    state = aggregate_pseudo_labels(bank, noisy, k=7, n_classes=3)
    np.testing.assert_allclose(state.q_hat.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert np.all(state.q_hat >= 0)
    counts = state.q_hat * 7
    np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-9)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    z = unit_rows(rng.normal(size=(25, 4)))  # generic position: no ties
    noisy = rng.integers(0, 3, size=25)
    base = aggregate_pseudo_labels(EmbeddingBank(z=z), noisy, k=5, n_classes=3)
    perm = rng.permutation(25)
    shuffled = aggregate_pseudo_labels(EmbeddingBank(z=z[perm]), noisy[perm],
                                       k=5, n_classes=3)
    np.testing.assert_array_equal(shuffled.y_hat, base.y_hat[perm])
    np.testing.assert_allclose(shuffled.q_hat, base.q_hat[perm], rtol=0, atol=0)


def test_clean_separated_clusters_reproduce_labels():
    rng = np.random.default_rng(4)
    centers = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
    labels = np.repeat([0, 1, 2], 10)
    z = unit_rows(centers[labels] + 0.1 * rng.normal(size=(30, 2)))
    state = aggregate_pseudo_labels(EmbeddingBank(z=z), labels, k=5, n_classes=3)
    np.testing.assert_array_equal(state.y_hat, labels)


def test_length_mismatch_rejected():
    bank = angles_to_bank(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        aggregate_pseudo_labels(bank, np.zeros(4, dtype=int), k=2, n_classes=1)


# ---------------------------------------------------------------------------
# aggregate_pseudo_labels against the per-row reference
# ---------------------------------------------------------------------------

def tied_bank(rng, n, dim, n_distinct, one_hot):
    """Bank whose rows repeat a few distinct unit vectors. One-hot rows give
    similarities of exactly 0 and 1, so neighborhoods tie at the k-th rank."""
    if one_hot:
        pool = np.eye(dim)[rng.integers(0, dim, size=n_distinct)]
    else:
        pool = unit_rows(rng.normal(size=(n_distinct, dim)))
    return EmbeddingBank(z=pool[rng.integers(0, n_distinct, size=n)])


def assert_matches_reference(bank, noisy, k, n_classes, count_labels):
    state = aggregate_pseudo_labels(bank, noisy, k=k, n_classes=n_classes,
                                    count_labels=count_labels)
    y_ref, q_ref = reference_pseudo_labels(bank.z @ bank.z.T, noisy, k, n_classes,
                                           count_noisy=count_labels == "noisy")
    assert state.y_hat.dtype == np.int64
    np.testing.assert_array_equal(state.y_hat, y_ref)
    assert state.q_hat.tobytes() == q_ref.tobytes()


@st.composite
def vote_cases(draw, n_max=30):
    n = draw(st.integers(2, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = tied_bank(rng, n, dim=draw(st.integers(1, 4)),
                     n_distinct=draw(st.integers(1, n)), one_hot=draw(st.booleans()))
    n_classes = draw(st.integers(1, 4))
    noisy = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    return bank, noisy, k, n_classes


@PROPERTY
@given(vote_cases(), st.sampled_from(["pseudo", "noisy"]))
def test_vote_property_matches_per_row_reference(case, count_labels):
    assert_matches_reference(*case, count_labels)


@pytest.mark.parametrize("count_labels", ["pseudo", "noisy"])
@pytest.mark.parametrize("n, k, n_classes", [(2, 1, 1), (2, 1, 2), (9, 8, 3), (9, 1, 1),
                                             # neighbour ids in uint8, then uint16
                                             (256, 255, 3), (256, 40, 4),
                                             (257, 256, 3), (257, 40, 4)])
def test_vote_edge_sizes_match_per_row_reference(n, k, n_classes, count_labels):
    rng = np.random.default_rng(n * 10 + k)
    bank = tied_bank(rng, n, dim=2, n_distinct=2, one_hot=True)
    noisy = rng.integers(0, n_classes, size=n)
    assert_matches_reference(bank, noisy, k, n_classes, count_labels)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_distinct=st.sampled_from([3, 40, MULTI_BLOCK_N]),
       k=st.sampled_from([1, 25, MULTI_BLOCK_N - 1]), count_labels=st.sampled_from(["pseudo", "noisy"]))
def test_vote_property_spans_several_row_blocks(seed, n_distinct, k, count_labels):
    assert len(row_blocks(MULTI_BLOCK_N)) > 2  # blocks chain
    rng = np.random.default_rng(seed)
    bank = tied_bank(rng, MULTI_BLOCK_N, dim=4, n_distinct=n_distinct, one_hot=n_distinct == 3)
    noisy = rng.integers(0, 4, size=MULTI_BLOCK_N)
    assert_matches_reference(bank, noisy, k, 4, count_labels)


def test_labels_outside_class_range_rejected():
    bank = angles_to_bank(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="labels"):
        aggregate_pseudo_labels(bank, np.array([0, 1, 2]), k=2, n_classes=2)
    with pytest.raises(ValueError, match="labels"):
        aggregate_pseudo_labels(bank, np.array([0, -1, 1]), k=2, n_classes=2)


# Row-block scratch of the vote: a (b, n) block of similarities with its
# argpartition indices and tie mask at max(_BLOCK_ELEMENTS, _MIN_BLOCK_ROWS
# * n) cells each, the (b, k) label keys and the (n, n_classes) counts and
# posterior; about 1.5 MiB at n = 2400.
VOTE_SCRATCH = 2 * 1024 * 1024


@pytest.mark.parametrize("count_labels", ["pseudo", "noisy"])
def test_vote_peak_memory(count_labels):
    rng = np.random.default_rng(5)
    n, k = 2400, 250
    bank = EmbeddingBank(z=unit_rows(rng.normal(size=(n, 16))))
    noisy = rng.integers(0, 4, size=n)
    tracemalloc.start()
    try:
        aggregate_pseudo_labels(bank, noisy, k=k, n_classes=4, count_labels=count_labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # pass 2 reads one (n, k) array of neighbour sets, uint16 below n = 65537;
    # the noisy ablation has no pass 2 and keeps none
    kept = 2 * n * k if count_labels == "pseudo" else 0
    assert peak <= kept + VOTE_SCRATCH, f"{peak / 2 ** 20:.2f} MiB"
