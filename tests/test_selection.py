"""Tests for confident-example / confident-pair selection against hand cases
and an independent brute-force reimplementation.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_selection, full_mask, mask_pairs, pair_mask

from selcontrast import neighbors, selection
from selcontrast.neighbors import EmbeddingBank, PseudoLabelState, row_blocks
from selcontrast.selection import (SelectionState, nearest_rank_fractile, run_selection,
                                   select_confident_examples, select_confident_pairs)


def unit_rows(m):
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# nearest-rank fractile
# ---------------------------------------------------------------------------

def test_fractile_hand_cases():
    values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert nearest_rank_fractile(values, 0.0) == 10      # minimum convention
    assert nearest_rank_fractile(values, 1.0) == 100     # maximum
    assert nearest_rank_fractile(values, 0.25) == 30     # ceil(2.5) = 3rd
    assert nearest_rank_fractile(values, 0.3) == 30      # ceil(3.0) = 3rd
    assert nearest_rank_fractile(values, 0.31) == 40     # ceil(3.1) = 4th


def test_fractile_two_values_median_convention():
    # counts {4, 8} at the 50% fractile -> ceil(0.5 * 2) = 1st smallest = 4
    assert nearest_rank_fractile([8, 4], 0.5) == 4


def test_fractile_float_product_guard():
    # 0.15 * 20 = 3.0000000000000004 in floats; must still rank 3rd
    values = list(range(1, 21))
    assert nearest_rank_fractile(values, 0.15) == 3


def test_fractile_singleton_and_validation():
    assert nearest_rank_fractile([7], 0.0) == 7
    assert nearest_rank_fractile([7], 1.0) == 7
    with pytest.raises(ValueError):
        nearest_rank_fractile([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank_fractile([1], 1.5)


def test_fractile_similarity_example():
    # similarities {0.1, 0.2, 0.3, 0.4} at beta=25% -> 0.1
    assert nearest_rank_fractile([0.4, 0.2, 0.1, 0.3], 0.25) == pytest.approx(0.1)
    # beta=0 -> minimum
    assert nearest_rank_fractile([0.2, 0.5, 0.9], 0.0) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# confident examples
# ---------------------------------------------------------------------------

def pseudo_state(y_hat, q_hat, k=3):
    return PseudoLabelState(y_hat=np.asarray(y_hat), q_hat=np.asarray(q_hat, float), k=k)


def test_confident_budget_from_agreement_fractile():
    # class 0: 4 agreements, class 1: 8 agreements, alpha=0.5 -> budget 4
    noisy = np.array([0] * 6 + [1] * 8)
    y_hat = np.array([0] * 4 + [1] * 2 + [1] * 8)
    q = np.zeros((14, 2))
    q[np.arange(14), noisy] = 0.9
    q[:, 1 - noisy] = 0.1
    per_class, budget = select_confident_examples(pseudo_state(y_hat, q), noisy, 0.5)
    assert budget == 4
    assert [len(x) for x in per_class] == [4, 4]


def test_confident_alpha_zero_takes_min_class_count():
    noisy = np.array([0, 0, 0, 1, 1])
    q = np.full((5, 2), 0.5)
    per_class, budget = select_confident_examples(pseudo_state(noisy, q), noisy, 0.0)
    assert budget == 2
    assert all(np.isfinite(-np.log(q[i, noisy[i]] + 1e-12)) for c in per_class for i in c)


def test_confident_keeps_lowest_loss_members():
    # agreement counts are {4, 0} (class 1 is unpopulated), so only the
    # 1.0-fractile reaches budget 4
    noisy = np.array([0, 0, 0, 0])
    y_hat = np.array([0, 0, 0, 0])
    q = np.array([[0.9, 0.1],
                  [0.2, 0.8],
                  [0.7, 0.3],
                  [0.4, 0.6]])
    per_class, budget = select_confident_examples(pseudo_state(y_hat, q), noisy, 1.0)
    assert budget == 4
    np.testing.assert_array_equal(per_class[0], [0, 1, 2, 3])
    state = pseudo_state(np.array([0, 1, 0, 1]), q)  # only 2 agreements now
    per_class, budget = select_confident_examples(state, noisy, 1.0)
    assert budget == 2
    np.testing.assert_array_equal(per_class[0], [0, 2])  # smallest -log q[., 0]


def test_confident_zero_posterior_sorts_last():
    noisy = np.array([0, 0, 0])
    q = np.array([[0.0, 1.0],
                  [0.5, 0.5],
                  [0.3, 0.7]])
    state = pseudo_state(np.array([0, 0, 0]), q)
    per_class, budget = select_confident_examples(state, noisy, 1.0)
    assert budget == 3
    np.testing.assert_array_equal(per_class[0], [0, 1, 2])
    per_class, _ = select_confident_examples(state, noisy, 0.0)
    # budget 3 again (single class); restrict via a two-class variant instead
    noisy2 = np.array([0, 0, 0, 1])
    q2 = np.vstack([q, [0.0, 1.0]])
    state2 = pseudo_state(np.array([0, 0, 0, 1]), q2)
    per_class2, budget2 = select_confident_examples(state2, noisy2, 0.0)
    assert budget2 == 1
    np.testing.assert_array_equal(per_class2[0], [1])  # q=0.5 beats q=0.3 and q=0.0


def test_confident_empty_class_yields_empty_list():
    noisy = np.array([0, 0, 0])
    q = np.full((3, 2), 0.5)
    per_class, _ = select_confident_examples(pseudo_state(noisy, q), noisy, 0.5)
    assert per_class[1].size == 0


def test_confident_budget_monotone_in_alpha():
    rng = np.random.default_rng(6)
    noisy = rng.integers(0, 3, size=30)
    y_hat = np.where(rng.random(30) < 0.6, noisy, rng.integers(0, 3, size=30))
    q = rng.dirichlet(np.ones(3), size=30)
    state = pseudo_state(y_hat, q)
    budgets = [select_confident_examples(state, noisy, a)[1]
               for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert budgets == sorted(budgets)
    # and selection grows as supersets with the budget
    sel = [set(np.concatenate(select_confident_examples(state, noisy, a)[0]))
           for a in (0.0, 0.5, 1.0)]
    assert sel[0] <= sel[1] <= sel[2]


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def select(noisy, y_hat, q_hat, alpha=1.0, beta=0.25, z=None):
    noisy = np.asarray(noisy)
    if z is None:
        z = unit_rows(np.random.default_rng(5).normal(size=(len(noisy), 3)))
    return run_selection(EmbeddingBank(z=z), noisy,
                         pseudo_state(y_hat, q_hat), alpha=alpha, beta=beta)


def test_pairs_from_confident_enumeration():
    # agreement counts {2, 3, 1}; alpha=0.5 -> budget 2: class 0 keeps {1, 2},
    # class 1 its two lowest-loss members {3, 4}, class 2 its only member 5
    noisy = np.array([1, 0, 0, 1, 1, 2])
    q = np.full((6, 3), 0.1)
    q[np.arange(6), noisy] = [0.2, 0.8, 0.8, 0.8, 0.7, 0.8]
    state = select(noisy, noisy, q, alpha=0.5)
    np.testing.assert_array_equal(state.confident, [1, 2, 3, 4, 5])
    assert state.pairs_confident == {(1, 2), (3, 4)}
    assert state.n_pairs_confident == 2


def test_pairs_from_confident_empty_and_combinatorics():
    noisy = np.array([0, 0, 0, 0])
    q = np.array([[0.9, 0.1]] * 4)
    state = select(noisy, noisy, q, alpha=1.0)
    assert len(state.pairs_confident) == 6  # C(4, 2)
    assert state.n_pairs_confident == 6
    # no agreement anywhere: budget 0, nothing confident, no pairs at all
    state = select(noisy, 1 - noisy, q, alpha=1.0)
    assert state.confident.size == 0
    assert mask_pairs(full_mask(state, 4)) == []
    assert state.pairs == frozenset() and state.n_pairs_confident == 0


def six_on_circle():
    # six points on the circle; similarities fully hand-controllable
    angles = np.array([0.0, 0.05, 0.10, 1.5, 1.55, 3.0])
    z = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    noisy = np.array([0, 0, 0, 1, 1, 0])
    return z, noisy


def blocks_of(indices, noisy, n_classes):
    """The per-class confident blocks of a set of confident indices."""
    indices = np.asarray(sorted(indices), dtype=np.int64)
    return [indices[noisy[indices] == c] for c in range(n_classes)]


def selection_of(bank, noisy, blocks, beta):
    """The selection made of the given confident blocks and the cut
    select_confident_pairs reads from them."""
    gamma = select_confident_pairs(bank, noisy, blocks, beta=beta)
    confident = np.sort(np.concatenate(blocks)) if blocks else np.empty(0, dtype=np.int64)
    return SelectionState(noisy_labels=np.asarray(noisy), confident_by_class=blocks,
                          confident=confident.astype(np.int64), sim_threshold=gamma,
                          z=bank.z, per_class_quota=0)


def test_similar_pairs_strict_threshold_and_full_scan():
    z, noisy = six_on_circle()
    bank = EmbeddingBank(z=z)
    sims = bank.z @ bank.z.T
    gamma_expected = sorted([sims[0, 1], sims[3, 4]])[0]  # beta=0 -> minimum
    state = selection_of(bank, noisy, [np.array([0, 1]), np.array([3, 4])], beta=0.0)
    assert state.sim_threshold == gamma_expected
    expected = sorted((i, j) for i in range(6) for j in range(i + 1, 6)
                      if noisy[i] == noisy[j] and sims[i, j] > state.sim_threshold)
    assert sorted(state.pairs_similar) == expected
    for i, j in state.pairs_similar:
        assert sims[i, j] > state.sim_threshold  # strictly


def test_similar_pairs_symmetric_on_grid_rows():
    # on the bank's grid rows the similarity matrix is bit-symmetric, so
    # reading pair {i, j} as (i, j) or (j, i) gives the same status
    z, noisy = six_on_circle()
    bank = EmbeddingBank(z=z)
    sims = bank.z @ bank.z.T
    assert sims.tobytes() == sims.T.copy().tobytes()
    state = selection_of(bank, noisy, [np.array([0, 1]), np.array([3, 4])], beta=1.0)
    assert state.sim_threshold == max(sims[0, 1], sims[3, 4])
    expected = sorted((i, j) for i in range(6) for j in range(i + 1, 6)
                      if noisy[i] == noisy[j] and sims[i, j] > state.sim_threshold)
    assert sorted(state.pairs_similar) == expected
    assert mask_pairs(full_mask(state, 6)) == sorted(state.pairs)  # symmetric, False diagonal


def test_similar_pairs_empty_confident_degenerates():
    bank = EmbeddingBank(z=unit_rows(np.random.default_rng(7).normal(size=(4, 2))))
    for blocks in ([np.empty(0, dtype=np.int64)], [np.array([2])], []):
        state = selection_of(bank, np.zeros(4, dtype=int), blocks, beta=0.5)
        assert math.isinf(state.sim_threshold)
        assert state.pairs_similar == frozenset() and state.n_pairs_similar == 0
        assert mask_pairs(full_mask(state, 4)) == []


def test_similar_pairs_reject_a_block_of_another_label():
    z, noisy = six_on_circle()
    with pytest.raises(ValueError, match="confident block 1"):
        select_confident_pairs(EmbeddingBank(z=z), noisy, [np.array([0, 1]), np.array([3, 5])],
                               beta=0.5)


def test_similar_pairs_monotone_in_beta():
    rng = np.random.default_rng(8)
    z = unit_rows(rng.normal(size=(15, 3)))
    bank = EmbeddingBank(z=z)
    noisy = rng.integers(0, 2, size=15)
    blocks = blocks_of(np.flatnonzero(rng.random(15) < 0.6), noisy, 2)
    sizes = [selection_of(bank, noisy, blocks, beta=b).n_pairs_similar
             for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert sizes == sorted(sizes, reverse=True)  # lower beta keeps more pairs
    assert sizes[0] > sizes[-1]


def test_union_pairs_dedup_and_canonical_form():
    rng = np.random.default_rng(9)
    z = unit_rows(rng.normal(size=(12, 3)))
    noisy = rng.integers(0, 2, size=12)
    q = rng.dirichlet(np.ones(2), size=12)
    state = select(noisy, noisy, q, alpha=0.5, beta=0.0, z=z)
    np.testing.assert_array_equal(full_mask(state, 12),
                                  pair_mask(state.pairs_confident, 12)
                                  | pair_mask(state.pairs_similar, 12))
    union = state.pairs_confident | state.pairs_similar
    assert mask_pairs(full_mask(state, 12)) == sorted(union)
    assert state.pairs == union
    assert all(i < j for i, j in state.pairs)


def test_pair_views_mirror_masks():
    rng = np.random.default_rng(10)
    z = unit_rows(rng.normal(size=(10, 3)))
    noisy = rng.integers(0, 3, size=10)
    q = rng.dirichlet(np.ones(3), size=10)
    state = select(noisy, noisy, q, alpha=1.0, beta=0.5, z=z)
    sims = state.z @ state.z.T
    same = noisy[:, None] == noisy[None, :]
    flags = state.is_confident
    confident_mask = same & flags[:, None] & flags[None, :] & ~np.eye(10, dtype=bool)
    similar_mask = same & (sims > state.sim_threshold) & ~np.eye(10, dtype=bool)
    for view, mask in ((state.pairs_confident, confident_mask),
                       (state.pairs_similar, similar_mask),
                       (state.pairs, full_mask(state, 10))):
        assert isinstance(view, frozenset)
        assert sorted(view) == mask_pairs(mask)  # symmetric, False diagonal
        assert all(type(i) is int and type(j) is int for i, j in view)
        np.testing.assert_array_equal(pair_mask(view, 10), mask)
    assert state.pairs is state.pairs  # built once, then cached
    assert state.n_pairs_similar == len(state.pairs_similar)


# ---------------------------------------------------------------------------
# full pipeline vs brute force (reference implementation in tests/oracles.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(10))
def test_selection_pipeline_matches_brute_force(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(6, 13))
    classes = int(rng.integers(2, 4))
    z = unit_rows(rng.normal(size=(n, 3)))
    noisy = rng.integers(0, classes, size=n)
    y_hat = np.where(rng.random(n) < 0.5, noisy, rng.integers(0, classes, size=n))
    q_hat = rng.dirichlet(np.ones(classes), size=n)
    alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
    beta = float(rng.choice([0.0, 0.25, 0.5, 1.0]))

    bank = EmbeddingBank(z=z)
    state = run_selection(bank, noisy, PseudoLabelState(y_hat=y_hat, q_hat=q_hat, k=3),
                          alpha=alpha, beta=beta)
    exp_T, exp_gp, exp_gamma, exp_gpp, exp_g = brute_force_selection(
        bank.z, noisy, y_hat, q_hat, alpha, beta)

    np.testing.assert_array_equal(state.confident, exp_T)
    assert state.pairs_confident == exp_gp
    if math.isinf(exp_gamma):
        assert math.isinf(state.sim_threshold)
    else:
        assert state.sim_threshold == pytest.approx(exp_gamma, abs=1e-12)
    assert state.pairs_similar == exp_gpp
    assert state.pairs == exp_g


def test_selection_state_invariants_on_random_instance():
    rng = np.random.default_rng(42)
    z = unit_rows(rng.normal(size=(20, 4)))
    noisy = rng.integers(0, 3, size=20)
    y_hat = np.where(rng.random(20) < 0.7, noisy, rng.integers(0, 3, size=20))
    q_hat = rng.dirichlet(np.ones(3), size=20)
    state = run_selection(EmbeddingBank(z=z), noisy,
                          PseudoLabelState(y_hat=y_hat, q_hat=q_hat, k=5),
                          alpha=0.5, beta=0.25)
    # class balance: every class holds min(budget, population) members
    for c, members in enumerate(state.confident_by_class):
        population = int(np.sum(noisy == c))
        assert len(members) == min(state.per_class_quota, population)
        assert np.all(noisy[members] == c)
    # the boolean membership array marks exactly the confident examples
    assert state.is_confident.dtype == bool and len(state.is_confident) == 20
    np.testing.assert_array_equal(np.flatnonzero(state.is_confident), state.confident)
    # pair sets nest in the union; confident pairs live inside the confident set
    assert state.pairs_confident <= state.pairs
    assert state.pairs_similar <= state.pairs
    confident = set(state.confident.tolist())
    for i, j in state.pairs_confident:
        assert i in confident and j in confident and noisy[i] == noisy[j]
    sims = state.z @ state.z.T
    for i, j in state.pairs_similar:
        assert noisy[i] == noisy[j] and sims[i, j] > state.sim_threshold


# ---------------------------------------------------------------------------
# pair_block against the brute-force pair set
# ---------------------------------------------------------------------------

@st.composite
def pair_block_cases(draw):
    """A selection instance plus row and column index lists: a minibatch's
    twin views (every index twice), shuffled lists, or an empty row list.
    The kinds "single class" and "no pairs" force one class and a confident
    set without pairs (gamma = +inf)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "single class", "no pairs"]))
    n = draw(st.integers(2, 40))
    classes = 1 if kind == "single class" else draw(st.integers(2, 4))
    z = unit_rows(rng.normal(size=(n, draw(st.sampled_from([2, 8, 32])))))
    noisy = rng.integers(0, classes, size=n)
    y_hat = np.where(rng.random(n) < 0.7, noisy, rng.integers(0, classes, size=n))
    if kind == "no pairs":
        y_hat = (noisy + 1) % classes  # nobody agrees: the quota is 0
    q_hat = rng.dirichlet(np.ones(classes), size=n)
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    beta = draw(st.sampled_from([0.0, 0.25, 1.0]))
    batch = rng.integers(0, n, size=draw(st.integers(1, 12)))
    lists = draw(st.sampled_from(["twins", "shuffled", "empty"]))
    if lists == "twins":
        rows = cols = np.concatenate([batch, batch])
    elif lists == "shuffled":
        rows, cols = rng.permutation(n)[:len(batch)], rng.permutation(np.concatenate([batch, batch]))
    else:
        rows, cols = np.empty(0, dtype=np.int64), batch
    return z, noisy, y_hat, q_hat, alpha, beta, rows, cols


@settings(max_examples=120, deadline=None, derandomize=True)
@given(pair_block_cases())
def test_pair_block_matches_brute_force_pairs(case):
    z, noisy, y_hat, q_hat, alpha, beta, rows, cols = case
    bank = EmbeddingBank(z=z)
    state = run_selection(bank, noisy, pseudo_state(y_hat, q_hat), alpha=alpha, beta=beta)
    *_, gamma, _, union = brute_force_selection(bank.z, noisy, y_hat, q_hat, alpha, beta)
    assert state.sim_threshold == gamma or math.isinf(gamma) and math.isinf(state.sim_threshold)
    want = pair_mask(union, len(noisy))[np.ix_(rows, cols)]
    got = state.pair_block(rows, cols)
    assert got.dtype == bool and got.shape == (len(rows), len(cols))
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# banks that span several row blocks, the last one shorter
# ---------------------------------------------------------------------------

def random_instance(rng, n, classes):
    z = unit_rows(rng.normal(size=(n, 3)))
    noisy = rng.integers(0, classes, size=n)
    y_hat = np.where(rng.random(n) < 0.7, noisy, rng.integers(0, classes, size=n))
    return z, noisy, y_hat, rng.dirichlet(np.ones(classes), size=n)


@pytest.mark.parametrize("n,rows,beta", [(23, 5, 0.25), (40, 7, 0.5), (41, 4, 0.0),
                                         (29, 6, 0.75)])
def test_selection_matches_brute_force_across_row_blocks(monkeypatch, n, rows, beta):
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", rows * n)
    monkeypatch.setattr(neighbors, "_MIN_BLOCK_ROWS", 1)
    sizes = [stop - start for start, stop in row_blocks(n)]
    assert len(sizes) > 2 and max(sizes) == rows > min(sizes)
    rng = np.random.default_rng([204, n])
    z, noisy, y_hat, q = random_instance(rng, n, 3)
    state = assert_matches_oracle(z, noisy, y_hat, q, alpha=1.0, beta=beta)
    assert state.n_pairs_similar > 0


def test_selection_matches_brute_force_with_the_default_blocks():
    n = 600
    assert len(row_blocks(n)) > 1
    z, noisy, y_hat, q = random_instance(np.random.default_rng(205), n, 4)
    state = assert_matches_oracle(z, noisy, y_hat, q, alpha=0.5, beta=0.25)
    assert state.n_pairs_similar > 0


@pytest.mark.parametrize("rows", [1, 4, 9])
def test_similar_pairs_read_upper_triangle_only_across_row_blocks(monkeypatch, rows):
    # each pass over the similar pairs computes every same-label cell
    # (i, j), i < j, exactly once and no cell of two labels; below the
    # diagonal it touches only the square block of its own rows, whose lower
    # half np.triu drops
    n = 37
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", rows * 16)
    monkeypatch.setattr(neighbors, "_MIN_BLOCK_ROWS", 1)
    rng = np.random.default_rng(206)
    bank = EmbeddingBank(z=unit_rows(rng.normal(size=(n, 3))))
    noisy = rng.integers(0, 2, size=n)
    assert all(len(row_blocks(int(np.sum(noisy == c)))) > 2 for c in (0, 1))
    state = selection_of(bank, noisy, blocks_of(np.flatnonzero(rng.random(n) < 0.5), noisy, 2),
                         beta=0.5)
    visited = np.zeros((n, n), dtype=int)
    real = SelectionState._similar_block

    def logged(self, rows, cols):
        np.add.at(visited, np.ix_(rows, cols), 1)
        return real(self, rows, cols)
    monkeypatch.setattr(SelectionState, "_similar_block", logged)
    sims = bank.z @ bank.z.T
    expected = [(i, j) for i in range(n) for j in range(i + 1, n)
                if noisy[i] == noisy[j] and sims[i, j] > state.sim_threshold]
    assert sorted(state.pairs_similar) == expected
    assert state.n_pairs_similar == len(expected) > 0
    same = noisy[:, None] == noisy[None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    assert np.all(visited[upper & same] == 2)  # two passes: the pair set and the count
    assert not visited[~same].any()
    block_of = np.empty(n, dtype=int)  # each example's row block within its class
    for c in (0, 1):
        members = np.flatnonzero(noisy == c)
        for b, (start, stop) in enumerate(row_blocks(len(members))):
            block_of[members[start:stop]] = b
    below, = np.nonzero(np.tril(visited, -1).ravel())
    np.testing.assert_array_equal(block_of[below // n], block_of[below % n])


# ---------------------------------------------------------------------------
# degenerate selections vs brute force, compared through the mask adapter
# ---------------------------------------------------------------------------

def assert_matches_oracle(z, noisy, y_hat, q_hat, alpha, beta):
    noisy, y_hat, q_hat = np.asarray(noisy), np.asarray(y_hat), np.asarray(q_hat, float)
    bank = EmbeddingBank(z=z)
    state = run_selection(bank, noisy, pseudo_state(y_hat, q_hat), alpha=alpha, beta=beta)
    exp_T, exp_gp, exp_gamma, exp_gpp, exp_g = brute_force_selection(
        bank.z, noisy, y_hat, q_hat, alpha, beta)
    assert state.confident.tolist() == exp_T
    assert sorted(state.pairs_confident) == sorted(exp_gp)
    if math.isinf(exp_gamma):
        assert math.isinf(state.sim_threshold)
    else:
        assert state.sim_threshold == exp_gamma
    assert sorted(state.pairs_similar) == sorted(exp_gpp)
    assert mask_pairs(full_mask(state, len(noisy))) == sorted(exp_g)
    assert state.n_pairs_confident == len(exp_gp)
    assert state.n_pairs_similar == len(exp_gpp)
    return state


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])
def test_degenerate_single_class(alpha, beta):
    rng = np.random.default_rng(200)
    z = unit_rows(rng.normal(size=(7, 3)))
    noisy = np.zeros(7, dtype=int)
    q = np.ones((7, 1))  # every loss ties at 0: ranking falls back to the index
    state = assert_matches_oracle(z, noisy, noisy, q, alpha, beta)
    assert state.confident.size == 7 and state.n_pairs_confident == 21


def test_degenerate_class_of_one_example():
    rng = np.random.default_rng(201)
    z = unit_rows(rng.normal(size=(9, 3)))
    noisy = np.array([0, 0, 0, 0, 1, 2, 2, 2, 2])
    q = rng.dirichlet(np.ones(3), size=9)
    for alpha in (0.0, 0.5, 1.0):
        for beta in (0.0, 0.5):
            state = assert_matches_oracle(z, noisy, noisy, q, alpha, beta)
            assert 4 in state.confident  # the singleton class keeps its member ...
            assert not state.pair_block([4], np.arange(9)).any()  # ... which has no partner


def test_degenerate_quota_one_has_no_pairs_and_infinite_threshold():
    rng = np.random.default_rng(202)
    z = unit_rows(rng.normal(size=(8, 3)))
    noisy = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    y_hat = np.array([0, 1, 1, 1, 1, 1, 2, 2])  # agreement counts {1, 3, 2}
    q = rng.dirichlet(np.ones(3), size=8)
    state = assert_matches_oracle(z, noisy, y_hat, q, alpha=0.0, beta=0.5)
    assert state.per_class_quota == 1
    assert math.isinf(state.sim_threshold)
    assert not full_mask(state, 8).any() and state.pairs == frozenset()


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("trial", range(4))
def test_degenerate_beta_extremes(beta, trial):
    rng = np.random.default_rng([203, trial])
    n = int(rng.integers(8, 16))
    z = unit_rows(rng.normal(size=(n, 3)))
    noisy = rng.integers(0, 3, size=n)
    y_hat = np.where(rng.random(n) < 0.7, noisy, rng.integers(0, 3, size=n))
    q = rng.dirichlet(np.ones(3), size=n)
    state = assert_matches_oracle(z, noisy, y_hat, q, alpha=1.0, beta=beta)
    if beta == 1.0 and state.n_pairs_confident:
        # the cut sits at the largest confident-pair similarity, so no
        # confident pair is also a similar one
        assert not state.pairs_confident & state.pairs_similar


@pytest.mark.parametrize("noisy", [[0, 0], [0, 1], [1, 1]])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_degenerate_two_examples(noisy, beta):
    z = unit_rows(np.array([[1.0, 0.0], [0.6, 0.8]]))
    q = np.array([[0.7, 0.3], [0.4, 0.6]])
    for y_hat in ([0, 0], [0, 1], [1, 1]):
        assert_matches_oracle(z, noisy, y_hat, q, alpha=1.0, beta=beta)


# ---------------------------------------------------------------------------
# the similarity cut, found by bucket counts, on hard inputs
# ---------------------------------------------------------------------------

@pytest.fixture
def narrow(monkeypatch):
    """Four buckets per pass, at most three values gathered and one-row
    blocks, so that the cut narrows its key range over several passes even
    at these sizes. Returns the list that counts the passes over the pairs."""
    monkeypatch.setattr(selection, "_FRACTILE_BUCKET_BITS", 2)
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", 3)
    monkeypatch.setattr(neighbors, "_MIN_BLOCK_ROWS", 1)
    passes = []
    real = selection._confident_pair_sims

    def counted(z, confident_by_class):
        passes.append(len(passes))
        return real(z, confident_by_class)
    monkeypatch.setattr(selection, "_confident_pair_sims", counted)
    return passes


def confident_sims(state):
    """The confident pairs' similarities, sorted, from the full product."""
    sims = state.z @ state.z.T
    return sorted(sims[i, j] for i, j in state.pairs_confident)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_cut_of_a_collapsed_embedding_matches_brute_force(narrow, beta):
    # every row is the same vector, so every confident similarity is one
    # value: all of them stay in one bucket until it is a single key
    rng = np.random.default_rng(210)
    n = 14
    z = np.tile(unit_rows(rng.normal(size=(1, 4))), (n, 1))
    noisy = rng.integers(0, 2, size=n)
    state = assert_matches_oracle(z, noisy, noisy, rng.dirichlet(np.ones(2), size=n),
                                  alpha=1.0, beta=beta)
    assert len(set(confident_sims(state))) == 1 and state.n_pairs_confident > 3
    assert len(narrow) == 25  # 50 key bits, 2 per pass, and no gathering pass
    assert state.n_pairs_similar == 0  # nothing lies strictly above the common value


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("trial", range(3))
def test_cut_of_negative_and_unit_similarities_matches_brute_force(narrow, beta, trial):
    # signed axes give similarities of exactly -1, 0 and 1, the random rows
    # negative ones in between
    rng = np.random.default_rng([211, trial])
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    z = np.concatenate([axes[rng.integers(0, 6, size=12)], unit_rows(rng.normal(size=(8, 3)))])
    noisy = rng.integers(0, 2, size=len(z))
    state = assert_matches_oracle(z, noisy, noisy, rng.dirichlet(np.ones(2), size=len(z)),
                                  alpha=1.0, beta=beta)
    values = confident_sims(state)
    assert values[0] == -1.0 and values[-1] == 1.0 and 0.0 in values


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_cut_of_a_single_confident_pair_is_its_similarity(narrow, beta):
    # class 0 has the only two members, so the quota of 2 makes one pair
    rng = np.random.default_rng(212)
    z = unit_rows(rng.normal(size=(5, 3)))
    noisy = np.array([0, 1, 0, 2, 3])
    state = assert_matches_oracle(z, noisy, noisy, rng.dirichlet(np.ones(4), size=5),
                                  alpha=1.0, beta=beta)
    assert state.n_pairs_confident == 1
    assert state.sim_threshold == state.z[0] @ state.z[2]
    assert len(narrow) == 2  # one count and one gathering pass


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("trial", range(3))
def test_cut_with_ties_across_the_rank_matches_brute_force(narrow, beta, trial):
    # three distinct rows give at most six distinct similarities, so each
    # value repeats and the rank falls inside a run of equal values
    rng = np.random.default_rng([213, trial])
    pool = unit_rows(rng.normal(size=(3, 4)))
    z = pool[rng.integers(0, 3, size=24)]
    noisy = rng.integers(0, 2, size=24)
    state = assert_matches_oracle(z, noisy, noisy, rng.dirichlet(np.ones(2), size=24),
                                  alpha=1.0, beta=beta)
    values = confident_sims(state)
    tied = [i for i, v in enumerate(values) if v == state.sim_threshold]
    assert len(tied) > 1
    if 0.0 < beta < 1.0:
        assert tied[0] > 0 and tied[-1] < len(values) - 1  # other values lie on both sides
    assert len(narrow) > 3
