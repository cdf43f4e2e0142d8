"""Tests for evaluation metrics: weighted-KNN oracle cases and properties
against the per-row reference, precision arithmetic, and the
principal-component projection dump.
"""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import MaskPairs, full_mask, reference_knn_predictions

from selcontrast.evaluation import (dump_projection_2d, pair_precision, project_2d,
                                    selection_precision, weighted_knn_eval)
from selcontrast.neighbors import grid_rows, row_blocks
from selcontrast.selection import SelectionState


def unit_rows(m):
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_state(confident, noisy):
    """A selection without a similarity cut: its pairs are the same-label
    pairs inside the confident set."""
    confident = np.asarray(confident, dtype=np.int64)
    noisy = np.asarray(noisy)
    return SelectionState(noisy_labels=noisy,
                          confident_by_class=[confident[noisy[confident] == c]
                                              for c in range(int(noisy.max()) + 1)],
                          confident=confident, sim_threshold=math.inf,
                          z=np.zeros((len(noisy), 2)), per_class_quota=0)


# ---------------------------------------------------------------------------
# weighted KNN
# ---------------------------------------------------------------------------

def test_knn_duplicated_test_points_score_perfectly():
    rng = np.random.default_rng(0)
    train = unit_rows(rng.normal(size=(20, 4)))
    labels = rng.integers(0, 3, size=20)
    acc = weighted_knn_eval(train, labels, train.copy(), labels, k=1, tau=0.1)
    assert acc == 100.0


def test_knn_separated_clusters_clean_labels():
    rng = np.random.default_rng(1)
    centers = np.array([[20.0, 0.0], [-20.0, 0.0]])
    train_labels = np.repeat([0, 1], 15)
    train = centers[train_labels] + rng.normal(size=(30, 2))
    test_labels = np.repeat([0, 1], 5)
    test = centers[test_labels] + rng.normal(size=(10, 2))
    assert weighted_knn_eval(train, train_labels, test, test_labels, k=5, tau=0.1) == 100.0


def test_knn_hand_computed_weighted_vote():
    """5 train / 2 test points on the unit circle; votes summed by hand."""
    train_angles = np.array([0.0, 0.2, 0.4, 2.0, 2.2])
    train_labels = np.array([0, 0, 1, 1, 1])
    test_angles = np.array([0.1, 2.1])
    train = np.stack([np.cos(train_angles), np.sin(train_angles)], axis=1)
    test = np.stack([np.cos(test_angles), np.sin(test_angles)], axis=1)

    expected = []
    for t, ta in enumerate(test_angles):
        sims = np.cos(ta - train_angles)             # cosine of angle gap
        top3 = np.argsort(-sims)[:3]
        votes = {}
        for j in top3:
            votes[train_labels[j]] = votes.get(train_labels[j], 0.0) \
                + math.exp(sims[j] / 0.1)
        expected.append(max(sorted(votes), key=lambda c: votes[c]))
    # test point 0 -> label 0 (two class-0 anchors dominate), point 1 -> 1
    assert expected == [0, 1]
    acc = weighted_knn_eval(train, train_labels, test, np.array(expected),
                            k=3, tau=0.1)
    assert acc == 100.0
    flipped = weighted_knn_eval(train, train_labels, test,
                                np.array(expected)[::-1], k=3, tau=0.1)
    assert flipped == 0.0


def knn_predictions(train, train_labels, test, k):
    """Recover the per-point predictions by probing one point per call."""
    preds = []
    for row in test:
        for c in range(int(train_labels.max()) + 1):
            if weighted_knn_eval(train, train_labels, row[None, :],
                                 np.array([c]), k=k, tau=0.1) == 100.0:
                preds.append(c)
                break
    return preds


def test_knn_scale_invariance_as_prediction_equality():
    rng = np.random.default_rng(2)
    train = rng.normal(size=(25, 3))
    test = rng.normal(size=(8, 3))
    train_labels = rng.integers(0, 3, size=25)
    base = knn_predictions(train, train_labels, test, k=7)
    scaled = knn_predictions(train * 0.3, train_labels, test * 17.0, k=7)
    assert len(base) == 8
    assert base == scaled


def test_knn_tie_breaks_to_smaller_class():
    # two train points mirror-symmetric around the test point, labels 1 and 0
    train = unit_rows(np.array([[1.0, 0.1], [1.0, -0.1]]))
    test = unit_rows(np.array([[1.0, 0.0]]))
    acc = weighted_knn_eval(train, np.array([1, 0]), test, np.array([0]), k=2, tau=0.1)
    assert acc == 100.0


def test_knn_validates_arguments():
    z = unit_rows(np.ones((3, 2)))
    with pytest.raises(ValueError):
        weighted_knn_eval(z, np.zeros(3, int), z, np.zeros(3, int), k=4, tau=0.1)
    with pytest.raises(ValueError):
        weighted_knn_eval(z, np.zeros(3, int), z, np.zeros(3, int), k=1, tau=0.0)
    with pytest.raises(ValueError):
        weighted_knn_eval(np.zeros((3, 2)), np.zeros(3, int), z, np.zeros(3, int), k=1,
                          tau=0.1)


def assert_knn_matches_reference(train, train_labels, test, k, tau, rng):
    preds = reference_knn_predictions(train, train_labels, test, k, tau)
    # scoring the reference's own predictions must give exactly 100; random
    # labels must give the same accuracy the reference gives
    assert weighted_knn_eval(train, train_labels, test, preds, k=k, tau=tau) == 100.0
    labels = rng.integers(0, int(train_labels.max()) + 1, size=len(test))
    want = 100.0 * int(np.count_nonzero(preds == labels)) / len(labels)
    assert weighted_knn_eval(train, train_labels, test, labels, k=k, tau=tau) == want


@st.composite
def knn_cases(draw):
    """Train and test rows drawn from a few shared vectors, so test points
    coincide with train points and the k-th similarity is often tied."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_train = draw(st.integers(1, 30))
    n_distinct = draw(st.integers(1, n_train))
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pool = np.eye(dim)[rng.integers(0, dim, size=n_distinct)]
    else:
        pool = rng.normal(size=(n_distinct, dim))
    train = pool[rng.integers(0, n_distinct, size=n_train)]
    test = pool[rng.integers(0, n_distinct, size=draw(st.integers(1, 20)))]
    n_classes = draw(st.integers(1, 4))
    train_labels = rng.integers(0, n_classes, size=n_train)
    k = draw(st.one_of(st.just(1), st.just(n_train), st.integers(1, n_train)))
    tau = draw(st.sampled_from([0.05, 0.1, 1.0]))
    return train, train_labels, test, k, tau, rng


@settings(max_examples=150, deadline=None, derandomize=True)
@given(knn_cases())
def test_knn_property_matches_per_row_reference(case):
    assert_knn_matches_reference(*case)


@pytest.mark.parametrize("n_classes", [1, 3])
def test_knn_spans_several_row_blocks(n_classes):
    assert len(row_blocks(200, 300)) > 1  # the 200 test rows chain several blocks
    rng = np.random.default_rng(n_classes)
    pool = rng.normal(size=(40, 4))
    train = pool[rng.integers(0, 40, size=300)]
    test = pool[rng.integers(0, 40, size=200)]
    train_labels = rng.integers(0, n_classes, size=300)
    for k in (1, 37, 300):
        assert_knn_matches_reference(train, train_labels, test, k, 0.1, rng)


@pytest.mark.parametrize("dim", [2, 8, 32, 128])
def test_knn_spans_several_row_blocks_at_any_width(dim):
    rng = np.random.default_rng(dim)
    train = rng.normal(size=(300, dim))
    test = rng.normal(size=(200, dim))
    train_labels = rng.integers(0, 4, size=300)
    for k in (1, 37, 300):
        assert_knn_matches_reference(train, train_labels, test, k, 0.1, rng)


# ---------------------------------------------------------------------------
# precision metrics
# ---------------------------------------------------------------------------

def test_selection_precision_arithmetic():
    true = np.array([0, 0, 1, 1, 0])
    noisy = np.array([0, 0, 1, 0, 0])
    state = make_state([0, 1, 3], noisy)
    assert state.pairs == {(0, 1), (0, 3), (1, 3)}
    prec_t, prec_g = selection_precision(state, true)
    assert prec_t == pytest.approx(100 * 2 / 3)
    # true classes: 0-1 same, 0-3 differ, 1-3 differ
    assert prec_g == pytest.approx(100 * 1 / 3)


def test_selection_precision_empty_sets_have_no_precision():
    state = make_state([], np.zeros(3, int))
    prec_t, prec_g = selection_precision(state, np.zeros(3, int))
    assert prec_t is None and prec_g is None
    # a confident set without pairs still has an example precision
    prec_t, prec_g = selection_precision(make_state([1], np.zeros(3, int)), np.zeros(3, int))
    assert prec_t == 100.0 and prec_g is None


def test_pair_precision_counts_matching_wrong_labels_as_correct():
    # both endpoints mislabeled, but their TRUE classes agree -> correct pair
    true = np.array([1, 1])
    assert pair_precision(MaskPairs.of({(0, 1)}, 2), true, np.array([0, 0])) == 100.0


def test_pair_precision_arithmetic():
    true = np.array([0, 1, 0, 1])
    noisy = np.zeros(4, dtype=int)
    pairs = MaskPairs.of({(0, 2), (1, 2), (1, 3)}, 4)
    assert pair_precision(pairs, true, noisy) == 100 * 2 / 3
    assert pair_precision(MaskPairs(np.zeros((4, 4), dtype=bool)), true, noisy) is None


@pytest.mark.parametrize("noisy", [[0] * 40, [0, 1] * 19 + [2, 1]],
                         ids=["single-class", "class-of-one"])
def test_pair_precision_per_class_matches_brute_force(noisy):
    rng = np.random.default_rng(11)
    noisy = np.asarray(noisy)
    n = len(noisy)
    true = rng.integers(0, 3, size=n)
    confident = np.union1d(np.flatnonzero(rng.random(n) < 0.3), [38])
    state = SelectionState(noisy_labels=noisy,
                           confident_by_class=[confident[noisy[confident] == c]
                                               for c in range(int(noisy.max()) + 1)],
                           confident=confident, sim_threshold=0.5,
                           z=grid_rows(unit_rows(rng.normal(size=(n, 3)))), per_class_quota=0)
    mask = full_mask(state, n)
    selected = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    good = sum(1 for i, j in selected if true[i] == true[j])
    assert 0 < good < len(selected)
    assert pair_precision(state, true, noisy) == 100.0 * good / len(selected)


# ---------------------------------------------------------------------------
# 2-d projection
# ---------------------------------------------------------------------------

def test_projection_matches_eigen_solver():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 6)) @ np.diag([5, 3, 1, 0.5, 0.2, 0.1])
    coords = project_2d(x)
    centered = x - x.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    top2 = evecs[:, ::-1][:, :2]
    expected = centered @ top2
    # eigenvectors are sign-ambiguous; compare column by column up to sign
    for col in range(2):
        direct = np.abs(np.dot(coords[:, col], expected[:, col]))
        assert direct == pytest.approx(np.linalg.norm(coords[:, col])
                                       * np.linalg.norm(expected[:, col]), rel=1e-8)
    # captured variance must match the top-2 eigenvalue mass
    assert np.sum(coords ** 2) == pytest.approx(evals[-1] + evals[-2], rel=1e-8)


def test_projection_output_is_centered_and_ordered():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 5)) * np.array([4, 2, 1, 1, 1])
    coords = project_2d(x)
    np.testing.assert_allclose(coords.mean(axis=0), 0.0, rtol=0, atol=1e-10)
    assert np.var(coords[:, 0]) >= np.var(coords[:, 1])


def test_projection_needs_three_points():
    with pytest.raises(ValueError):
        project_2d(np.zeros((2, 4)))


def test_projection_dump_rows_and_header(tmp_path):
    rng = np.random.default_rng(6)
    z = unit_rows(rng.normal(size=(9, 4)))
    true = rng.integers(0, 2, size=9)
    noisy = true.copy()
    mask = np.zeros(9, dtype=bool)
    mask[[1, 3]] = True
    path = tmp_path / "proj.csv"
    dump_projection_2d(z, true, noisy, mask, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "true_label", "noisy_label", "in_T"]
    assert len(rows) == 10
    assert [r[4] for r in rows[1:]] == ["0", "1", "0", "1", "0", "0", "0", "0", "0"]
    floats = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    assert np.all(np.isfinite(floats))
