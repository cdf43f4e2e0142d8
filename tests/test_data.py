"""Tests for dataset generation, label-noise injection, augmentation and CSV I/O."""
import numpy as np
import pytest

from selcontrast.data import (Dataset, augment, dump_features_csv, inject_noise,
                              load_features_csv, make_blobs, mixup)


# ---------------------------------------------------------------------------
# make_blobs
# ---------------------------------------------------------------------------

def test_blobs_balance_and_split_small():
    ds = make_blobs(10, 2, 2, 0.1, seed=1)
    counts = np.bincount(ds.true_labels, minlength=2)
    assert counts.tolist() == [5, 5]
    assert int(np.sum(ds.split == "train")) == 8
    assert int(np.sum(ds.split == "test")) == 2


def test_blobs_one_example_per_class():
    ds = make_blobs(4, 4, 2, 0.5, seed=3)
    assert np.bincount(ds.true_labels, minlength=4).tolist() == [1, 1, 1, 1]


def test_blobs_class_counts_within_one():
    ds = make_blobs(103, 4, 8, 1.0, seed=9)
    counts = np.bincount(ds.true_labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 103


def test_blobs_within_class_tighter_than_between_class():
    ds = make_blobs(1000, 10, 16, 0.5, seed=7)
    within, between = [], []
    for i in range(0, ds.n, 7):
        for j in range(i + 1, ds.n, 13):
            d = np.linalg.norm(ds.instances[i] - ds.instances[j])
            (within if ds.true_labels[i] == ds.true_labels[j] else between).append(d)
    assert np.mean(within) < np.mean(between)


def test_blobs_deterministic():
    a = make_blobs(60, 3, 4, 0.7, seed=11)
    b = make_blobs(60, 3, 4, 0.7, seed=11)
    np.testing.assert_array_equal(a.instances, b.instances)
    np.testing.assert_array_equal(a.true_labels, b.true_labels)
    np.testing.assert_array_equal(a.split, b.split)


def test_blobs_seed_changes_data():
    a = make_blobs(60, 3, 4, 0.7, seed=1)
    b = make_blobs(60, 3, 4, 0.7, seed=2)
    assert not np.array_equal(a.instances, b.instances)


def test_blobs_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_blobs(3, 4, 2, 0.5, seed=1)
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, 0.0, seed=1)
    with pytest.raises(ValueError):
        make_blobs(10, 1, 2, 0.5, seed=1)


def test_blobs_clean_labels_on_test_split():
    ds = make_blobs(50, 2, 3, 0.5, seed=5)
    test = ds.test_indices()
    np.testing.assert_array_equal(ds.noisy_labels[test], ds.true_labels[test])


# ---------------------------------------------------------------------------
# inject_noise — symmetric
# ---------------------------------------------------------------------------

def test_symmetric_noise_redraw_count_exact():
    ds = make_blobs(100, 4, 4, 0.5, seed=2)
    n_train = len(ds.train_indices())
    noisy = inject_noise(ds, "symmetric", 0.3, seed=8)
    # 0.3 * 80 = 24 examples redrawn; a redraw may land on the original label,
    # so the mismatch count is at most the redraw count.
    changed = np.sum(noisy.noisy_labels != noisy.true_labels)
    assert changed <= 24
    # with a uniform redraw over 4 classes, (C-1)/C of redraws actually flip
    assert changed >= 10


def test_symmetric_noise_only_train_labels_move():
    ds = make_blobs(100, 4, 4, 0.5, seed=2)
    noisy = inject_noise(ds, "symmetric", 0.5, seed=8)
    np.testing.assert_array_equal(noisy.instances, ds.instances)
    np.testing.assert_array_equal(noisy.true_labels, ds.true_labels)
    test = noisy.test_indices()
    np.testing.assert_array_equal(noisy.noisy_labels[test], noisy.true_labels[test])


def test_symmetric_noise_effective_rate_three_sigma():
    # expected mismatch fraction r(C-1)/C; binomial three-sigma band at n=10^4
    ds = make_blobs(12500, 5, 4, 0.5, seed=4)
    n_train = len(ds.train_indices())
    assert n_train == 10000
    rate = 0.4
    noisy = inject_noise(ds, "symmetric", rate, seed=21)
    tr = noisy.train_indices()
    flipped = np.sum(noisy.noisy_labels[tr] != noisy.true_labels[tr])
    p = rate * (5 - 1) / 5
    sigma = np.sqrt(n_train * p * (1 - p))
    assert abs(flipped - n_train * p) < 3 * sigma


def test_symmetric_noise_deterministic():
    ds = make_blobs(80, 3, 4, 0.5, seed=6)
    a = inject_noise(ds, "symmetric", 0.4, seed=3)
    b = inject_noise(ds, "symmetric", 0.4, seed=3)
    np.testing.assert_array_equal(a.noisy_labels, b.noisy_labels)


def test_zero_rate_is_identity():
    ds = make_blobs(40, 2, 3, 0.5, seed=6)
    noisy = inject_noise(ds, "symmetric", 0.0, seed=3)
    np.testing.assert_array_equal(noisy.noisy_labels, ds.noisy_labels)


# ---------------------------------------------------------------------------
# inject_noise — asymmetric
# ---------------------------------------------------------------------------

def test_asymmetric_noise_follows_circular_map():
    ds = make_blobs(200, 4, 4, 0.5, seed=10)
    noisy = inject_noise(ds, "asymmetric", 1.0, seed=5)
    tr = noisy.train_indices()
    np.testing.assert_array_equal(noisy.noisy_labels[tr],
                                  (noisy.true_labels[tr] + 1) % 4)


def test_asymmetric_noise_rate_controls_flip_probability():
    ds = make_blobs(2500, 2, 4, 0.5, seed=12)
    noisy = inject_noise(ds, "asymmetric", 0.4, seed=17)
    tr = noisy.train_indices()
    frac = np.mean(noisy.noisy_labels[tr] != noisy.true_labels[tr])
    sigma = np.sqrt(0.4 * 0.6 / len(tr))
    assert abs(frac - 0.4) < 3 * sigma


def test_inject_noise_rejects_bad_rate_and_kind():
    # an unknown kind must not take the asymmetric branch
    ds = make_blobs(40, 2, 3, 0.5, seed=6)
    with pytest.raises(ValueError, match="noise rate"):
        inject_noise(ds, "symmetric", 1.5)
    with pytest.raises(ValueError, match="unknown noise kind: 'flip'"):
        inject_noise(ds, "flip", 0.1)


# ---------------------------------------------------------------------------
# augment / mixup
# ---------------------------------------------------------------------------

def test_identity_augmentation_is_identity():
    rng = np.random.default_rng(0)
    x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -0.0]])
    np.testing.assert_array_equal(augment(x, rng, 0.0, 0.0, 1.0, 1.0), x)


def test_augmentation_deterministic_given_rng_state():
    x = np.linspace(-1, 1, 24).reshape(3, 8)
    a = augment(x, np.random.default_rng(42), 0.5, 0.2, 0.9, 1.1)
    b = augment(x, np.random.default_rng(42), 0.5, 0.2, 0.9, 1.1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, x)


def test_augmentation_drop_zeroes_coordinates():
    x = np.ones((2, 6))
    np.testing.assert_array_equal(augment(x, np.random.default_rng(1), 0.0, drop_prob=1.0),
                                  np.zeros((2, 6)))


def test_augment_takes_a_batch_of_rows():
    with pytest.raises(ValueError, match="2-d"):
        augment(np.ones(4), np.random.default_rng(0), 0.5)
    rng = np.random.default_rng(0)
    assert augment(np.ones((0, 4)), rng, 0.5).shape == (0, 4)
    assert rng.random() == np.random.default_rng(0).random()  # no draw for no row


def three_array_view(x, rng, jitter_sigma, drop_prob, low, high):
    """The draw order augment keeps: normals, then uniforms, of x's shape,
    then one scale uniform per row."""
    jitter, drop, scale = (rng.standard_normal(x.shape), rng.random(x.shape),
                           rng.random(len(x)))
    kept = np.where(drop < drop_prob, 0.0, x + jitter_sigma * jitter)
    return kept * (low + (high - low) * scale)[:, None]


@pytest.mark.parametrize("m", [0, 1, 2, 129])
@pytest.mark.parametrize("d", [2, 16, 64])
@pytest.mark.parametrize("spec", [
    (0.0, 0.0, 1.0, 1.0),
    (0.0, 1.0, 1.0, 1.0),
    (0.5, 0.0, 1.0, 1.0),
    (0.0, 0.1, 0.9, 1.1),
    (0.5, 0.1, 0.9, 1.1),
], ids=["identity", "drop-all", "jitter", "no-jitter", "default"])
def test_augment_draws_three_arrays_per_batch(m, d, spec):
    # spec is (jitter_sigma, drop_prob, scale_low, scale_high)
    x = np.random.default_rng(m).normal(size=(m, d))
    got_rng, ref_rng = np.random.default_rng(7 * m + d), np.random.default_rng(7 * m + d)
    got = augment(x, got_rng, *spec)
    assert got.tobytes() == three_array_view(x, ref_rng, *spec).tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_mixup_is_exact_convex_combination_over_a_permutation():
    x = np.random.default_rng(3).normal(size=(7, 3))
    mixed, partner, lam, dominant = mixup(x, alpha=1.0, rng=np.random.default_rng(5))
    ref = np.random.default_rng(5)  # the partner permutation is drawn before lam
    np.testing.assert_array_equal(partner, ref.permutation(7))
    np.testing.assert_array_equal(lam, ref.beta(1.0, 1.0, size=7))
    assert sorted(partner.tolist()) == list(range(7))
    assert np.all((0.0 <= lam) & (lam <= 1.0))
    np.testing.assert_allclose(mixed, lam[:, None] * x + (1 - lam[:, None]) * x[partner],
                               rtol=0, atol=0)
    np.testing.assert_array_equal(dominant, np.where(lam >= 0.5, np.arange(7), partner))


class _FixedBeta:
    """Generator stub: real permutations, every Beta draw equal to `lam`."""

    def __init__(self, lam, seed=3):
        self._lam = lam
        self._rng = np.random.default_rng(seed)

    def permutation(self, n):
        return self._rng.permutation(n)

    def beta(self, a, b, size=None):
        return np.full(size, self._lam)


def test_mixup_tie_goes_to_the_row_itself():
    x = np.array([[2.0], [4.0], [8.0], [16.0]])
    mixed, partner, lam, dominant = mixup(x, alpha=1.0, rng=_FixedBeta(0.5))
    assert np.all(lam == 0.5)
    np.testing.assert_array_equal(dominant, np.arange(4))
    np.testing.assert_array_equal(mixed, (x + x[partner]) / 2)
    _, partner, _, dominant = mixup(x, alpha=1.0, rng=_FixedBeta(0.25))
    np.testing.assert_array_equal(dominant, partner)
    with pytest.raises(ValueError):
        mixup(x, alpha=0.0, rng=_FixedBeta(0.5))


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    ds = make_blobs(30, 3, 5, 0.5, seed=13)
    ds = inject_noise(ds, "symmetric", 0.3, seed=1)
    path = tmp_path / "ds.csv"
    dump_features_csv(ds, path)
    loaded = load_features_csv(path)
    np.testing.assert_allclose(loaded.instances, ds.instances, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(loaded.true_labels, ds.true_labels)
    np.testing.assert_array_equal(loaded.noisy_labels, ds.noisy_labels)
    np.testing.assert_array_equal(loaded.split, ds.split)
    assert loaded.n_classes == ds.n_classes


def test_csv_two_row_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,true_label,noisy_label,split\n"
                    "0.5,1.5,0,0,train\n"
                    "1.0,-1.0,1,1,test\n")
    ds = load_features_csv(path)
    assert ds.n == 2 and ds.dim == 2 and ds.n_classes == 2


def test_csv_label_out_of_range_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,true_label,noisy_label,split\n"
                    "0.5,0,0,train\n"
                    "1.0,1,-1,train\n")
    with pytest.raises(ValueError, match="line 3: noisy_label -1 is negative"):
        load_features_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature_names_row(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,true_label,noisy_label,split\n"
                    "0.5,1.5,0,0,train\n"
                    f"1.0,{value},1,1,test\n")
    with pytest.raises(ValueError, match=f"line 3: f1 {float(value)} is not finite"):
        load_features_csv(path)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_features_csv(path)


# ---------------------------------------------------------------------------
# Dataset validation
# ---------------------------------------------------------------------------

def test_dataset_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        Dataset(instances=np.zeros((3, 2)), true_labels=np.zeros(2, dtype=int),
                noisy_labels=np.zeros(3, dtype=int),
                split=np.array(["train"] * 3), n_classes=2)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        Dataset(instances=np.zeros((2, 2)), true_labels=np.array([0, 5]),
                noisy_labels=np.array([0, 0]),
                split=np.array(["train", "train"]), n_classes=2)


def test_dataset_rejects_noisy_test_labels():
    with pytest.raises(ValueError):
        Dataset(instances=np.zeros((2, 2)), true_labels=np.array([0, 1]),
                noisy_labels=np.array([0, 0]),
                split=np.array(["train", "test"]), n_classes=2)
