import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rawnetlite import losses_metrics as lm
from rawnetlite.losses_metrics import (
    ScoreFileError, ScoreRecord, UndefinedMetricError, bce_loss, classification_metrics, eer,
    focal_loss, read_score_file, write_score_file,
)

from conftest import brute_force_eer, records_from_scores


# --- BCE --------------------------------------------------------------------


def test_bce_perfect_prediction_near_zero():
    loss, _ = bce_loss(np.array([1.0 - 1e-7]), np.array([1.0]))
    assert loss < 1e-6


def test_bce_half_is_ln2():
    loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_label_symmetry():
    a, _ = bce_loss(np.array([0.5]), np.array([1.0]))
    b, _ = bce_loss(np.array([0.5]), np.array([0.0]))
    assert a == b


def test_bce_finite_at_extremes():
    loss, dp = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss) and np.all(np.isfinite(dp))


# --- focal ------------------------------------------------------------------


def test_focal_hand_value():
    loss, _ = focal_loss(np.array([0.5]), np.array([1.0]), gamma=2.0, alpha=0.25)
    assert loss == pytest.approx(0.0433217, abs=1e-6)


def test_focal_easy_example_suppressed():
    loss, _ = focal_loss(np.array([1.0 - 1e-7]), np.array([1.0]))
    assert loss < 1e-13


@given(st.floats(1e-6, 1 - 1e-6), st.integers(0, 1))
@settings(max_examples=200)
def test_focal_gamma_zero_reduces_to_half_bce(p, y):
    lf, df = focal_loss(np.array([p]), np.array([float(y)]), gamma=0.0, alpha=0.5)
    lb, db = bce_loss(np.array([p]), np.array([float(y)]))
    assert lf == 0.5 * lb
    assert df[0] == 0.5 * db[0]


@given(st.floats(0.01, 0.98), st.floats(0.001, 0.019))
@settings(max_examples=100)
def test_focal_monotone_decreasing_in_pt(p, dp):
    l1, _ = focal_loss(np.array([p]), np.array([1.0]))
    l2, _ = focal_loss(np.array([p + dp]), np.array([1.0]))
    assert l2 < l1


def test_focal_flat_alpha_switch():
    p, y = np.array([0.3]), np.array([0.0])
    conditional, _ = focal_loss(p, y, alpha=0.25, flat_alpha=False)  # alpha_t = 0.75
    flat, _ = focal_loss(p, y, alpha=0.25, flat_alpha=True)  # alpha_t = 0.25
    assert conditional == pytest.approx(3.0 * flat, rel=1e-12)


# --- classification metrics -----------------------------------------------------


def test_perfect_separation_all_ones():
    recs = records_from_scores([0.1, 0.2], [0.8, 0.9])
    rep = classification_metrics(recs, 0.5)
    assert rep.accuracy == 1.0
    assert rep.precision_fake == rep.recall_fake == rep.f1_fake == 1.0
    assert rep.precision_real == rep.recall_real == rep.f1_real == 1.0
    assert rep.macro_f1 == 1.0


def test_degenerate_all_zero_scores():
    recs = records_from_scores([0.0] * 5, [0.0] * 5)
    rep = classification_metrics(recs, 0.5)
    assert rep.accuracy == 0.5
    assert rep.recall_fake == 0.0


def test_single_class_input_undefined_markers():
    recs = records_from_scores([0.2, 0.6], [])
    rep = classification_metrics(recs, 0.5)
    assert rep.precision_fake is None and rep.recall_fake is None and rep.f1_fake is None
    assert rep.macro_f1 is None
    assert rep.recall_real == 0.5


def test_confusion_counts_sum():
    rng = np.random.default_rng(0)
    recs = records_from_scores(rng.uniform(0, 1, 33), rng.uniform(0, 1, 21))
    rep = classification_metrics(recs, 0.37)
    assert rep.tp + rep.tn + rep.fp + rep.fn == 54


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)),
                min_size=2, max_size=60).filter(lambda v: len({l for l, _ in v}) == 2))
@settings(max_examples=100)
def test_f1_is_harmonic_mean_of_reported_p_r(pairs):
    recs = [ScoreRecord(f"p{i}", l, s) for i, (l, s) in enumerate(pairs)]
    rep = classification_metrics(recs, 0.5)
    for p, r, f1 in [(rep.precision_fake, rep.recall_fake, rep.f1_fake),
                     (rep.precision_real, rep.recall_real, rep.f1_real)]:
        expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert abs(f1 - expected) < 1e-9


# --- EER ------------------------------------------------------------------------


def test_eer_perfect_separation():
    e, _ = eer(records_from_scores([0.1, 0.2], [0.9, 0.8]))
    assert e == 0.0


def test_eer_hand_example():
    e, tau = eer(records_from_scores([0.2, 0.4, 0.1], [0.8, 0.7, 0.3]))
    assert e == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert 0.3 < tau <= 0.4


def test_eer_single_class_rejected():
    with pytest.raises(UndefinedMetricError):
        eer(records_from_scores([0.1, 0.5], []))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_eer_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_real, n_fake = rng.integers(2, 40, size=2)
    # duplicated score values exercise the tie-break rule
    grid = rng.uniform(0, 1, size=8)
    recs = records_from_scores(rng.choice(grid, n_real), rng.choice(grid, n_fake))
    assert eer(recs) == brute_force_eer(recs)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_eer_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    real, fake = rng.uniform(0.4, 1, 12), rng.uniform(0, 0.7, 9)
    e1, _ = eer(records_from_scores(real, fake))
    squash = lambda s: s / (2.0 - s)  # strictly increasing [0, 1] -> [0, 1]
    e2, _ = eer(records_from_scores(squash(real), squash(fake)))
    assert e1 == pytest.approx(e2, abs=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_eer_label_and_score_swap_symmetry(seed):
    # swapping labels and reflecting scores flips the >= tie rule to <=, so
    # the discrete estimates may differ by the 1/(2N) discretization on each side
    rng = np.random.default_rng(seed)
    real, fake = rng.uniform(0, 1, 10), rng.uniform(0, 1, 14)
    e1, _ = eer(records_from_scores(real, fake))
    e2, _ = eer(records_from_scores(1.0 - fake, 1.0 - real))
    assert 0.0 <= e1 <= 1.0
    assert abs(e1 - e2) <= 1.0 / min(10, 14)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
@example(seed=1824842)  # most fakes below most reals: the sample's EER is 2/3 at n=6
def test_eer_bounded_near_chance_for_informative_scores(seed):
    # a finite sample can invert the classes, so the bound comes from the sample
    # itself: no threshold on its scores does better than max(FPR, FNR) there,
    # and the sweep's crossing stays within the 1/(2N) discretization of it
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 50))
    real = rng.uniform(0.0, 0.7, n)
    fake = rng.uniform(0.3, 1.0, n)
    e, _ = eer(records_from_scores(real, fake))
    minimax = min(max(np.mean(real >= t), np.mean(fake < t)) for t in np.concatenate([real, fake]))
    assert 0.0 <= e <= minimax + 1.0 / (2 * n)


def test_eer_chance_level():
    rng = np.random.default_rng(42)
    scores = rng.uniform(0, 1, 10000)
    labels = rng.integers(0, 2, 10000)
    recs = [ScoreRecord(f"x{i}", int(l), float(s)) for i, (l, s) in enumerate(zip(labels, scores))]
    e, _ = eer(recs)
    assert 0.48 <= e <= 0.52


# --- score files -------------------------------------------------------------------


def test_score_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    recs = records_from_scores(rng.uniform(0, 1, 9), rng.uniform(0, 1, 7))
    path = tmp_path / "scores.csv"
    write_score_file(recs, path)
    back = read_score_file(path)
    assert back == recs


def test_score_file_bad_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("path,score,label\na,0.5,real\n")
    with pytest.raises(ValueError, match="header"):
        read_score_file(path)


def test_score_file_bad_label(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("path,label,score\na,spoof,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        read_score_file(path)


@pytest.mark.parametrize("content", [
    b"path,label,score\n" + b"x" * 200_000 + b",real,0.5\n",  # over the csv module's field limit
    "path,label,score\ncaf\u00e9.wav,real,0.5\n".encode("latin-1"),
], ids=["field_too_long", "not_utf8"])
def test_score_file_unreadable_text(tmp_path, content):
    path = tmp_path / "scores.csv"
    path.write_bytes(content)
    with pytest.raises(ScoreFileError, match="unreadable"):
        read_score_file(path)


def test_score_record_validation():
    with pytest.raises(ValueError):
        ScoreRecord("a", 2, 0.5)
    with pytest.raises(ValueError):
        ScoreRecord("a", 1, 1.5)
    with pytest.raises(ValueError):
        ScoreRecord("a", 1, float("nan"))
