"""Metric correctness against an independent brute-force threshold sweep."""

import dataclasses
import os

import numpy as np
import pytest

from avfuse.metrics import (
    DcfParams,
    MetricsReport,
    ScoreSet,
    ScoreSetError,
    compute_report,
    det_points,
    format_report,
    write_scores,
)

PAPER_DCF = DcfParams(p_target=0.05, c_miss=1.0, c_fa=1.0)


# ---------------------------------------------------------------------------
# Brute-force oracle: evaluate every threshold at midpoints of consecutive
# sorted scores (plus points beyond both ends), counting errors directly.
# ---------------------------------------------------------------------------


def oracle_sweep(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(scores)
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    thresholds = np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])
    tgt = scores[labels == 1]
    non = scores[labels == 0]
    far = np.array([np.count_nonzero(non >= t) / len(non) for t in thresholds])
    frr = np.array([np.count_nonzero(tgt < t) / len(tgt) for t in thresholds])
    return thresholds, far, frr


def oracle_eer(scores, labels):
    _, far, frr = oracle_sweep(scores, labels)
    diff = far - frr
    for k in range(1, len(diff)):
        if diff[k] <= 0.0:
            if diff[k] == 0.0:
                return float(far[k])
            frac = diff[k - 1] / (diff[k - 1] - diff[k])
            return float(far[k - 1] + frac * (far[k] - far[k - 1]))
    raise AssertionError("no crossing found")


def oracle_min_dcf(scores, labels, params):
    _, far, frr = oracle_sweep(scores, labels)
    costs = params.p_target * params.c_miss * frr + (1.0 - params.p_target) * params.c_fa * far
    return float(costs.min() / min(params.c_miss * params.p_target,
                                   params.c_fa * (1.0 - params.p_target)))


def random_score_set(rng, max_trials=200):
    n_t = int(rng.integers(1, max_trials))
    n_n = int(rng.integers(1, max_trials))
    separation = rng.uniform(0.0, 2.0)
    targets = rng.normal(separation, 1.0, size=n_t)
    nontargets = rng.normal(0.0, 1.0, size=n_n)
    if rng.random() < 0.3:  # induce ties
        targets = np.round(targets, 1)
        nontargets = np.round(nontargets, 1)
    scores = np.concatenate([targets, nontargets])
    labels = np.concatenate([np.ones(n_t, dtype=int), np.zeros(n_n, dtype=int)])
    perm = rng.permutation(len(scores))
    return scores[perm], labels[perm]


class TestDetPoints:
    def test_sentinels(self):
        ss = ScoreSet([0.9, 0.1], [1, 0])
        thresholds, far, frr = det_points(ss)
        assert thresholds[0] == -np.inf and far[0] == 1.0 and frr[0] == 0.0
        assert thresholds[-1] == np.inf and far[-1] == 0.0 and frr[-1] == 1.0

    def test_perfect_separation_has_zero_zero_point(self):
        ss = ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        _, far, frr = det_points(ss)
        assert ((far == 0.0) & (frr == 0.0)).any()

    def test_counting_example(self):
        # targets {0.8, 0.6, 0.4}, nontargets {0.7, 0.3, 0.1}; at 0.5 both 1/3.
        ss = ScoreSet([0.8, 0.6, 0.4, 0.7, 0.3, 0.1], [1, 1, 1, 0, 0, 0])
        thresholds, far, frr = det_points(ss)
        at = np.searchsorted(thresholds, 0.6)  # first threshold >= 0.5 is 0.6
        assert far[at] == pytest.approx(1 / 3)
        assert frr[at] == pytest.approx(1 / 3)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        scores, labels = random_score_set(rng)
        _, far, frr = det_points(ScoreSet(scores, labels))
        assert (np.diff(far) <= 1e-15).all()
        assert (np.diff(frr) >= -1e-15).all()

    def test_class_requirements(self):
        with pytest.raises(ScoreSetError):
            ScoreSet([0.1, 0.2], [1, 1])
        with pytest.raises(ScoreSetError):
            ScoreSet([np.inf, 0.0], [1, 0])


class TestEer:
    def test_perfect_separation(self):
        assert compute_report(ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])).eer == 0.0

    def test_full_inversion(self):
        assert compute_report(ScoreSet([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])).eer == 1.0

    def test_interleaved_example(self):
        report = compute_report(ScoreSet([0.8, 0.6, 0.4, 0.7, 0.3, 0.1], [1, 1, 1, 0, 0, 0]))
        assert report.eer == pytest.approx(1 / 3, abs=1e-12)
        assert 0.3 < report.eer_threshold <= 0.6

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            scores, labels = random_score_set(rng)
            got = compute_report(ScoreSet(scores, labels)).eer
            assert got == pytest.approx(oracle_eer(scores, labels), abs=1e-9)


class TestMinDcf:
    def test_perfect_separation_costs_nothing(self):
        assert compute_report(ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]), PAPER_DCF).min_dcf == 0.0

    def test_interleaved_example_from_exhaustive_sweep(self):
        scores = [0.8, 0.6, 0.4, 0.7, 0.3, 0.1]
        labels = [1, 1, 1, 0, 0, 0]
        report = compute_report(ScoreSet(scores, labels), PAPER_DCF)
        value, threshold = report.min_dcf, report.dcf_threshold
        # Exhaustive hand sweep: best interval accepts only scores >= 0.8,
        # giving FRR 2/3 at FAR 0 -> (0.05 * 2/3) / 0.05 = 2/3.
        assert value == pytest.approx(2 / 3, abs=1e-12)
        assert value == pytest.approx(oracle_min_dcf(scores, labels, PAPER_DCF), abs=1e-12)
        assert threshold == pytest.approx(0.8)

    def test_an_accept_all_minimizer_reports_the_lowest_score(self):
        # A miss costs 99 times a false alarm, so accepting every trial (the
        # -inf sentinel, tied with the lowest score) is the cheapest point.
        scores, labels = [0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]
        report = compute_report(ScoreSet(scores, labels), DcfParams(p_target=0.99))
        assert report.min_dcf == pytest.approx(1.0, abs=1e-12)
        assert report.dcf_threshold == 0.1

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            scores, labels = random_score_set(rng)
            got = compute_report(ScoreSet(scores, labels), PAPER_DCF).min_dcf
            assert got == pytest.approx(oracle_min_dcf(scores, labels, PAPER_DCF), abs=1e-9)

    def test_normalized_value_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            scores, labels = random_score_set(rng)
            value = compute_report(ScoreSet(scores, labels), PAPER_DCF).min_dcf
            assert value <= 1.0 + 1e-12

    def test_a_reports_parameters_cannot_change_the_next_default_report(self):
        # Every report made with the default holds one shared DcfParams instance.
        score_set = ScoreSet([0.1, 0.2, 0.8, 0.9], [0, 1, 0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            compute_report(score_set).dcf_params.p_target = 0.5
        assert compute_report(score_set).dcf_params.p_target == 0.05


class TestInvariances:
    def test_monotone_transform_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(4)
        scores, labels = random_score_set(rng)
        base = compute_report(ScoreSet(scores, labels), PAPER_DCF)
        for transform in (lambda s: s ** 3 + 2.0 * s, np.tanh, lambda s: 0.01 * s - 5.0):
            report = compute_report(ScoreSet(transform(scores), labels), PAPER_DCF)
            assert (report.eer, report.min_dcf) == (base.eer, base.min_dcf)

    def test_input_order_irrelevant_with_ties(self):
        scores = np.array([0.5, 0.5, 0.5, 0.2, 0.7, 0.2])
        labels = np.array([1, 0, 1, 0, 1, 0])
        base = compute_report(ScoreSet(scores, labels))
        rng = np.random.default_rng(5)
        for _ in range(5):
            perm = rng.permutation(len(scores))
            shuffled = compute_report(ScoreSet(scores[perm], labels[perm]))
            assert (shuffled.eer, shuffled.min_dcf) == (base.eer, base.min_dcf)


class TestReportReadsOneSweep:
    @pytest.mark.parametrize("scores, labels", [
        random_score_set(np.random.default_rng(7)),
        ([0.5, 0.5, 0.5, 0.2, 0.7, 0.2], [1, 0, 1, 0, 1, 0]),
        ([0.9, 0.9, 0.9, 0.1], [1, 1, 0, 0]),
        ([0.5, 0.5], [1, 0]),
    ], ids=["random", "ties", "eer_against_inf_sentinel", "all_tied"])
    def test_report_det_curve_is_the_det_points_sweep(self, scores, labels):
        ss = ScoreSet(scores, labels)
        report = compute_report(ss, PAPER_DCF)
        _, far, frr = det_points(ss)
        assert np.array_equal(report.det_curve[0], far)
        assert np.array_equal(report.det_curve[1], frr)
        assert (report.n_target, report.n_nontarget) == (len(ss.target_scores),
                                                         len(ss.nontarget_scores))

    def test_eer_crossing_against_the_inf_sentinel_reports_the_top_score(self):
        # FAR - FRR stays positive up to the top score 0.9 (FAR 1/2, FRR 0) and
        # crosses only at +inf, so the threshold falls back to 0.9.
        report = compute_report(ScoreSet([0.9, 0.9, 0.9, 0.1], [1, 1, 0, 0]), PAPER_DCF)
        assert report.eer == pytest.approx(1 / 3, abs=1e-15)
        assert report.eer_threshold == 0.9


class TestReportAndScoreFiles:
    def test_report_fields_and_formatting(self):
        ss = ScoreSet([0.8, 0.6, 0.4, 0.7, 0.3, 0.1], [1, 1, 1, 0, 0, 0])
        report = compute_report(ss, PAPER_DCF)
        assert isinstance(report, MetricsReport)
        text = format_report(report)
        assert "[metrics]" in text and "eer = " in text and "min_dcf = " in text

    def test_scores_file_roundtrip_preserves_metrics_exactly(self, tmp_path):
        rng = np.random.default_rng(6)
        scores, labels = random_score_set(rng)
        ss = ScoreSet(scores, labels)
        path = tmp_path / "scores.txt"
        write_scores(path, ss)
        rows = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
        loaded = ScoreSet([float(score) for _, score in rows], [int(label) for label, _ in rows])
        assert np.array_equal(loaded.scores, ss.scores)
        assert np.array_equal(loaded.labels, ss.labels)
        got, want = compute_report(loaded), compute_report(ss)
        assert (got.eer, got.eer_threshold) == (want.eer, want.eer_threshold)

    def test_a_failed_write_keeps_the_previous_scores_file_and_leaves_no_temp_file(self, tmp_path, tear_writes):
        path = tmp_path / "scores.txt"
        write_scores(path, ScoreSet([0.8, 0.1], [1, 0]))
        previous = path.read_bytes()
        tear_writes()
        with pytest.raises(OSError, match="No space left"):
            write_scores(path, ScoreSet([0.3, 0.2, 0.9], [0, 1, 1]))
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["scores.txt"]


@pytest.mark.parametrize("build, message", [
    (lambda: ScoreSet([0.1, 0.2, 0.3], [1, 0]), "scores and labels must have equal length"),
    (lambda: ScoreSet([0.1, 0.2], [1, 2]), "labels must be 0 or 1"),
    (lambda: DcfParams(p_target=0.0), "p_target must lie strictly between 0 and 1"),
    (lambda: DcfParams(p_target=1.0), "p_target must lie strictly between 0 and 1"),
    (lambda: DcfParams(c_miss=0.0), r"costs must lie in \(0, inf\)"),
    (lambda: DcfParams(c_fa=-1.0), r"costs must lie in \(0, inf\)"),
    (lambda: DcfParams(c_miss=np.nan), r"costs must lie in \(0, inf\)"),
    (lambda: DcfParams(c_fa=np.inf), r"costs must lie in \(0, inf\)"),
], ids=["length_mismatch", "label_two", "p_target_zero", "p_target_one", "zero_miss_cost",
        "negative_false_alarm_cost", "nan_miss_cost", "infinite_false_alarm_cost"])
def test_invalid_score_sets_and_costs_are_score_set_errors(build, message):
    with pytest.raises(ScoreSetError, match=f"^{message}$") as info:
        build()
    assert info.type is ScoreSetError
