"""Verification metrics over labeled trial scores: DET sweep, EER, minimum DCF.

Conventions, fixed for determinism: a trial is accepted when score >= threshold
(ties accept); the threshold sweep visits every distinct score plus -inf/+inf
sentinels; the equal-error point is found by linear interpolation between
adjacent sweep points; the detection cost is normalized by the cost of the
better do-nothing decision, so it never exceeds one.  ``compute_report`` is
the one entry point: it runs the sweep once and reads EER, minDCF and the DET
curve from it.  ``write_scores`` leaves per-trial `label score` lines for
other tools; nothing in the package reads a scores file back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from avfuse.featio import replace_file


class ScoreSetError(ValueError):
    """A score set missing a class, empty, or containing non-finite scores."""


@dataclass
class ScoreSet:
    """Trial scores with binary labels (1 = target, 0 = nontarget)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.scores.shape != self.labels.shape:
            raise ScoreSetError("scores and labels must have equal length")
        if not np.isfinite(self.scores).all():
            raise ScoreSetError("scores must be finite")
        if not np.isin(self.labels, (0, 1)).all():
            raise ScoreSetError("labels must be 0 or 1")
        if not (self.labels == 1).any() or not (self.labels == 0).any():
            raise ScoreSetError("need at least one target and one nontarget trial")

    @property
    def target_scores(self) -> np.ndarray:
        return self.scores[self.labels == 1]

    @property
    def nontarget_scores(self) -> np.ndarray:
        return self.scores[self.labels == 0]


@dataclass(frozen=True)
class DcfParams:
    """Detection-cost parameters: target prior and miss / false-alarm costs."""

    p_target: float = 0.05
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ScoreSetError("p_target must lie strictly between 0 and 1")
        if not (0.0 < self.c_miss < np.inf and 0.0 < self.c_fa < np.inf):
            raise ScoreSetError("costs must lie in (0, inf)")

    @property
    def normalizer(self) -> float:
        # Cost of the better blind decision (always accept / always reject).
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))


def det_points(score_set: ScoreSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold sweep -> (thresholds, false-acceptance rate, false-rejection rate).

    Thresholds are the distinct scores bracketed by -inf and +inf; FAR is the
    fraction of nontargets at or above each threshold (non-increasing), FRR the
    fraction of targets below it (non-decreasing).
    """
    targets = np.sort(score_set.target_scores)
    nontargets = np.sort(score_set.nontarget_scores)
    thresholds = np.concatenate([[-np.inf], np.unique(score_set.scores), [np.inf]])
    far = 1.0 - np.searchsorted(nontargets, thresholds, side="left") / len(nontargets)
    frr = np.searchsorted(targets, thresholds, side="left") / len(targets)
    return thresholds, far, frr


def _eer(thresholds: np.ndarray, far: np.ndarray, frr: np.ndarray) -> tuple[float, float]:
    """Equal error rate and its threshold.

    FAR - FRR is non-increasing along the sweep from +1 to -1; the crossing is
    linearly interpolated between the adjacent sweep points when not exact.
    """
    diff = far - frr
    # First non-positive difference.  The sweep's first two points (-inf and the
    # lowest score) accept every trial, FAR 1 and FRR 0, so k >= 2.
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return float(far[k]), float(thresholds[k])
    frac = diff[k - 1] / (diff[k - 1] - diff[k])
    rate = far[k - 1] + frac * (far[k] - far[k - 1])
    threshold = thresholds[k - 1] + frac * (thresholds[k] - thresholds[k - 1])
    if not np.isfinite(threshold):  # crossing against the +inf sentinel
        threshold = thresholds[k - 1]
    return float(rate), float(threshold)


def _min_dcf(thresholds: np.ndarray, far: np.ndarray, frr: np.ndarray,
             params: DcfParams) -> tuple[float, float]:
    """Minimum normalized detection cost over the sweep, and its threshold."""
    dcf = params.c_miss * frr * params.p_target + params.c_fa * far * (1.0 - params.p_target)
    k = int(np.argmin(dcf))
    threshold = thresholds[k]
    if not np.isfinite(threshold):
        # Sentinel minimizers mean "always accept"/"always reject"; report the
        # nearest finite operating threshold.
        threshold = thresholds[1] if k == 0 else thresholds[-2]
    return float(dcf[k] / params.normalizer), float(threshold)


@dataclass
class MetricsReport:
    """Verification summary: EER, normalized minDCF, thresholds, DET curve.

    ``det_curve`` is the sweep's ``(far, frr)`` pair of arrays, one entry per
    threshold of :func:`det_points`.
    """

    eer: float
    eer_threshold: float
    min_dcf: float
    dcf_threshold: float
    dcf_params: DcfParams
    det_curve: tuple[np.ndarray, np.ndarray] = field(repr=False)
    n_target: int = 0
    n_nontarget: int = 0


def compute_report(score_set: ScoreSet, params: DcfParams = DcfParams()) -> MetricsReport:
    """Full evaluation of a score set, from one threshold sweep."""
    thresholds, far, frr = det_points(score_set)
    eer_value, eer_thr = _eer(thresholds, far, frr)
    dcf_value, dcf_thr = _min_dcf(thresholds, far, frr, params)
    return MetricsReport(
        eer=eer_value,
        eer_threshold=eer_thr,
        min_dcf=dcf_value,
        dcf_threshold=dcf_thr,
        dcf_params=params,
        det_curve=(far, frr),
        n_target=len(score_set.target_scores),
        n_nontarget=len(score_set.nontarget_scores),
    )


def format_report(report: MetricsReport) -> str:
    """Human-readable table followed by a machine-readable key-value block."""
    p = report.dcf_params
    lines = [
        "metric          value",
        "-------------   ---------",
        f"EER             {100.0 * report.eer:.3f} %",
        f"minDCF          {report.min_dcf:.4f}",
        f"EER threshold   {report.eer_threshold:.6f}",
        f"DCF threshold   {report.dcf_threshold:.6f}",
        f"trials          {report.n_target} target / {report.n_nontarget} nontarget",
        "",
        "[metrics]",
        f"eer = {report.eer!r}",
        f"eer_threshold = {report.eer_threshold!r}",
        f"min_dcf = {report.min_dcf!r}",
        f"dcf_threshold = {report.dcf_threshold!r}",
        f"p_target = {p.p_target!r}",
        f"c_miss = {p.c_miss!r}",
        f"c_fa = {p.c_fa!r}",
        f"n_target = {report.n_target}",
        f"n_nontarget = {report.n_nontarget}",
    ]
    return "\n".join(lines)


def write_scores(path, score_set: ScoreSet) -> None:
    """One `label score` line per trial; repr round-trips the float exactly.  The file is
    replaced whole (``featio.replace_file``): a failed write leaves the previous one."""
    lines = [f"{int(label)} {float(score)!r}\n" for label, score in zip(score_set.labels, score_set.scores)]
    replace_file(path, "".join(lines).encode("utf-8"))

