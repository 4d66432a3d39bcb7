"""Scoring predicted intervals against ground truth; lead-difference grids."""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import IntervalOutOfBounds
from .simgen import GroundTruth


@dataclass(frozen=True)
class ConfusionCounts:
    """Index-set confusion counts pooled over both series, and the scores
    derived from them (0.0 where a score's denominator is 0)."""

    tp: int
    fp: int
    fn: int
    precision: float = field(init=False)
    recall: float = field(init=False)
    f1: float = field(init=False)

    def __post_init__(self):
        p = self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0
        r = self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0
        object.__setattr__(self, "precision", p)
        object.__setattr__(self, "recall", r)
        object.__setattr__(self, "f1", 2.0 * p * r / (p + r) if p + r > 0 else 0.0)


def _check_interval(name, interval):
    s, e = int(interval[0]), int(interval[1])
    if not 1 <= s <= e:
        raise IntervalOutOfBounds(f"{name} must satisfy 1 <= start <= end, got ({s},{e})")
    return s, e


def _overlap(a, b) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]) + 1)


def score_intervals(pred_u, pred_w, gt: GroundTruth) -> ConfusionCounts:
    """Confusion counts of predicted vs planted intervals.

    Time-step index sets of both series are pooled: a position counts as
    true positive when both prediction and ground truth cover it, in
    either series. Intervals are 1-based inclusive (start, end) pairs
    with 1 <= start <= end, else IntervalOutOfBounds.
    """
    pu = _check_interval("pred_u", pred_u)
    pw = _check_interval("pred_w", pred_w)
    gu = _check_interval("gt.interval_u", gt.interval_u)
    gw = _check_interval("gt.interval_w", gt.interval_w)

    tp = _overlap(pu, gu) + _overlap(pw, gw)
    pred_size = (pu[1] - pu[0] + 1) + (pw[1] - pw[0] + 1)
    gt_size = (gu[1] - gu[0] + 1) + (gw[1] - gw[0] + 1)
    return ConfusionCounts(tp=tp, fp=pred_size - tp, fn=gt_size - tp)


@dataclass(frozen=True)
class LeadDifferenceCell:
    """Lead/follow counts for one directed (leader, follower) pair.

    A match leads when the leader's window starts strictly earlier than
    the follower's; equal starts count for neither side.
    """

    leader_id: str
    follower_id: str
    lead_count: int
    follow_count: int

    @property
    def difference(self) -> int:
        return self.lead_count - self.follow_count


def _match_start_pair(match):
    if hasattr(match, "a"):
        return int(match.a), int(match.b)
    a, b = match
    return int(a), int(b)


def lead_difference(matches_by_pair: dict) -> dict:
    """Count leading vs following matches per directed pair.

    matches_by_pair maps (leader_id, follower_id) to the ranked matches
    between that pair's series (leader first). Returns the same keys
    mapped to LeadDifferenceCell.
    """
    out = {}
    for (leader, follower), matches in matches_by_pair.items():
        lead = 0
        follow = 0
        for match in matches:
            a, b = _match_start_pair(match)
            if a < b:
                lead += 1
            elif a > b:
                follow += 1
        out[(leader, follower)] = LeadDifferenceCell(
            leader_id=str(leader), follower_id=str(follower), lead_count=lead, follow_count=follow
        )
    return out
