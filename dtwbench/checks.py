"""Checks of every answer against the benchmark's own recurrence and table.

A check returns the list of problems it found; an empty list means the
answer is right. The stored reference table (``reference.json``, made by
``make_reference.py``) holds, per query, the brute-force optimum and tie
set, or the k smallest distances, all from ``oracle.dtw_table``.
"""
from __future__ import annotations

import json
from pathlib import Path

import inputs
import oracle

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload: inputs.Workload, arrays: list) -> dict:
    """The workload's table, after checking it was made from these inputs."""
    table = json.loads(REFERENCE.read_text()).get(workload.name)
    if table is None:
        raise LookupError(f"{REFERENCE.name} has no table for {workload.name}; run make_reference.py")
    if table["inputs_sha256"] != inputs.digest(arrays):
        raise LookupError(f"{REFERENCE.name} was made from other inputs; run make_reference.py")
    return table["queries"]


class Checker:
    """Checks one workload's answers."""

    def __init__(self, workload: inputs.Workload, arrays: list, reference: dict):
        self.workload = workload
        if workload.normalize == "zscore":
            arrays = [oracle.zscore(x) for x in arrays]
        self.arrays = arrays
        self.reference = reference

    def distances(self, ia: int, ib: int, starts: list) -> list:
        """Oracle DTW at 1-based placements (a, b) of series ia against ib."""
        wl = self.workload
        return oracle.dtw_at(
            self.arrays[ia],
            self.arrays[ib],
            wl.window_a,
            wl.window_b,
            [(a - 1, b - 1) for a, b in starts],
            wl.band_radius,
        ).tolist()

    def _out_of_range(self, ia: int, ib: int, starts: list) -> list:
        pa = len(self.arrays[ia]) - self.workload.window_a + 1
        pb = len(self.arrays[ib]) - self.workload.window_b + 1
        return [(a, b) for a, b in starts if not (1 <= a <= pa and 1 <= b <= pb)]

    def _recomputed(self, ia: int, ib: int, starts: list, reported: list) -> list:
        bad = self._out_of_range(ia, ib, starts)
        if bad:
            return [f"placements out of range: {bad[:3]}"]
        problems = []
        for s, want, got in zip(starts, self.distances(ia, ib, starts), reported):
            if not oracle.close(got, want):
                problems.append(f"distance at {s} is {got!r}, recomputed {want!r}")
        return problems

    def search(self, qid: str, ia: int, ib: int, result) -> list:
        """An ``infer_most_similar`` answer: optimum, tie set, recomputed distances."""
        ref = self.reference[qid]
        problems = []
        if not oracle.close(result.shortest_dist, ref["optimum"]):
            problems.append(f"optimum {result.shortest_dist!r}, brute force {ref['optimum']!r}")
        solutions = sorted((int(a), int(b)) for a, b in result.solutions)
        ties = sorted(tuple(t) for t in ref["ties"])
        if solutions != ties:
            problems.append(f"tie set {solutions[:5]}, brute force {ties[:5]}")
        problems += self._recomputed(ia, ib, solutions, [result.shortest_dist] * len(solutions))
        return problems

    def topk(self, qid: str, ia: int, ib: int, result, cells: dict) -> list:
        """A ``top_k_search`` answer and its pair's two lead cells."""
        ref = self.reference[qid]["k_smallest"]
        matches = result.matches
        problems = []
        if result.truncated or len(matches) != self.workload.k:
            problems.append(f"{len(matches)} matches (truncated={result.truncated}), asked for {self.workload.k}")
        if [m.rank for m in matches] != list(range(1, len(matches) + 1)):
            problems.append("ranks are not 1..k in order")
        dists = [m.distance for m in matches]
        if any(x > y for x, y in zip(dists, dists[1:])):
            problems.append("distances do not ascend")
        wrong = [r for r, (x, y) in enumerate(zip(dists, ref), start=1) if not oracle.close(x, y)]
        if wrong:
            r = wrong[0]
            problems.append(f"{len(wrong)} ranks differ from brute force, first rank {r}: {dists[r - 1]!r} vs {ref[r - 1]!r}")
        starts = [(int(m.a), int(m.b)) for m in matches]
        if len(set(starts)) != len(starts):
            problems.append("a placement is ranked twice")
        problems += self._recomputed(ia, ib, starts, dists)
        problems += self.lead(ia, ib, starts, cells)
        return problems

    @staticmethod
    def lead(ia: int, ib: int, starts: list, cells: dict) -> list:
        """The pair's lead cells equal a direct count of the signs of a - b."""
        ahead = sum(1 for a, b in starts if a < b)
        behind = sum(1 for a, b in starts if a > b)
        problems = []
        for key, lead, follow in ((member_key(ia, ib), ahead, behind), (member_key(ib, ia), behind, ahead)):
            cell = cells.get(key)
            if cell is None or (cell.lead_count, cell.follow_count) != (lead, follow):
                problems.append(f"lead cell {key} is {cell}, direct count ({lead}, {follow})")
        fwd, back = cells.get(member_key(ia, ib)), cells.get(member_key(ib, ia))
        if fwd is not None and back is not None and fwd.difference != -back.difference:
            problems.append(f"lead grid is not antisymmetric at {member_key(ia, ib)}")
        return problems


def member_key(i: int, j: int) -> tuple:
    """The (leader, follower) key of a lead cell, with troop members named m0, m1, ..."""
    return (f"m{i}", f"m{j}")
