"""Arcs, arc verification, and secant-coverage bookkeeping.

An arc is a point set meeting every line in at most two points.  A point of
the plane is *covered* when it belongs to the arc or lies on a secant (a
line through two arc points); the arc is complete exactly when every point
is covered, since an uncovered point could always be adjoined.

``verify_arc`` / ``verify_complete`` recompute everything from scratch and
serve as the independent verifiers; they never read the plane's tables.
``Coverage`` is the one incremental kernel: it adjoins uncovered points one
at a time, keeps the covered mask and the uncovered count of every line
through the arc, and from those scores candidates by their exact coverage
gain.  It indexes each arc point's pencil once, when the point is added,
so the line joining an arc point to a candidate is a lookup, not a field
computation.  The greedy search, arc extension and the oracle tests all
run it.
"""

from __future__ import annotations

import numpy as np

from .plane import TABLE_BYTE_CAP, PlaneIndex

_LINE_CHUNK = 2048  # bounds the (lines x q+1) marking buffers
# elements per (candidates x arc) scoring block: each int64 gather
# temporary is 2 MB (2^22 elements, 32 MB, scored q = 256 arcs slower)
_GAIN_CHUNK = 1 << 18


class NotAnArc(ValueError):
    """Operation requires a valid arc (no three collinear, no duplicates)."""


class CoveredPoint(ValueError):
    """Only uncovered points may extend an arc."""


class Arc:
    """Ordered point set with a membership mask over the plane."""

    def __init__(self, plane: PlaneIndex, points=()):
        self.plane = plane
        self.points: list[int] = []
        self.in_arc = np.zeros(plane.n_points, dtype=bool)
        for p in points:
            self.append(p)

    def append(self, pid: int) -> None:
        if not 0 <= pid < self.plane.n_points:
            raise ValueError(f"point id {pid} out of range")
        if self.in_arc[pid]:
            raise NotAnArc(f"duplicate point {pid}")
        self.points.append(int(pid))
        self.in_arc[pid] = True

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"Arc(q={self.plane.q}, size={len(self.points)})"

    def coords(self) -> np.ndarray:
        """(k, 3) normalized coordinate rows in insertion order."""
        return self.plane.triples_of_ids(np.asarray(self.points, dtype=np.int64))


def _pair_line_ids(arc: Arc) -> np.ndarray:
    """Line ids spanned by every unordered pair of arc points."""
    k = len(arc.points)
    if k < 2:
        return np.empty(0, dtype=arc.plane._dt)
    coords = arc.coords()
    iu, ju = np.triu_indices(k, 1)
    return arc.plane.join_ids(coords[iu], coords[ju])


def verify_arc(arc: Arc) -> bool:
    """True iff no line meets the arc in three points.

    Tallies arc points per line over all pairs: the arc property holds
    exactly when the C(k,2) joining lines are pairwise distinct.
    """
    if len(set(arc.points)) != len(arc.points):
        return False
    lids = _pair_line_ids(arc)
    return len(np.unique(lids)) == len(lids)


def verify_complete(arc: Arc) -> tuple[bool, list[int]]:
    """Recompute coverage from scratch; return (complete, uncovered ids).

    Every uncovered id returned could legally extend the arc.
    """
    if not verify_arc(arc):
        raise NotAnArc("input fails the arc property")
    pl = arc.plane
    covered = arc.in_arc.copy()
    lids = _pair_line_ids(arc)
    for lo in range(0, len(lids), _LINE_CHUNK):
        pts = pl.points_on_lines_arr(lids[lo:lo + _LINE_CHUNK])
        covered[pts.ravel()] = True
    uncovered = np.flatnonzero(~covered)
    return len(uncovered) == 0, [int(x) for x in uncovered]


class Coverage:
    """Incremental secant coverage of a growing arc (single-owner).

    Holds the covered-point mask and its popcount, the arc's points, and
    ``uncov_on_line[l]``: the number of uncovered points on line l, kept
    exact for every line through an arc point (entries for lines missing the
    arc are unused).  For each arc point a it keeps a's pencil (the q+1
    lines through a, in incident_ids order) and a slot row: for every point
    x, the position of line ax within that pencil.  The line joining an arc
    point to any point is then two lookups.  The rows are kept only while
    q+2 of them (the most an arc can have) fit TABLE_BYTE_CAP; larger
    planes compute the joins from coordinates instead.  Never share one
    instance between concurrent workers.
    """

    def __init__(self, plane: PlaneIndex):
        self.plane = plane
        self.covered = np.zeros(plane.n_points, dtype=bool)
        self.covered_count = 0
        self.uncov_on_line = np.zeros(plane.n_lines, dtype=np.int64)
        self.arc_points: list[int] = []
        q, n = plane.q, plane.n_points
        self._rows = None
        if (q + 2) * n * np.dtype(plane._slot_dt).itemsize <= TABLE_BYTE_CAP:
            self._rows = np.empty((q + 2, n), dtype=plane._slot_dt)
            # pencil of arc point i at [i*(q+1), (i+1)*(q+1))
            self._pencils = np.empty((q + 2) * (q + 1), dtype=np.int64)
            self._base = np.arange(0, (q + 2) * (q + 1), q + 1)[:, None]

    def is_complete(self) -> bool:
        return self.covered_count == self.plane.n_points

    def uncovered_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.covered)

    def _joins(self, ids: np.ndarray) -> np.ndarray:
        """(k, m) ids of the lines joining each arc point to each of ids.

        The ids must not be arc points.  Planes too large to keep slot rows
        compute the joins from coordinates.
        """
        k = len(self.arc_points)
        if self._rows is None:
            pl = self.plane
            arc = pl.triples_of_ids(np.asarray(self.arc_points))
            return pl.join_ids(arc[:, None], pl.triples_of_ids(ids)[None, :])
        return self._pencils[self._rows[:k].take(ids, axis=1) + self._base[:k]]

    def add(self, pid: int) -> None:
        """Adjoin an uncovered point: cover its new secants, update counts."""
        if self.covered[pid]:
            raise CoveredPoint(f"point {pid} is already covered")
        pl = self.plane
        k = len(self.arc_points)
        self.covered[pid] = True
        self.covered_count += 1
        if k:
            # two new secants meet only at pid, so every other newly covered
            # point lies on exactly one of them and appears once
            sec_pts = pl.incident_ids(self._joins(np.array([pid]))[:, 0]).ravel()
            newly = sec_pts[~self.covered[sec_pts]]
            # every tangent through a freshly covered point loses it exactly
            # once: those lines are the joins to the k existing arc points
            dec = self._joins(newly)
            self.uncov_on_line -= np.bincount(dec.ravel(), minlength=pl.n_lines)
            self.covered[newly] = True
            self.covered_count += len(newly)
        # fresh counts for the whole pencil at pid (this also overwrites the
        # entries of the new secants, which run through it and lost pid)
        pencil = pl.incident_ids(pid)
        pen_pts = pl.incident_ids(pencil)
        self.uncov_on_line[pencil] = (pl.q + 1) - self.covered[pen_pts].sum(axis=1)
        if self._rows is not None:
            pl.slot_row(pid, pen_pts, self._rows[k])
            self._pencils[k * (pl.q + 1):(k + 1) * (pl.q + 1)] = pencil
        self.arc_points.append(int(pid))

    def gains(self, cand_ids: np.ndarray) -> np.ndarray:
        """Exact number of points each uncovered candidate would newly cover.

        The k lines joining a candidate to the arc points are tangents that
        pairwise meet only at the candidate, so its gain is the sum of
        their uncovered counts minus the k - 1 repeats of the candidate.
        """
        if self.covered[cand_ids].any():
            raise CoveredPoint("gains are defined for uncovered points only")
        k = len(self.arc_points)
        if k == 0:
            return np.ones(len(cand_ids), dtype=np.int64)
        out = np.empty(len(cand_ids), dtype=np.int64)
        step = max(1, _GAIN_CHUNK // k)
        for lo in range(0, len(cand_ids), step):
            chunk = cand_ids[lo:lo + step]
            out[lo:lo + step] = self.uncov_on_line[self._joins(chunk)].sum(axis=0)
        return out - (k - 1)
