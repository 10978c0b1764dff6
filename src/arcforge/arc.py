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
so a join of an arc point and a candidate is a slot lookup, not a field
computation; gains sum the arc's pencil counts at slots, a group of arc
points at a time.  The greedy search, arc extension and oracle tests run it.
"""

from __future__ import annotations

import numpy as np

from .plane import TABLE_BYTE_CAP, PlaneIndex

_LINE_CHUNK = 2048  # bounds the (lines x q+1) marking buffers
# bounds (arc points x candidates) per gains group: its int64 temporaries
# hold at most 2^16 elements (512 KB), or one arc point's m when m is larger
_GAIN_CHUNK = 1 << 16


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
    x, the position of line ax within that pencil.  ``gains`` reads the
    k(q+1) pencil counts once per call and gathers them at slots; ``add``
    counts the tangents it decrements by slot.  The rows are kept while
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

    def _joins(self, ids: np.ndarray, group: slice = slice(None)):
        """(g, m) joins of the arc points arc_points[group] to each of ids.

        With slot rows, positions in the arc's pencils (_pencils maps them to
        line ids); without, line ids from coordinates.  No id is an arc point.
        """
        if self._rows is None:
            pl = self.plane
            arc = pl.triples_of_ids(np.asarray(self.arc_points[group]))
            return pl.join_ids(arc[:, None], pl.triples_of_ids(ids)[None, :])
        k = len(self.arc_points)
        return self._rows[:k][group].take(ids, axis=1) + self._base[:k][group]

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
            sec = self._joins(np.array([pid]))[:, 0]
            sec_pts = pl.incident_ids(sec if self._rows is None else self._pencils[sec])
            newly = sec_pts[~self.covered[sec_pts]]
            # every tangent through a freshly covered point loses it exactly
            # once: those lines are the joins to the k existing arc points
            dec = self._joins(newly).ravel()
            if self._rows is None:
                self.uncov_on_line -= np.bincount(dec, minlength=pl.n_lines)
            else:  # slot positions, counted over the arc's k pencils
                np.subtract.at(self.uncov_on_line, self._pencils[:k * (pl.q + 1)],
                               np.bincount(dec, minlength=k * (pl.q + 1)))
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
        k, m = len(self.arc_points), len(cand_ids)
        counts = (self.uncov_on_line if self._rows is None else
                  self.uncov_on_line[self._pencils[:k * (self.plane.q + 1)]])
        out = np.full(m, 1 - k, dtype=np.int64)
        step = max(1, _GAIN_CHUNK // max(m, 1))  # arc points per group
        for lo in range(0, k, step):
            out += counts[self._joins(cand_ids, slice(lo, lo + step))].sum(0)
        return out
