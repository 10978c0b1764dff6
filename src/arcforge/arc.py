"""Arcs, arc verification, and secant-coverage bookkeeping.

An arc is a point set meeting every line in at most two points.  A point of
the plane is *covered* when it belongs to the arc or lies on a secant (a
line through two arc points); the arc is complete exactly when every point
is covered, since an uncovered point could always be adjoined.

``verify_arc`` / ``verify_complete`` recompute everything from scratch and
serve as the independent verifiers; they never read the plane's tables, and
only they call ``join_ids``.  ``Coverage`` is the one incremental kernel:
it adjoins uncovered points one at a time, keeps the covered mask and the
uncovered count of every line through the arc, stored per arc point and
pencil slot (lines numbered by direction, see ``PlaneIndex.join_slots``),
and from those scores candidates by their exact coverage gain.  A join of
an arc point and any point is a slot, read from a slot row or computed from
coordinates by ``join_slots``; that is the only step that differs between
planes, and no step lists a line's points.  The greedy search and the
oracle tests run it.
"""

from __future__ import annotations

import numpy as np

from .plane import TABLE_BYTE_CAP, PlaneIndex

_LINE_CHUNK = 2048  # bounds the (lines x q+1) marking buffers
# bounds (arc points x candidates) per gains group: its temporaries hold at
# most 2^16 elements, or one arc point's m when m is larger
_GAIN_CHUNK = 1 << 16
# bounds the uncovered ids that add finds slots for in one call
_ID_CHUNK = 1 << 18


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

    Holds the covered mask and its popcount, the arc's points and, at
    i*(q+1) + s, the uncovered count (int32) of the line at slot s of the
    i-th arc point's pencil, the slots numbering lines by direction (see
    PlaneIndex.join_slots).  A tangent lies in one pencil; a secant reads 0
    in both of its own.  Joins are slots: from a slot row per arc point
    (for every x, the slot of line ax) while q+2 rows fit TABLE_BYTE_CAP,
    else from coordinates via PlaneIndex.join_slots.  No step lists a
    pencil.  Never share one instance between concurrent workers.
    """

    def __init__(self, plane: PlaneIndex):
        self.plane = plane
        self.covered = np.zeros(plane.n_points, dtype=bool)
        self.covered_count = 0
        self.arc_points: list[int] = []
        q, n = plane.q, plane.n_points
        self._counts = np.zeros((q + 2) * (q + 1), dtype=np.int32)
        self._base = np.arange(0, (q + 2) * (q + 1), q + 1)[:, None]
        self._rows = None
        if (q + 2) * n * np.dtype(plane._slot_dt).itemsize <= TABLE_BYTE_CAP:
            self._rows = np.empty((q + 2, n), dtype=plane._slot_dt)

    @property
    def uncov_on_line(self) -> np.ndarray:
        """Counts by line id (0 off the arc's pencils), built on each read.

        Each line through an arc point finds its slot by joining the arc
        point to one of the line's first and last listed points.
        """
        pl, q = self.plane, self.plane.q
        pts = np.asarray(self.arc_points, dtype=np.int64)
        lines = pl.points_on_lines_arr(pts)
        ends = pl.points_on_lines_arr(lines)[..., [0, q]]
        other = np.where(ends[..., 0] != pts[:, None], ends[..., 0], ends[..., 1])
        out = np.zeros(pl.n_lines, dtype=self._counts.dtype)
        out[lines] = self._counts[pl.join_slots(pts[:, None], other)
                                  + self._base[:len(pts)]]
        return out

    def is_complete(self) -> bool:
        return self.covered_count == self.plane.n_points

    def uncovered_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.covered)

    def _slots(self, ids: np.ndarray, group: slice = slice(None)):
        """(g, m) slots of the joins of arc_points[group] to ids.

        From the slot rows, else from join_slots; no id is in group.
        """
        if self._rows is None:
            arc = np.asarray(self.arc_points[group])[:, None]
            return self.plane.join_slots(arc, ids[None, :])
        return self._rows[:len(self.arc_points)][group].take(ids, axis=1)

    def _joins(self, ids: np.ndarray, group: slice = slice(None)):
        """(g, m) count positions of the joins of arc_points[group] to ids."""
        return self._slots(ids, group) + self._base[:len(self.arc_points)][group]

    def add(self, pid: int) -> None:
        """Adjoin an uncovered point: cover its new secants, update counts.

        Each uncovered point is placed by its slot through pid: those at an
        old arc point's slot lie on a new secant and are now covered, and
        the rest, counted by slot, are pid's counts.
        """
        if self.covered[pid]:
            raise CoveredPoint(f"point {pid} is already covered")
        q, k = self.plane.q, len(self.arc_points)
        pos = k * (q + 1)  # where pid's counts go
        self.covered[pid] = True
        self.covered_count += 1
        if self._rows is not None:
            self.plane.slot_row(pid, self._rows[k])
        self.arc_points.append(int(pid))
        own = slice(k, k + 1)
        unc = self.uncovered_ids()
        slots = np.empty(len(unc), dtype=self.plane._slot_dt)
        for lo in range(0, len(unc), _ID_CHUNK):
            slots[lo:lo + _ID_CHUNK] = self._slots(unc[lo:lo + _ID_CHUNK], own)[0]
        if k:
            # the new secants meet only at pid: each newly covered point
            # lies on one of them
            secant = np.zeros(q + 1, dtype=bool)
            secant[self._slots(np.asarray(self.arc_points[:k]), own)[0]] = True
            hit = secant[slots]
            newly = unc[hit]
            slots = slots[~hit]
            self.covered[newly] = True
            self.covered_count += len(newly)
            # each newly covered point, pid too, leaves its k joins to the old
            # arc points once; pid's own bring the new secants to 0
            dec = self._joins(np.append(newly, pid), slice(k)).ravel()
            self._counts[:pos] -= np.bincount(dec, minlength=pos)
        self._counts[pos:pos + q + 1] = np.bincount(slots, minlength=q + 1)

    def gains(self, cand_ids: np.ndarray) -> np.ndarray:
        """Exact number of points each uncovered candidate would newly cover.

        The k lines joining a candidate to the arc points are tangents that
        pairwise meet only at the candidate, so its gain is the sum of
        their uncovered counts minus the k - 1 repeats of the candidate.
        """
        if self.covered[cand_ids].any():
            raise CoveredPoint("gains are defined for uncovered points only")
        k, m = len(self.arc_points), len(cand_ids)
        out = np.full(m, 1 - k, dtype=np.int64)
        step = max(1, _GAIN_CHUNK // max(m, 1))  # arc points per group
        for lo in range(0, k, step):
            out += self._counts[self._joins(cand_ids, slice(lo, lo + step))].sum(0)
        return out
