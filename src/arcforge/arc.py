"""Arcs, arc verification, and secant-coverage bookkeeping.

An arc is a point set meeting every line in at most two points.  A point of
the plane is *covered* when it belongs to the arc or lies on a secant (a
line through two arc points); the arc is complete exactly when every point
is covered, since an uncovered point could always be adjoined.

``verify_arc`` / ``verify_complete`` recompute everything from scratch and
serve as the independent verifiers; they never read the plane's tables, and
only they call ``join_ids``; secants are marked a band of mask rows at a
time, in memory flat in q.  ``Coverage`` is the one incremental kernel:
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

# elements in one block of working arrays: the ids the verifier marks at
# once (a quarter as many intp ids: 64 mask rows of 256 lines), a gains
# group (arc points x candidates), the ids add places, a decrement's joins
_BLOCK = 1 << 16


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


def _arc_lines(arc: Arc) -> np.ndarray | None:
    """The C(k,2) lines joining pairs of arc points, or None when k > q + 2
    (no arc is larger, so no join is made), a point repeats or three are
    collinear (two of the lines then coincide)."""
    k = len(arc.points)
    if k > arc.plane.q + 2 or len(set(arc.points)) != k:
        return None
    coords = arc.coords()
    iu, ju = np.triu_indices(k, 1)
    lids = arc.plane.join_ids(coords[iu], coords[ju])
    return lids if len(np.unique(lids)) == len(lids) else None


def verify_arc(arc: Arc) -> bool:
    """True iff no line meets the arc in three points.

    Tallies arc points per line over all pairs: the arc property holds
    exactly when the C(k,2) joining lines are pairwise distinct.
    """
    return _arc_lines(arc) is not None


def _covered(arc: Arc) -> tuple[bool, np.ndarray]:
    """(complete, covered mask), computed as verify_complete describes."""
    lids = _arc_lines(arc)
    if lids is None:
        raise NotAnArc("input fails the arc property")
    pl, q = arc.plane, arc.plane.q
    covered = arc.in_arc.copy()
    steep, _, c, s = pl._slopes(lids)
    flat, c, s = lids[~steep], c[steep], s[steep]
    step = max(1, _BLOCK // (q + 1))  # vertical lines and the line at infinity
    for lo in range(0, len(flat), step):
        covered[pl.points_on_lines_arr(flat[lo:lo + step])] = True
    covered[1 + q + c] = covered[1 + s] = True  # (1, 0, c) and (0, 1, s)
    step = _BLOCK // 256  # steep lines per block: 128 KB of intp ids
    blocks = [(c[lo:lo + step], s[lo:lo + step]) for lo in range(0, len(c), step)]
    buf = np.empty(step * 64, dtype=np.intp)
    for j0 in range(0, q - 1, 64):  # the band of rows x1 = g^j0 ... g^(j0+63)
        w = min(64, q - 1 - j0)
        for cb, sb in blocks:
            covered[pl._steep_ids(cb, sb, j0, w, buf[:w * len(cb)].reshape(-1, w))] = True
    return bool(covered.all()), covered


def verify_complete(arc: Arc) -> tuple[bool, list[int]]:
    """Recompute coverage from scratch; return (complete, uncovered ids).

    Raises NotAnArc when the input fails the arc property, which it checks
    on the same joins it marks.  A steep secant x2 = c + s*x1 has a point
    in each q-byte mask row x1 = g^j, so those are marked a band of 64 rows
    at a time (_BLOCK // 256 lines per block, intp ids in one reused block),
    their two points off the rows once; beyond the n-byte mask the working
    memory does not grow with q.  Every uncovered id could extend the arc.
    """
    complete, covered = _covered(arc)
    if complete:
        return True, []
    return False, np.flatnonzero(np.logical_not(covered, out=covered)).tolist()


class Coverage:
    """Incremental secant coverage of a growing arc (single-owner).

    Holds the covered mask, the uncovered ids in ascending order (the
    covered count is read from them), the arc's points and, at i*(q+1) + s,
    the uncovered count (int32) of the line at slot s of the i-th arc
    point's pencil, the slots numbering lines by direction (see
    PlaneIndex.join_slots).  A tangent lies in one pencil; a secant reads 0
    in both of its own.  Joins are slots: from a slot row per arc point (for
    every x, the slot of line ax) while q+2 rows fit TABLE_BYTE_CAP, else
    from coordinates via PlaneIndex.join_slots.  No step lists a pencil.

    Working memory is bounded and reused: gains and add work in blocks of
    at most _BLOCK elements, in scratch arrays of max(_BLOCK, q + 2)
    elements allocated once here (a decrement block or the secant read may
    take k elements, and k <= q + 2 as the kernel holds an arc), and add
    compacts the uncovered ids in place.  Arrays the public methods return
    are never scratch.  Never share one instance between concurrent workers.
    """

    def __init__(self, plane: PlaneIndex):
        self.plane = plane
        self.covered = np.zeros(plane.n_points, dtype=bool)
        self.arc_points: list[int] = []
        q, n = plane.q, plane.n_points
        self._counts = np.zeros((q + 2) * (q + 1), dtype=np.int32)
        self._base = np.arange(0, (q + 2) * (q + 1), q + 1)[:, None]
        self._rows = None
        if (q + 2) * n * np.dtype(plane._slot_dt).itemsize <= TABLE_BYTE_CAP:
            self._rows = np.empty((q + 2, n), dtype=plane._slot_dt)
        self._unc = np.arange(n)  # uncovered ids in _unc[:_m], ascending
        self._m = n
        size = max(_BLOCK, q + 2)
        self._slot = np.empty(size, dtype=plane._slot_dt)
        self._pos = np.empty(size, dtype=np.intp)
        self._cnt = np.empty(size, dtype=np.int32)
        self._hit = np.empty(size, dtype=bool)
        self._sum = np.empty(size, dtype=np.int64)

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

    @property
    def covered_count(self) -> int:
        """Points covered so far: those off the uncovered list."""
        return self.plane.n_points - self._m

    def is_complete(self) -> bool:
        return self._m == 0

    def uncovered_ids(self) -> np.ndarray:
        """Ascending ids of the uncovered points, as a new array."""
        return self._unc[:self._m].copy()

    def _own_slots(self, ids: np.ndarray):
        """Slots of the joins of the last arc point to ids (the slot
        scratch when read from its slot row); no id is that point."""
        if self._rows is None:
            return self.plane.join_slots(self.arc_points[-1], ids)
        k = len(self.arc_points) - 1
        return self._rows[k].take(ids, mode="clip", out=self._slot[:len(ids)])

    def _positions(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, len(ids)) count positions, in the position scratch, of
        the joins of arc_points[lo:hi] to ids; no id is in that group."""
        out = self._pos[:(hi - lo) * len(ids)].reshape(hi - lo, len(ids))
        if self._rows is None:
            arc = np.asarray(self.arc_points[lo:hi])[:, None]
            slots = self.plane.join_slots(arc, ids)
        else:
            slots = self._rows[lo:hi].take(ids, axis=1, mode="clip",
                                           out=self._slot[:out.size].reshape(out.shape))
        return np.add(slots, self._base[lo:hi], out=out)

    def add(self, pid: int) -> None:
        """Adjoin an uncovered point: cover its new secants, update counts.

        Each uncovered point is placed by its slot through pid: those at an
        old arc point's slot lie on a new secant and are now covered, and
        the rest, counted by slot, are pid's counts.  The uncovered ids go
        through in blocks of _BLOCK, each compacted into place as it goes.
        """
        if self.covered[pid]:
            raise CoveredPoint(f"point {pid} is already covered")
        q, k = self.plane.q, len(self.arc_points)
        pos = k * (q + 1)  # where pid's counts go
        if self._rows is not None:
            self.plane.slot_row(pid, self._rows[k])
        self.arc_points.append(int(pid))
        # the new secants meet only at pid: each newly covered point lies
        # on one of them
        secant = np.zeros(q + 1, dtype=bool)
        if k:
            secant[self._own_slots(np.asarray(self.arc_points[:k]))] = True
        own = self._counts[pos:pos + q + 1]
        unc, m = self._unc, self._m
        at = int(np.searchsorted(unc[:m], pid))
        kept = 0
        step = max(1, _BLOCK // max(k, 1))  # newly covered per decrement
        for lo in range(0, m, _BLOCK):
            ids = unc[lo:min(lo + _BLOCK, m)]
            slots = self._own_slots(ids)
            if self._rows is not None:  # as intp, which take and bincount want
                self._pos[:len(ids)] = slots
                slots = self._pos[:len(ids)]
            own += np.bincount(slots, minlength=q + 1)
            hit = secant.take(slots, mode="clip", out=self._hit[:len(ids)])
            if lo <= at < lo + len(ids):
                hit[at - lo] = True  # pid leaves the list with them
            # each newly covered point, pid too, leaves its k joins to the
            # old arc points once; pid's own bring the new secants to 0
            newly = ids[hit]
            self.covered[newly] = True
            rest = ids[np.logical_not(hit, out=hit)]
            unc[kept:kept + len(rest)] = rest
            kept += len(rest)
            for d in range(0, len(newly), step):
                dec = self._positions(newly[d:d + step], 0, k).ravel()
                self._counts[:pos] -= np.bincount(dec, minlength=pos)
        self._m = kept
        # the bincounts took pid's join to itself as slot 0, and the points
        # at a secant's slot are covered now
        own[0] -= 1
        own[secant] = 0

    def gains(self, cand_ids: np.ndarray) -> np.ndarray:
        """Exact number of points each uncovered candidate would newly cover.

        The k lines joining a candidate to the arc points are tangents that
        pairwise meet only at the candidate, so its gain is the sum of
        their uncovered counts minus the k - 1 repeats of the candidate.
        Candidates go through in blocks of at most _BLOCK, and each block's
        counts are summed over groups of arc points, group x block <= _BLOCK.
        """
        if self.covered[cand_ids].any():
            raise CoveredPoint("gains are defined for uncovered points only")
        k, m = len(self.arc_points), len(cand_ids)
        out = np.full(m, 1 - k, dtype=np.int64)
        width = max(1, min(m, _BLOCK))  # candidates per block
        step = max(1, _BLOCK // width)  # arc points per group
        for c in range(0, m, width):
            ids = cand_ids[c:c + width]
            for lo in range(0, k, step):
                hi = min(lo + step, k)
                pos = self._positions(ids, lo, hi)
                cnt = self._counts.take(pos, mode="clip",
                                        out=self._cnt[:pos.size].reshape(pos.shape))
                out[c:c + width] += np.add.reduce(cnt, axis=0, dtype=np.int64,
                                                  out=self._sum[:len(ids)])
        return out
