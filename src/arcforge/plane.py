"""Canonical enumeration of PG(2,q) with fast incidence queries.

Points are homogeneous triples (x0, x1, x2) over GF(q), normalized so the
leftmost nonzero coordinate is 1.  Lines carry dual triples under the same
normalization; a point lies on a line iff the dot product vanishes.

Canonical ids are lexicographic on the normalized triple (comparing element
indices), which makes the id <-> triple map pure arithmetic:

    (0,0,1)            -> 0
    (0,1,z)            -> 1 + z
    (1,y,z)            -> 1 + q + y*q + z

so nothing per-point is ever stored.  The same map serves lines.  A line
lists its points from its affine slope: in x0 = 1 it is x2 = c + s*x1 (or
x1 = a), so its affine points come out normalized.  All heavy operations are
vectorized over numpy index arrays; a PlaneIndex is immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

import numpy as np

from .gf import Field

# default accommodates every q tabulated in the reference data (q <= 9109)
DEFAULT_POINT_CAP = 83_000_000
# bounds the dense incidence tables and the coverage kernel's slot rows
TABLE_BYTE_CAP = 300_000_000


class MemoryBudgetExceeded(MemoryError):
    """The plane would have more points than DEFAULT_POINT_CAP."""


def check_point_cap(q: int) -> None:
    """Raise MemoryBudgetExceeded if PG(2,q) has more than DEFAULT_POINT_CAP
    points; it needs q alone, so callers check before building the field."""
    n = q * q + q + 1
    if n > DEFAULT_POINT_CAP:
        raise MemoryBudgetExceeded(
            f"PG(2,{q}) has {n} points, above the cap of {DEFAULT_POINT_CAP}")


class PlaneIndex:
    """PG(2,q) over a given field: ids, incidence, pencils."""

    def __init__(self, field: Field):
        q = field.q
        check_point_cap(q)
        self.field = field
        self.q = q
        self.n_points = self.n_lines = q * q + q + 1
        self._dt = np.int32  # ids below q*q + q + 1 < 2**31 under the point cap
        # smallest dtype that holds the q+1 slots 0..q of a pencil
        self._slot_dt = np.uint8 if q < 256 else np.uint16
        self._slot = None
        self._line_points = None

    def __repr__(self):
        return f"PlaneIndex(q={self.q}, n_points={self.n_points})"

    # -- id <-> triple ------------------------------------------------------

    def triples_of_ids(self, ids):
        """(...,) ids -> (..., 3) normalized triples."""
        q = self.q
        ids = np.asarray(ids, dtype=self._dt)
        out = np.zeros(ids.shape + (3,), dtype=self._dt)
        axis_row = ids > q
        r = ids - (q + 1)
        out[..., 0] = np.where(axis_row, 1, 0)
        out[..., 1] = np.where(axis_row, r // q, np.where(ids >= 1, 1, 0))
        out[..., 2] = np.where(axis_row, r % q, np.where(ids >= 1, ids - 1, 1))
        return out

    def ids_of_triples(self, t):
        """(..., 3) normalized triples -> (...,) ids."""
        q = self.q
        x0, x1, x2 = t[..., 0], t[..., 1], t[..., 2]
        return np.where(x0 == 1, 1 + q + x1 * q + x2,
                        np.where(x1 == 1, 1 + x2, 0)).astype(self._dt)

    def normalize_triples(self, t):
        """Scale each nonzero triple so its leftmost nonzero entry is 1."""
        f = self.field
        t = np.asarray(t)
        x0, x1 = t[..., 0], t[..., 1]
        lead = np.where(x0 != 0, x0, np.where(x1 != 0, x1, t[..., 2]))
        scale = f.inv_arr(np.where(lead != 0, lead, 1))
        return f.mul_arr(t, scale[..., None])

    def point_id(self, coords) -> int:
        """Id of a (not necessarily normalized) nonzero coordinate triple."""
        t = np.asarray(coords, dtype=self._dt)
        if t.shape != (3,) or t.min() < 0 or t.max() >= self.q:
            raise ValueError(f"need three element indices in [0, {self.q})")
        if not t.any():
            raise ValueError("zero triple is not a projective point")
        return int(self.ids_of_triples(self.normalize_triples(t)))

    # -- algebra -------------------------------------------------------------

    def dot_triples(self, a, b):
        f = self.field
        s = f.mul_arr(a[..., 0], b[..., 0])
        s = f.add_arr(s, f.mul_arr(a[..., 1], b[..., 1]))
        return f.add_arr(s, f.mul_arr(a[..., 2], b[..., 2]))

    def join_ids(self, coords_a, coords_b):
        """Ids of the lines spanned by coordinate triples a and b (broadcast).

        For point inputs this is the joining line; since the construction is
        self-dual the same routine yields the meet of two lines.  The cross
        product l = a x b is scaled by the inverse of its leading nonzero
        coordinate and mapped straight to its id, without building the
        normalized triple.  Equal (proportional) inputs give l = 0 and id 0.
        """
        f, q = self.field, self.q
        a0, a1, a2 = coords_a[..., 0], coords_a[..., 1], coords_a[..., 2]
        b0, b1, b2 = coords_b[..., 0], coords_b[..., 1], coords_b[..., 2]
        l0 = f.sub_arr(f.mul_arr(a1, b2), f.mul_arr(a2, b1))
        l1 = f.sub_arr(f.mul_arr(a2, b0), f.mul_arr(a0, b2))
        l2 = f.sub_arr(f.mul_arr(a0, b1), f.mul_arr(a1, b0))
        lead0, lead1 = l0 != 0, l1 != 0
        scale = f.inv_arr(np.where(lead0, l0, np.where(lead1, l1, 1)))
        y, z = f.mul_arr(l1, scale), f.mul_arr(l2, scale)
        return np.where(lead0, 1 + q + y * q + z,
                        np.where(lead1, 1 + z, 0)).astype(self._dt)

    def points_on_lines_arr(self, line_ids):
        """(...,) line ids -> (..., q+1) point ids, unsorted.

        A line with l2 != 0 holds (1, t, c + s*t) for t in GF(q), with slope
        s = -l1/l2 and c = -l0/l2, then (0, 1, s); a vertical line (l2 = 0)
        holds (1, a, t) with a = -l0/l1, then (0, 0, 1); the line at infinity
        (1, 0, 0) holds (0, 1, t) and (0, 0, 1).  That is one inverse per
        line and one product and one sum per point.  By self-duality the
        same call lists the lines through points.
        """
        f, q, dt = self.field, self.q, self._dt
        lids = np.asarray(line_ids)
        l0, l1, l2 = self.triples_of_ids(lids.reshape(-1)).T
        steep = l2 != 0
        inv = f.inv_arr(np.where(steep, l2, np.where(l1 != 0, l1, 1)))
        c = f.mul_arr(f.neg_arr(l0), inv)  # intercept, or a when vertical
        s = f.mul_arr(f.neg_arr(l1), inv)
        t = np.arange(q, dtype=dt)
        out = np.empty((len(l0), q + 1), dtype=dt)
        np.add(f.add_arr(c[:, None], f.mul_arr(s[:, None], t)), t * q + 1 + q,
               out=out[:, :q])
        out[:, q] = 1 + s
        flat = np.flatnonzero(~steep)
        out[flat, :q] = np.where(l1[flat, None] != 0, 1 + q + c[flat, None] * q, 1) + t
        out[flat, q] = 0
        return out.reshape(lids.shape + (q + 1,))

    def join_slots(self, pids, ids):
        """Slot in incident_ids(pid) of the line joining pid to id (broadcast).

        Through a point with a2 != 0 line (1, y, z) is at slot y, else at z;
        through (1, 0, 0) line (0, 1, t) is at slot t; other lines at slot q.
        With l = a x b the slot is num / den: num is l1 if a2 != 0, else l2;
        den is l0, or l1 at (1, 0, 0), where every l0 is 0; den = 0 gives q.
        As a0, b0 are 0 or 1, only l0 takes field products.  pid != id.
        """
        f, q = self.field, self.q
        a0, a1, a2 = np.moveaxis(self.triples_of_ids(pids), -1, 0)
        b0, b1, b2 = np.moveaxis(self.triples_of_ids(ids), -1, 0)
        l0 = f.sub_arr(f.mul_arr(a1, b2), f.mul_arr(a2, b1))
        l1 = f.sub_arr(np.where(b0 == 1, a2, 0), np.where(a0 == 1, b2, 0))
        l2 = f.sub_arr(np.where(a0 == 1, b1, 0), np.where(b0 == 1, a1, 0))
        num = np.where(a2 != 0, l1, l2)
        den = np.where(np.asarray(pids) == q + 1, l1, l0)
        return np.where(den != 0, f.mul_arr(num, f.inv_arr(den)), q)

    # -- id queries, read from the dense tables once they are built ----------

    def incident_ids(self, ids):
        """(...,) ids -> (..., q+1) incident ids, unsorted.

        The points on each line, or by self-duality the lines through each
        point.  Reads the line table once incidence_tables() has built it and
        computes the pencils with points_on_lines_arr otherwise.
        """
        if self._line_points is not None:
            return self._line_points[ids]
        return self.points_on_lines_arr(ids)

    def slot_row(self, pid, pen_pts, out):
        """Write into out[x] the slot (see join_slots) of the line pid x.

        pen_pts = incident_ids(incident_ids(pid)).  Copies the slot table's
        row once incidence_tables() has built it, and scatters the slot
        numbers over pen_pts otherwise.  out[pid] is 0.
        """
        if self._slot is not None:
            out[:] = self._slot[pid]
        else:
            out[pen_pts] = np.arange(self.q + 1, dtype=out.dtype)[:, None]
            out[pid] = 0

    # -- dense incidence tables (small q only) --------------------------------

    def has_tables(self) -> bool:
        """True when the dense tables fit in half of TABLE_BYTE_CAP.

        The slot table takes n^2 bytes and the line table n(q+1) ids of two
        bytes; the other half of the cap is left to the search's own arrays.
        The rule admits the tables for q <= 109.
        """
        n = self.n_points
        return n * n + 2 * n * (self.q + 1) <= TABLE_BYTE_CAP // 2

    def incidence_tables(self):
        """(slot, line_points) lookup tables, built once and cached.

        line_points[l] lists the q+1 points of line l in points_on_lines_arr
        order; by self-duality line_points[x] also lists the lines through
        point x.  slot[a, x] (uint8) is the position, within line_points[a],
        of the line joining points a and x, and 0 on the diagonal.  slot is
        filled by writing each slot number over the points of its line, so
        no join is computed.  Only available when has_tables() holds.
        """
        if self._slot is None:
            if not self.has_tables():
                raise MemoryBudgetExceeded(
                    f"incidence tables for q={self.q} exceed the table budget")
            n, q = self.n_points, self.q
            dt = np.int16 if n <= np.iinfo(np.int16).max else np.int32
            lpts = self.points_on_lines_arr(np.arange(n)).astype(dt)
            slot = np.empty((n, n), dtype=np.uint8)
            slots = np.arange(q + 1, dtype=slot.dtype)[None, :, None]
            block = max(1, 1_000_000 // (q + 1) ** 2)
            for lo in range(0, n, block):
                pts = lpts[lpts[lo:lo + block]]  # (B, q+1 lines, q+1 points)
                rows = np.arange(lo, lo + len(pts))[:, None, None]
                slot[rows, pts] = slots
            np.fill_diagonal(slot, 0)
            self._slot = slot
            self._line_points = lpts
        return self._slot, self._line_points


def build_plane(field: Field) -> PlaneIndex:
    """Index PG(2,q) for the given field."""
    return PlaneIndex(field)

