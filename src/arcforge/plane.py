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
x1 = a), so its affine points come out normalized.  Taking x1 = g^j in
turn, the products s*g^j are one window of the field's antilog table, so a
line takes one row copy and no product per point.

The q+1 lines through a point are numbered 0..q by direction (its *slots*):
through an affine point a line sits at the id of its point at infinity, so
a slot comes straight from two coordinates and no pencil is listed.  The
slots of one affine point are the origin's translated, which gives a whole
slot row by two takes.  All heavy operations are vectorized over numpy
index arrays; a PlaneIndex only caches what it computes on demand (the
origin's slots, the slot table) and is safe to share between workers.
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


class ZeroTriple(ValueError):
    """The zero triple, which is not a projective point."""


class PlaneIndex:
    """PG(2,q) over a given field: ids, incidence, pencil slots."""

    def __init__(self, field: Field):
        q = field.q
        n = q * q + q + 1
        if n > DEFAULT_POINT_CAP:
            raise MemoryBudgetExceeded(
                f"PG(2,{q}) has {n} points, above the cap of {DEFAULT_POINT_CAP}")
        self.field = field
        self.q = q
        self.n_points = self.n_lines = n
        self._dt = np.int32  # ids below q*q + q + 1 < 2**31 under the point cap
        # smallest dtype that holds the q+1 slots 0..q of a pencil
        self._slot_dt = np.uint8 if q < 256 else np.uint16
        self._slot = None
        self._block = None

    def __repr__(self):
        return f"PlaneIndex(q={self.q}, n_points={self.n_points})"

    # -- id <-> triple ------------------------------------------------------

    def _coords(self, ids):
        """(x0, x1, x2) of the normalized triples of ids, one array each;
        x0 is a bool mask (x0 = 1 on the affine points)."""
        q = self.q
        ids = np.asarray(ids, dtype=self._dt)
        y, z = np.divmod(ids - (q + 1), q)
        affine = ids > q
        x1 = np.where(affine, y, ids >= 1)
        x2 = np.where(affine, z, np.where(ids >= 1, ids - 1, 1))
        return affine, x1, x2

    def triples_of_ids(self, ids):
        """(...,) ids -> (..., 3) normalized triples."""
        return np.stack(self._coords(ids), axis=-1)

    def _ids_of(self, x0, x1, x2):
        """Ids of the triples (x0, x1, x2), not necessarily normalized
        (broadcast), read off each triple times the inverse of its leading
        nonzero coordinate.  The zero triple gives id 0."""
        f, q = self.field, self.q
        lead0, lead1 = x0 != 0, x1 != 0
        scale = f.inv_arr(np.where(lead0, x0, np.where(lead1, x1, 1)))
        y, z = f.mul_arr(x1, scale), f.mul_arr(x2, scale)
        return np.where(lead0, 1 + q + y * q + z,
                        np.where(lead1, 1 + z, 0)).astype(self._dt)

    def point_id(self, coords) -> int:
        """Id of a (not necessarily normalized) nonzero coordinate triple.

        Raises ZeroTriple for the zero triple and ValueError for anything
        else that is not three element indices in [0, q), whatever the size
        of a coordinate: the range is checked before the int32 conversion.
        """
        t = np.asarray(coords)
        if t.shape != (3,) or not all(0 <= x < self.q for x in t.tolist()):
            raise ValueError(f"need three element indices in [0, {self.q})")
        t = t.astype(self._dt)
        if not t.any():
            raise ZeroTriple("zero triple is not a projective point")
        return int(self._ids_of(*t))

    # -- algebra -------------------------------------------------------------

    def dot_triples(self, a, b):
        f = self.field
        s = f.mul_arr(a[..., 0], b[..., 0])
        s = f.add_arr(s, f.mul_arr(a[..., 1], b[..., 1]))
        return f.add_arr(s, f.mul_arr(a[..., 2], b[..., 2]))

    def join_ids(self, coords_a, coords_b):
        """Ids of the lines spanned by coordinate triples a and b (broadcast).

        For point inputs this is the joining line; since the construction is
        self-dual the same routine yields the meet of two lines.  Its triple
        is the cross product a x b, 0 (id 0) for proportional inputs.
        """
        f = self.field
        a0, a1, a2 = coords_a[..., 0], coords_a[..., 1], coords_a[..., 2]
        b0, b1, b2 = coords_b[..., 0], coords_b[..., 1], coords_b[..., 2]
        return self._ids_of(f.sub_arr(f.mul_arr(a1, b2), f.mul_arr(a2, b1)),
                            f.sub_arr(f.mul_arr(a2, b0), f.mul_arr(a0, b2)),
                            f.sub_arr(f.mul_arr(a0, b1), f.mul_arr(a1, b0)))

    def points_on_lines_arr(self, line_ids):
        """(...,) line ids -> (..., q+1) point ids, unsorted.

        A line with l2 != 0 holds (1, t, c + s*t) for t in GF(q), with slope
        s = -l1/l2 and c = -l0/l2, then (0, 1, s); a vertical line (l2 = 0)
        holds (1, a, t) with a = -l0/l1, then (0, 0, 1); the line at infinity
        (1, 0, 0) holds (0, 1, t) and (0, 0, 1).  A steep line lists t = g^j
        for j < q - 1 (one window row, see _steep_ids), then t = 0.  By
        self-duality the same call lists the lines through points.
        """
        q, dt = self.q, self._dt
        lids = np.asarray(line_ids)
        steep, l1, c, s = self._slopes(lids.reshape(-1))
        out = self._steep_ids(c, s, 0, q + 1)
        out[:, q - 1], out[:, q] = 1 + q + c, 1 + s  # (1, 0, c), (0, 1, s)
        flat = np.flatnonzero(~steep)
        if len(flat):  # vertical lines, the line at infinity among them
            t = np.arange(q, dtype=dt)
            out[flat, :q] = np.where(l1[flat, None] != 0, 1 + q + c[flat, None] * q, 1) + t
            out[flat, q] = 0
        return out.reshape(lids.shape + (q + 1,))

    def _slopes(self, lids):
        """(steep, l1, c, s): l2 != 0, l1, and c, s of x2 = c + s*x1 or x1 = c."""
        f = self.field
        l0, l1, l2 = self.triples_of_ids(lids).T
        steep = l2 != 0
        inv = f.inv_arr(np.where(steep, l2, np.where(l1 != 0, l1, 1)))
        return steep, l1, f.mul_arr(f.neg_arr(l0), inv), f.mul_arr(f.neg_arr(l1), inv)

    def _steep_ids(self, c, s, j0, width, out=None):
        """Ids of (1, g^j, c + s*g^j) for j0 <= j < j0 + width <= q + 1, a
        row per line, into out if given: s*g^j is exp_z[log s + j] (the zero
        tail when s = 0), read from the view win[i] = exp_z[j0 + i:][:width]
        (sliding_window_view costs many times more per call)."""
        f, q, e = self.field, self.q, self.field._exp_z
        win = np.ndarray((3 * q + 1, width), e.dtype, e, j0 * e.itemsize, 2 * e.strides)
        return np.add(f.add_arr(win[f._log_z[s]], c[:, None]),
                      e[j0:j0 + width] * q + (1 + q), out=out)

    def join_slots(self, pids, ids):
        """Slot of the line joining pid to id in pid's pencil (broadcast).

        Lines through a point are numbered by direction.  Through an affine
        a the line to b is at the id of its point at infinity: that point is
        the direction b - b0*a, (0, 1, num/den) or (0, 0, 1), with
        den = b1 - b0*a1 and num = b2 - b0*a2, so the slot is 1 + num/den,
        or 0 when den = 0; a point b at infinity is at slot id(b).  Through
        a point at infinity the line at infinity is at slot 0 and the line
        to an affine b meets the line x1 = 0 at (1, 0, c) (through (0,1,t),
        c = b2 - t*b1) or x2 = 0 at (1, c, 0) (through (0,0,1), c = b1), so
        it is at slot 1 + c: there den = b0 and num = c.  As b0 is 0 or 1,
        an affine a pays two subtractions, one inverse and one product per
        pair.  join_slots(a, a) is 0.
        """
        f = self.field
        a0, a1, a2 = self._coords(pids)
        b0, b1, b2 = self._coords(ids)
        den = f.sub_arr(b1, b0 * a1)
        num = f.sub_arr(b2, b0 * a2)
        if not a0.all():
            far = ~a0
            den = np.where(far, b0, den)
            num = np.where(far, np.where(a1 == 1, f.sub_arr(b2, f.mul_arr(a2, b1)),
                                         b1), num)
        return np.where(den != 0, 1 + f.mul_arr(num, f.inv_arr(den)), 0)

    # -- slot rows: a point's slots for every point of the plane ---------------

    def _origin_block(self):
        """(block, shift), built once and cached, both in slot dtype:
        block[u, v] is the slot through the origin (1, 0, 0) of the affine
        point (1, u, v), built 64 rows at a time so its temporaries stay
        small, and shift[y, u] = u - y translates it (see slot_row)."""
        if self._block is None:
            q = self.q
            block = np.empty((q, q), dtype=self._slot_dt)
            for u in range(0, q, 64):
                ids = np.arange(q + 1 + u * q, q + 1 + min(u + 64, q) * q)
                block[u:u + 64] = self.join_slots(q + 1, ids).reshape(-1, q)
            t = np.arange(q)
            self._block = block, self.field.sub_arr(t, t[:, None]).astype(self._slot_dt)
        return self._block

    def slot_row(self, pid, out):
        """Write into out[x] the slot (see join_slots) of the line pid x.

        Copies the slot table's row once incidence_tables() has built it.
        Otherwise an affine pid = (1, y, z) reads the origin's block
        translated, block[u - y, v - z] at (1, u, v), and its slot of a point
        at infinity is that point's id; a pid at infinity computes its row
        with join_slots.  out[pid] is 0.
        """
        q = self.q
        if self._slot is not None:
            out[:] = self._slot[pid]
        elif pid > q:
            block, shift = self._origin_block()
            y, z = divmod(pid - q - 1, q)
            out[:q + 1] = np.arange(q + 1)
            block.take(shift[z], axis=1).take(shift[y], axis=0,
                                              out=out[q + 1:].reshape(q, q))
        else:
            out[:] = self.join_slots(pid, np.arange(self.n_points))

    # -- dense incidence table (small q only) ---------------------------------

    def has_tables(self) -> bool:
        """True when the slot table, n^2 bytes, fits in half of
        TABLE_BYTE_CAP; the other half is left to the search's own arrays.
        The rule admits the table for q <= 109.
        """
        return self.n_points ** 2 <= TABLE_BYTE_CAP // 2

    def incidence_tables(self):
        """(slot,): the slot table, built once and cached.

        slot[a, x] is join_slots(a, x) in the slot dtype (one byte at these
        q), so slot[a] is slot_row(a).
        The affine rows with one z are filled together, as the origin's
        block with its columns translated by z and its rows by every y;
        the q+1 rows at infinity come from slot_row.  Only available when
        has_tables() holds.
        """
        if self._slot is None:
            if not self.has_tables():
                raise MemoryBudgetExceeded(
                    f"incidence tables for q={self.q} exceed the table budget")
            n, q = self.n_points, self.q
            slot = np.empty((n, n), dtype=self._slot_dt)
            for a in range(q + 1):
                self.slot_row(a, slot[a])
            slot[q + 1:, :q + 1] = np.arange(q + 1)
            block, shift = self._origin_block()
            for z in range(q):
                rows = slot[q + 1 + z::q, q + 1:].reshape(q, q, q)  # (y, u, v)
                block.take(shift[z], axis=1).take(shift, axis=0, out=rows)
            self._slot = slot
        return (self._slot,)


def build_plane(field: Field) -> PlaneIndex:
    """Index PG(2,q) for the given field."""
    return PlaneIndex(field)

