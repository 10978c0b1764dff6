import itertools

import numpy as np
import pytest

from arcforge import certify
from arcforge.gf import Field, factor_prime_power, field_of_order
from arcforge.plane import MemoryBudgetExceeded, ZeroTriple, build_plane


def plane_of(q):
    return build_plane(field_of_order(q))


SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 32]


@pytest.mark.parametrize("q", SMALL_Q)
def test_point_and_line_counts(q):
    pl = plane_of(q)
    assert pl.n_points == q * q + q + 1
    assert pl.n_lines == pl.n_points
    # ids <-> triples is a bijection onto normalized triples
    ids = np.arange(pl.n_points)
    triples = pl.triples_of_ids(ids)
    assert [pl.point_id(t) for t in triples] == ids.tolist()
    lead_is_one = []
    for t in triples:
        nz = [c for c in t if c != 0]
        lead_is_one.append(nz[0] == 1 if nz else False)
    assert all(lead_is_one)


def test_fano_plane_examples():
    pl = plane_of(2)
    tri = pl.triples_of_ids
    p100, p010 = pl.point_id([1, 0, 0]), pl.point_id([0, 1, 0])
    lid = int(pl.join_ids(tri(p100), tri(p010)))
    assert tuple(tri(lid)) == (0, 0, 1)
    assert pl.dot_triples(tri(pl.point_id([1, 1, 0])), tri(lid)) == 0
    assert pl.dot_triples(tri(pl.point_id([1, 1, 1])), tri(lid)) != 0
    on = sorted(pl.points_on_lines_arr(lid).tolist())
    expect = sorted(pl.point_id(c) for c in ([1, 0, 0], [0, 1, 0], [1, 1, 0]))
    assert on == expect


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_unique_line_through_pairs_exhaustive(q):
    pl = plane_of(q)
    n = pl.n_points
    tri = pl.triples_of_ids(np.arange(n))
    # oracle: the raw incidence zero-pattern, no join/cross machinery
    on = (pl.dot_triples(tri[:, None, :], tri[None, :, :]) == 0).astype(np.int64)
    common = on @ on.T  # common lines per point pair
    assert (np.diag(common) == q + 1).all()
    off = common - np.diag(np.diag(common))
    assert (off + np.eye(n, dtype=np.int64) == 1).all()
    # join_ids returns a line doubly incident with each pair
    lids = pl.join_ids(tri[:, None, :], tri[None, :, :])
    ltri = pl.triples_of_ids(lids)
    d1 = pl.dot_triples(ltri, tri[:, None, :])
    d2 = pl.dot_triples(ltri, tri[None, :, :])
    mask = ~np.eye(n, dtype=bool)
    assert (d1[mask] == 0).all() and (d2[mask] == 0).all()
    assert (np.diag(lids) == 0).all()
    # the broadcast call agrees with the elementwise one
    i, j = np.divmod(np.arange(n * n), n)
    assert (pl.join_ids(tri[i], tri[j]) == lids.ravel()).all()


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 25, 27])
def test_incidence_tables_match_computed(q):
    pl = plane_of(q)
    tables = pl.incidence_tables()
    assert len(tables) == 1
    (slot,) = tables
    n = pl.n_points
    ids = np.arange(n)
    assert slot.dtype == np.uint8 and slot.shape == (n, n)
    assert (slot == pl.join_slots(ids[:, None], ids[None, :])).all()
    assert (np.diag(slot) == 0).all()
    assert pl.incidence_tables()[0] is slot


def check_pencil_slots(pl, a):
    """For each point a: the slots of the points x != a are 0..q, and two of
    them share a slot iff they are collinear with a.  Collinearity is raw
    incidence (dot_triples): the q+1 listed lines through a hold a and
    their listed points, and those cover every other point once."""
    q, n = pl.q, pl.n_points
    lines = pl.points_on_lines_arr(a)  # (g, q+1)
    pts = pl.points_on_lines_arr(lines)  # (g, q+1, q+1)
    ltri = pl.triples_of_ids(lines)
    assert (pl.dot_triples(ltri, pl.triples_of_ids(a)[:, None, :]) == 0).all()
    assert (pl.dot_triples(ltri[:, :, None, :], pl.triples_of_ids(pts)) == 0).all()
    off = pts != a[:, None, None]
    assert (off.sum(axis=2) == q).all()  # a is on each line once
    rows = np.arange(len(a))[:, None, None]
    hits = np.bincount((rows * n + pts)[off], minlength=len(a) * n).reshape(-1, n)
    hits[np.arange(len(a)), a] += 1
    assert (hits == 1).all()  # every x != a lies on exactly one listed line
    slots = pl.join_slots(a[:, None, None], pts)
    lo = np.where(off, slots, q + 1).min(axis=2)
    hi = np.where(off, slots, -1).max(axis=2)
    assert (lo == hi).all()  # the points of one line share its slot
    assert (np.sort(lo, axis=1) == np.arange(q + 1)).all()  # lines differ


@pytest.mark.parametrize(
    "q", [q for q in range(2, 28) if factor_prime_power(q) is not None] + [49])
def test_join_slots_match_incident_order(q):
    # exhaustively: every point a, the q+1 points at infinity among them,
    # against every other point
    pl = plane_of(q)
    ids = np.arange(pl.n_points)
    for lo in range(0, pl.n_points, 256):
        check_pencil_slots(pl, ids[lo:lo + 256])


@pytest.mark.parametrize("q", [243, 256, 257, 529, 541, 625, 729, 1024, 2048])
def test_join_slots_sampled(q):
    # (0,0,1), (0,1,0), (0,1,q-1) and (1,0,0) are ids 0, 1, q and q+1: the
    # branches of the slot rule and both ends of the points at infinity,
    # so they are always in the sample, with a random affine point; each
    # is checked against every other point
    pl = plane_of(q)
    rng = np.random.default_rng(q)
    ids = [0, 1, q, q + 1, rng.integers(q + 2, pl.n_points)]
    for a in ids:
        check_pencil_slots(pl, np.array([a]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                               243, 256, 257, 529])
def test_slot_row_matches_join_slots(q):
    # with the table (q <= 109) slot_row copies its row; without, an affine
    # row is the origin's block translated and a row at infinity is computed
    planes = [plane_of(q)]
    if q <= 27:
        pids = np.arange(planes[0].n_points)
        planes.append(plane_of(q))
        planes[1].incidence_tables()
    else:
        rng = np.random.default_rng(q)
        pids = np.concatenate([[0, 1, q, q + 1, q + 2, planes[0].n_points - 1],
                               rng.choice(planes[0].n_points, 6, replace=False)])
    ids = np.arange(planes[0].n_points)
    for pl in planes:
        row = np.empty(pl.n_points, dtype=pl._slot_dt)
        for pid in pids:
            row[:] = q + 1
            pl.slot_row(int(pid), row)
            assert (row == pl.join_slots(pid, ids)).all()


def test_tables_kept_for_the_same_planes():
    # the slot table is n^2 bytes; the rule still admits exactly q <= 109
    qs = [q for q in range(2, 140) if factor_prime_power(q) is not None]
    kept = [q for q in qs if build_plane(field_of_order(q)).has_tables()]
    assert kept == [q for q in qs if q <= 109]


def incidence_matrix(pl):
    """on[x, l]: point x lies on line l, by the raw dot product alone."""
    tri = pl.triples_of_ids(np.arange(pl.n_points))
    return tri, pl.dot_triples(tri[:, None, :], tri[None, :, :]) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_line_through_matches_scalar_scan(q):
    pl = plane_of(q)
    tri, on = incidence_matrix(pl)
    for i, j in itertools.combinations(range(pl.n_points), 2):
        hits = np.flatnonzero(on[i] & on[j]).tolist()
        assert hits == [int(pl.join_ids(tri[i], tri[j]))]
        points = sorted(pl.points_on_lines_arr(hits[0]).tolist())
        assert points == np.flatnonzero(on[:, hits[0]]).tolist()


def test_line_through_symmetric_and_incident():
    pl = plane_of(7)
    tri = pl.triples_of_ids
    rng = np.random.default_rng(7)
    for _ in range(100):
        i, j = rng.choice(pl.n_points, size=2, replace=False)
        lid = int(pl.join_ids(tri(i), tri(j)))
        assert lid == int(pl.join_ids(tri(j), tri(i)))
        assert pl.dot_triples(tri(i), tri(lid)) == 0
        assert pl.dot_triples(tri(j), tri(lid)) == 0
        assert {int(i), int(j)} <= set(pl.points_on_lines_arr(lid).tolist())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 13])
def test_every_point_on_exactly_q_plus_1_lines(q):
    pl = plane_of(q)
    ids = np.arange(pl.n_points)
    tri = pl.triples_of_ids(ids)
    dots = pl.dot_triples(tri[:, None, :], tri[None, :, :])
    # row p: lines l with <p, l> = 0
    assert ((dots == 0).sum(axis=1) == q + 1).all()
    assert ((dots == 0).sum(axis=0) == q + 1).all()


@pytest.mark.parametrize("q", [2, 4, 5, 8, 9, 16, 25, 27, 49,
                               243, 256, 257, 541, 625, 729, 1024, 2039, 3125])
def test_line_point_lists(q):
    pl = plane_of(q)
    exhaustive = q <= 49
    if exhaustive:
        lids = np.arange(pl.n_lines)
    else:
        # line 0 (x2 = 0), the line at infinity (1,0,0), two vertical lines
        # (0,1,0) and (1,7,0), and a random sample
        rng = np.random.default_rng(q)
        lids = np.concatenate([[0, q + 1, 1, 1 + q + 7 * q],
                               rng.choice(pl.n_lines, size=300, replace=False)])
    rows = pl.points_on_lines_arr(lids)
    assert rows.shape == (len(lids), q + 1) and rows.dtype == pl._dt
    # each row: q+1 distinct incident points, by raw incidence
    tri_l = pl.triples_of_ids(lids)
    tri_p = pl.triples_of_ids(rows)
    assert (pl.dot_triples(tri_p, tri_l[:, None, :]) == 0).all()
    assert (np.diff(np.sort(rows, axis=1), axis=1) > 0).all()
    assert ((rows >= 0) & (rows < pl.n_points)).all()
    # a scalar id and a 2-D id array give the same rows as the 1-D call
    assert (pl.points_on_lines_arr(int(lids[1])) == rows[1]).all()
    grid = pl.points_on_lines_arr(lids[:6].reshape(2, 3))
    assert (grid == rows[:6].reshape(2, 3, q + 1)).all()
    if exhaustive:
        # union over all lines covers every point exactly q+1 times
        counts = np.bincount(rows.ravel(), minlength=pl.n_points)
        assert (counts == q + 1).all()


@pytest.mark.parametrize("q", [3, 7, 9, 16])
def test_two_lines_meet_in_one_point(q):
    pl = plane_of(q)
    tri, on = incidence_matrix(pl)
    rng = np.random.default_rng(q)
    for _ in range(200):
        l1, l2 = rng.choice(pl.n_lines, size=2, replace=False)
        pts1 = set(pl.points_on_lines_arr(l1).tolist())
        pts2 = set(pl.points_on_lines_arr(l2).tolist())
        # by self-duality join_ids of two lines is their meet
        meet = int(pl.join_ids(tri[l1], tri[l2]))
        assert pts1 & pts2 == {meet}
        assert np.flatnonzero(on[:, l1] & on[:, l2]).tolist() == [meet]


def test_normalization_idempotent():
    # a triple normalizes to the triple of its id; normalizing that again
    # changes nothing, and the raw triple is its lead times the normalized one
    pl = plane_of(9)
    f = pl.field
    raw = np.random.default_rng(3).integers(0, 9, size=(500, 3))
    raw = raw[(raw != 0).any(axis=1)]
    once = pl.triples_of_ids(np.array([pl.point_id(t) for t in raw]))
    twice = pl.triples_of_ids(np.array([pl.point_id(t) for t in once]))
    assert (once == twice).all()
    for t, n in zip(raw, once):
        lead = t[np.flatnonzero(t)[0]]
        assert (f.mul_arr(n, np.asarray(lead)) == t).all()


def test_point_id_accepts_unnormalized():
    pl = plane_of(5)
    f = pl.field
    for pid in range(pl.n_points):
        t = pl.triples_of_ids(pid)
        for s in range(2, 5):
            scaled = f.mul_arr(t, np.asarray(s))
            assert pl.point_id(scaled) == pid


@pytest.mark.parametrize("coords", [[10 ** 20, 0, 0], [2 ** 31, 0, 0], [0, 5, 0],
                                    [-1, 0, 0], [1, 0], [[1, 0, 0]]])
def test_point_id_rejects_with_value_error(coords):
    # the range is checked on the Python ints, before the int32 conversion
    with pytest.raises(ValueError) as err:
        plane_of(5).point_id(coords)
    assert type(err.value) is ValueError


def test_point_id_zero_triple():
    with pytest.raises(ZeroTriple):
        plane_of(5).point_id([0, 0, 0])
    # certify reports the same type, with its own exit code
    assert certify.ZeroTriple is ZeroTriple


def test_memory_cap():
    with pytest.raises(MemoryBudgetExceeded):
        # the smallest prime power above the tabulated range: 83.3M points
        build_plane(Field(9127, 1))


def test_deterministic_ordering():
    a = plane_of(8)
    b = plane_of(8)
    ids = np.arange(a.n_points)
    assert (a.triples_of_ids(ids) == b.triples_of_ids(ids)).all()


def test_incidence_tables_refused_above_the_budget():
    pl = plane_of(128)
    assert not pl.has_tables()
    with pytest.raises(MemoryBudgetExceeded):
        pl.incidence_tables()
