import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcforge import arc as arc_module
from arcforge.arc import Arc, Coverage, CoveredPoint, NotAnArc, verify_arc, verify_complete
from arcforge.gf import field_of_order
from arcforge.greedy import SearchConfig, greedy_trial, trial_rng
from arcforge.plane import PlaneIndex, build_plane


def plane_of(q):
    return build_plane(field_of_order(q))


# ---------------------------------------------------------------------------
# brute-force oracles: only the raw incidence relation, no join/pencil code
# ---------------------------------------------------------------------------

def oracle_is_arc(pl, pts):
    if len(set(pts)) != len(pts):
        return False
    if not pts:
        return True
    tri = pl.triples_of_ids(np.arange(pl.n_points))
    # on[i, l] == 0 iff arc point i lies on line l
    on = pl.dot_triples(tri[list(pts)][:, None, :], tri[None, :, :])
    per_line = (on == 0).sum(axis=0)
    return int(per_line.max(initial=0)) <= 2


def oracle_covered(pl, pts, inc=None):
    """Covered set: arc points plus every point of every >=2-point line;
    inc is the raw point x line incidence, computed here when not given."""
    if inc is None:
        tri = pl.triples_of_ids(np.arange(pl.n_points))
        inc = pl.dot_triples(tri[:, None, :], tri[None, :, :]) == 0
    covered = np.zeros(pl.n_points, dtype=bool)
    covered[list(pts)] = True
    arc_per_line = inc[list(pts), :].sum(axis=0)
    secants = np.flatnonzero(arc_per_line >= 2)
    for l in secants:
        covered[inc[:, l]] = True
    return covered


def plane_and_incidence(q):
    """Plane plus its raw point x line incidence matrix (lines by triple)."""
    pl = plane_of(q)
    tri = pl.triples_of_ids(np.arange(pl.n_points))
    return pl, pl.dot_triples(tri[:, None, :], tri[None, :, :]) == 0


def frame_ids(pl):
    return [pl.point_id(c) for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])]


def conic_ids(pl):
    f = pl.field
    ids = [pl.point_id([1, t, f.mul(t, t)]) for t in range(pl.q)]
    ids.append(pl.point_id([0, 0, 1]))
    return ids


# ---------------------------------------------------------------------------
# verify_arc
# ---------------------------------------------------------------------------

def test_frame_is_arc_q2():
    pl = plane_of(2)
    a = Arc(pl, frame_ids(pl))
    assert verify_arc(a)
    assert oracle_is_arc(pl, a.points)


def test_frame_plus_110_not_arc_q2():
    pl = plane_of(2)
    pts = frame_ids(pl) + [pl.point_id([1, 1, 0])]
    a = Arc(pl, pts)
    assert not verify_arc(a)
    assert not oracle_is_arc(pl, pts)


def test_conic_is_arc_q5():
    pl = plane_of(5)
    ids = conic_ids(pl)
    assert len(ids) == 6
    a = Arc(pl, ids)
    assert verify_arc(a)
    # brute-force collinearity over all 20 triples
    tri = pl.triples_of_ids(np.arange(pl.n_points))
    for i, j, k in itertools.combinations(ids, 3):
        common = ((pl.dot_triples(tri, tri[i]) == 0)
                  & (pl.dot_triples(tri, tri[j]) == 0)
                  & (pl.dot_triples(tri, tri[k]) == 0))
        assert not common.any()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_verify_arc_matches_oracle_random(q):
    pl = plane_of(q)
    rng = np.random.default_rng(q * 11)
    for _ in range(60):
        k = int(rng.integers(0, min(q + 2, 8)))
        pts = list(rng.choice(pl.n_points, size=k, replace=False))
        a = Arc(pl, pts)
        assert verify_arc(a) == oracle_is_arc(pl, pts)


def test_small_arcs_trivially_valid():
    pl = plane_of(3)
    assert verify_arc(Arc(pl, []))
    assert verify_arc(Arc(pl, [0]))
    assert verify_arc(Arc(pl, [0, 5]))


# ---------------------------------------------------------------------------
# verify_complete
# ---------------------------------------------------------------------------

def test_frame_complete_q2():
    pl = plane_of(2)
    ok, unc = verify_complete(Arc(pl, frame_ids(pl)))
    assert ok and unc == []


def test_conic_complete_q5():
    pl = plane_of(5)
    ok, unc = verify_complete(Arc(pl, conic_ids(pl)))
    assert ok and unc == []


def test_three_points_incomplete_q3():
    pl = plane_of(3)
    rng = np.random.default_rng(0)
    found = 0
    while found < 10:
        pts = list(rng.choice(pl.n_points, size=3, replace=False))
        a = Arc(pl, pts)
        if not verify_arc(a):
            continue
        found += 1
        ok, unc = verify_complete(a)
        assert not ok and len(unc) > 0


def test_verify_complete_requires_arc():
    pl = plane_of(2)
    bad = Arc(pl, frame_ids(pl) + [pl.point_id([1, 1, 0])])
    with pytest.raises(NotAnArc):
        verify_complete(bad)


def test_more_than_q_plus_2_points_make_no_join(tmp_path, capsys, monkeypatch):
    # no arc of PG(2,q) has more than q + 2 points, so a larger set is
    # refused before any of its C(k,2) pairs is joined
    from arcforge.certify import write_certificate
    from arcforge.cli import main
    pl = plane_of(7)
    full = Arc(pl, range(pl.q + 3))
    path = tmp_path / "full.arc"
    write_certificate(full, path, complete=False)

    def no_join(self, u, v):
        raise AssertionError("joined the pairs of an over-full set")
    monkeypatch.setattr(PlaneIndex, "join_ids", no_join)
    assert not verify_arc(full)
    with pytest.raises(NotAnArc):
        verify_complete(full)
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("arc: no\n")


@pytest.mark.parametrize("q", [4, 8, 16])
def test_hyperoval_is_a_complete_arc(q):
    # q + 2 points, the largest arc there is: the conic (1, t, t^2) with
    # (0, 0, 1) and its nucleus (0, 1, 0), which q even gives
    pl = plane_of(q)
    a = Arc(pl, conic_ids(pl) + [pl.point_id([0, 1, 0])])
    assert len(a) == q + 2
    assert verify_arc(a)
    assert verify_complete(a) == (True, [])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_verify_complete_matches_oracle(q):
    # one raw incidence matrix per q serves both oracles
    pl, inc = plane_and_incidence(q)
    rng = np.random.default_rng(q * 13)
    for _ in range(30):
        pts = []
        cov = oracle_covered(pl, pts, inc)
        while True:
            # every prefix, incomplete ones included, lists the same ids
            ok, unc = verify_complete(Arc(pl, pts))
            assert ok == cov.all() and unc == np.flatnonzero(~cov).tolist()
            if ok:
                break
            pts.append(int(rng.choice(np.flatnonzero(~cov))))
            cov = oracle_covered(pl, pts, inc)
        # soundness: adding any outside point puts three points on a line
        per_line = inc[pts].sum(axis=0)
        outside = np.setdiff1d(np.arange(pl.n_points), pts)
        assert ((inc[outside] + per_line).max(axis=1) > 2).all()


@pytest.mark.parametrize("q", [5, 8, 9])
def test_search_never_lists_a_pencil(q, monkeypatch):
    # the kernel finds every slot from coordinates, from a translated slot
    # row or from the dense table: no step of a trial lists a line's points
    pl = plane_of(q)
    tabled = plane_of(q)
    tabled.incidence_tables()
    for plane, cap in ((pl, arc_module.TABLE_BYTE_CAP), (tabled, arc_module.TABLE_BYTE_CAP),
                       (pl, 0)):
        with monkeypatch.context() as m:
            m.setattr(arc_module, "TABLE_BYTE_CAP", cap)

            def refuse(*args):
                raise AssertionError("the search listed a pencil")
            m.setattr(PlaneIndex, "points_on_lines_arr", refuse)
            arc = greedy_trial(plane, SearchConfig(q=q), trial_rng(1, 0))
        assert verify_complete(arc) == (True, [])


@pytest.mark.parametrize("q", [5, 8, 9])
def test_search_joins_never_call_join_ids(q, monkeypatch):
    # with computed joins the kernel finds slots by join_slots alone, so the
    # verifier's join_ids shares no code path with the search it checks
    pl = plane_of(q)
    monkeypatch.setattr(arc_module, "TABLE_BYTE_CAP", 0)
    with monkeypatch.context() as m:
        def refuse(*args):
            raise AssertionError("the search called join_ids")
        m.setattr(PlaneIndex, "join_ids", refuse)
        arc = greedy_trial(pl, SearchConfig(q=q), trial_rng(1, 0))
    assert verify_complete(arc) == (True, [])


def test_verifier_ignores_incidence_tables():
    # search() verifies its result on its own plane, which may hold the
    # dense tables: the verifier computes from coordinates regardless
    pl = plane_of(7)
    rng = np.random.default_rng(7)
    for table in pl.incidence_tables():
        table[...] = rng.permutation(table.ravel()).reshape(table.shape)
    conic = conic_ids(pl)
    assert verify_complete(Arc(pl, conic)) == (True, [])
    expect = np.flatnonzero(~oracle_covered(pl, conic[:4])).tolist()
    assert verify_complete(Arc(pl, conic[:4])) == (False, expect)
    assert not verify_arc(Arc(pl, frame_ids(pl) + [pl.point_id([1, 1, 0])]))


# ---------------------------------------------------------------------------
# incremental coverage kernel
# ---------------------------------------------------------------------------

def test_single_point_coverage():
    pl = plane_of(5)
    cov = Coverage(pl)
    cov.add(17)
    assert cov.covered_count == 1 and cov.covered[17]
    # its q+1 lines each keep q uncovered points; no other line is tracked
    assert (cov.uncov_on_line.max(), (cov.uncov_on_line > 0).sum()) == (pl.q, pl.q + 1)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_second_point_covers_one_line(q):
    pl = plane_of(q)
    cov = Coverage(pl)
    cov.add(0)
    cov.add(int(cov.uncovered_ids()[0]))
    assert cov.covered_count == q + 1
    lines = np.unique(pl.points_on_lines_arr(np.asarray(cov.arc_points)))
    assert len(lines) == 2 * q + 1
    assert int((cov.uncov_on_line[lines] == 0).sum()) == 1


def test_frame_coverage_matches_scratch_q2():
    pl = plane_of(2)
    cov = Coverage(pl)
    for pid in frame_ids(pl):
        cov.add(pid)
    assert cov.covered_count == 7
    ok, unc = verify_complete(Arc(pl, cov.arc_points))
    assert ok and unc == []


def test_add_rejects_covered():
    pl = plane_of(3)
    cov = Coverage(pl)
    cov.add(0)
    with pytest.raises(CoveredPoint):
        cov.add(0)
    cov.add(int(cov.uncovered_ids()[0]))
    on_secant = [p for p in range(pl.n_points)
                 if cov.covered[p] and p not in cov.arc_points]
    with pytest.raises(CoveredPoint):
        cov.add(on_secant[0])
    assert len(cov.arc_points) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16])
def test_incremental_matches_scratch_sequences(q):
    pl = plane_of(q)
    rng = np.random.default_rng(100 + q)
    for _ in range(12):
        cov = Coverage(pl)
        prev_count = 0
        while not cov.is_complete():
            cov.add(int(rng.choice(cov.uncovered_ids())))
            assert cov.covered_count >= prev_count  # monotone
            prev_count = cov.covered_count
        a = Arc(pl, cov.arc_points)
        assert verify_arc(a)
        ok, unc = verify_complete(a)
        assert ok and unc == []
        # covered bitset equals the scratch recomputation
        assert (cov.covered == oracle_covered(pl, a.points)).all()
        assert cov.covered_count == int(cov.covered.sum())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_addable_iff_uncovered_exhaustive(q):
    pl = plane_of(q)
    rng = np.random.default_rng(200 + q)
    cov = Coverage(pl)
    for _ in range(3):
        if cov.is_complete():
            break
        cov.add(int(rng.choice(cov.uncovered_ids())))
    for pid in range(pl.n_points):
        addable = (pid not in cov.arc_points
                   and oracle_is_arc(pl, cov.arc_points + [pid]))
        assert addable == (not cov.covered[pid])


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------

def test_gain_first_point_is_one():
    pl = plane_of(7)
    assert Coverage(pl).gains(np.array([31])).tolist() == [1]


@pytest.mark.parametrize("q", [2, 3, 5, 8, 9])
def test_gain_second_point_is_q(q):
    pl = plane_of(q)
    cov = Coverage(pl)
    cov.add(2)
    cands = cov.uncovered_ids()[:8]
    # q+1 on the line, one known
    assert (cov.gains(cands) == q).all()
    for pid in cands:
        # pinned by the scratch-recompute oracle
        after = oracle_covered(pl, cov.arc_points + [int(pid)]).sum()
        assert int(after) - cov.covered_count == q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_gain_equals_scratch_delta(q):
    pl = plane_of(q)
    rng = np.random.default_rng(300 + q)
    for _ in range(10):
        cov = Coverage(pl)
        while not cov.is_complete():
            unc = cov.uncovered_ids()
            cands = rng.choice(unc, size=min(5, len(unc)), replace=False)
            for pid, gain in zip(cands, cov.gains(cands)):
                scratch = int(oracle_covered(pl, cov.arc_points + [int(pid)]).sum())
                assert gain == scratch - cov.covered_count
            cov.add(int(rng.choice(unc)))


def test_gain_rejects_covered():
    pl = plane_of(3)
    cov = Coverage(pl)
    cov.add(4)
    with pytest.raises(CoveredPoint):
        cov.gains(np.array([4]))


# ---------------------------------------------------------------------------
# property: the kernel equals scratch recomputation after every add
# ---------------------------------------------------------------------------

# prime fields, characteristic-2 extensions and odd-characteristic
# extensions; examples per q shrink as the scratch oracle grows as n^2
PROPERTY_EXAMPLES = {2: 50, 3: 50, 4: 50, 5: 50, 7: 50, 8: 50, 9: 50,
                     16: 30, 25: 15, 27: 15, 49: 8}


def check_against_scratch(cov, inc, cands):
    """Compare every piece of kernel state with a from-scratch recount."""
    pts = cov.arc_points
    per_line = inc[pts, :].sum(axis=0)
    scratch = np.zeros(len(cov.covered), dtype=bool)
    scratch[pts] = True
    scratch |= inc[:, per_line >= 2].any(axis=1)
    assert (cov.covered == scratch).all()
    assert cov.covered_count == int(scratch.sum())
    assert (cov.uncovered_ids() == np.flatnonzero(~scratch)).all()
    lines = np.flatnonzero(per_line >= 1)
    assert (cov.uncov_on_line[lines]
            == (inc[:, lines] & ~scratch[:, None]).sum(axis=0)).all()
    # the kernel's own state: the q+1 slot counts of each arc point's
    # pencil; the line through arc point a and x is at join_slots(a, x)
    pl, q, a = cov.plane, cov.plane.q, np.asarray(pts, dtype=np.int64)
    pencils = np.nonzero(inc[a])[1].reshape(len(a), q + 1)  # lines through a
    on = inc[pencils]  # (k, q+1, n) the lines' points, as inc is symmetric
    on[np.arange(len(a))[:, None], :, a[:, None]] = False  # all but a
    slots = pl.join_slots(a[:, None], on.argmax(axis=2))  # via one other point
    assert (np.sort(slots, axis=1) == np.arange(q + 1)).all()
    counts = np.take_along_axis(cov._counts[:slots.size].reshape(slots.shape),
                                slots, axis=1)
    assert (counts == (on & ~scratch).sum(axis=2)).all()
    # secants read 0 in both of their arc points' pencils
    secant = per_line[pencils] >= 2
    assert (secant.sum(axis=1) == len(pts) - 1).all()
    assert (counts[secant] == 0).all()
    for pid, gain in zip(cands, cov.gains(cands)):
        ext = scratch | inc[:, (per_line + inc[pid]) >= 2].any(axis=1)
        ext[pid] = True
        assert gain == int(ext.sum()) - cov.covered_count


# every source of joins: slot rows scattered at each add, slot rows copied
# from the dense tables, and (with no room for rows) joins computed from
# coordinates
@pytest.mark.parametrize(
    "q, source",
    [pytest.param(q, "rows", id=str(q)) for q in sorted(PROPERTY_EXAMPLES)]
    + [pytest.param(q, "tables", id=f"{q}-tables")
       for q in sorted(PROPERTY_EXAMPLES)]
    + [pytest.param(q, "computed", id=f"{q}-computed")
       for q in sorted(PROPERTY_EXAMPLES)])
def test_kernel_matches_scratch_at_every_add(q, source, monkeypatch):
    pl, inc = plane_and_incidence(q)
    if source == "tables":
        pl.incidence_tables()
    if source == "computed":
        monkeypatch.setattr(arc_module, "TABLE_BYTE_CAP", 0)
    assert (Coverage(pl)._rows is None) == (source == "computed")

    @settings(max_examples=PROPERTY_EXAMPLES[q], derandomize=True,
              deadline=None, database=None)
    @given(st.data())
    def run(data):
        cov = Coverage(pl)
        while not cov.is_complete():
            unc = cov.uncovered_ids()
            pick = data.draw(st.integers(0, len(unc) - 1), label="pick")
            sample = data.draw(st.lists(st.integers(0, len(unc) - 1),
                                        max_size=4, unique=True), label="sample")
            pid = int(unc[pick])
            before = cov.covered_count
            gain = int(cov.gains(np.array([pid]))[0])
            cov.add(pid)
            assert cov.covered_count - before == gain
            cands = unc[sample]
            check_against_scratch(cov, inc, cands[~cov.covered[cands]])

    run()


def scratch_coverage(pl, pts):
    """Covered mask of an arc, from coordinates alone (no kernel state)."""
    tri = pl.triples_of_ids(np.asarray(pts))
    i, j = np.triu_indices(len(pts), 1)
    covered = np.zeros(pl.n_points, dtype=bool)
    covered[pts] = True
    covered[pl.points_on_lines_arr(pl.join_ids(tri[i], tri[j])).ravel()] = True
    return covered


def scratch_gains(pl, pts, covered, cands):
    """Distinct uncovered points on the lines joining each candidate to pts."""
    tri = pl.triples_of_ids(np.asarray(pts))
    lids = pl.join_ids(pl.triples_of_ids(cands)[:, None, :], tri[None, :, :])
    new = np.sort(pl.points_on_lines_arr(lids.ravel())
                  .reshape(len(cands), -1), axis=1)
    first = np.ones(new.shape, dtype=bool)
    first[:, 1:] = new[:, 1:] != new[:, :-1]
    return (first & ~covered[new]).sum(axis=1)


@pytest.mark.parametrize("q, dtype", [(251, np.uint8), (256, np.uint16)])
def test_kernel_matches_scratch_where_slots_widen(q, dtype):
    # q + 1 = 252 slots still fit a byte; q + 1 = 257 need two
    pl = plane_of(q)
    rng = np.random.default_rng(q)
    cov = Coverage(pl)
    assert cov._rows.dtype == dtype
    for _ in range(12):
        cov.add(int(rng.choice(cov.uncovered_ids())))
        pts = cov.arc_points
        covered = scratch_coverage(pl, pts)
        assert (cov.covered == covered).all()
        assert cov.covered_count == int(covered.sum())
        # every line through the arc: its uncovered points, counted
        lines = np.unique(pl.points_on_lines_arr(np.asarray(pts)))
        on = pl.points_on_lines_arr(lines)
        assert (cov.uncov_on_line[lines] == (~covered[on]).sum(axis=1)).all()
        # gains: the distinct uncovered points on the new secants
        unc = np.flatnonzero(~covered)
        cands = rng.choice(unc, size=min(2000, len(unc)), replace=False)
        for lo in range(0, len(cands), 250):
            chunk = cands[lo:lo + 250]
            assert (cov.gains(chunk) == scratch_gains(pl, pts, covered, chunk)).all()


# gains sums the arc's pencil counts over groups of arc points, with
# group x candidates <= _BLOCK; "one" makes every group a single arc
# point, "uneven" makes groups of three, so the last group is short whenever
# three does not divide the arc size
def set_groups(monkeypatch, groups, m):
    monkeypatch.setattr(arc_module, "_BLOCK", m if groups == "one" else 3 * m)


def use_source(pl, source, monkeypatch):
    if source == "tables":
        pl.incidence_tables()
    if source == "computed":
        monkeypatch.setattr(arc_module, "TABLE_BYTE_CAP", 0)
    assert (Coverage(pl)._rows is None) == (source == "computed")


@pytest.mark.parametrize("groups", ["one", "uneven"])
@pytest.mark.parametrize("source", ["rows", "tables", "computed"])
@pytest.mark.parametrize("q", [5, 8, 9])
def test_grouped_gains_match_scratch(q, source, groups, monkeypatch):
    pl, inc = plane_and_incidence(q)
    use_source(pl, source, monkeypatch)
    rng = np.random.default_rng(q)
    for _ in range(3):
        # the scratch is sized when the kernel is built, for the largest
        # block the growth below sets
        set_groups(monkeypatch, groups, pl.n_points)
        cov = Coverage(pl)
        while not cov.is_complete():
            unc = cov.uncovered_ids()
            set_groups(monkeypatch, groups, len(unc))
            check_against_scratch(cov, inc, unc)
            cov.add(int(rng.choice(unc)))
        check_against_scratch(cov, inc, cov.uncovered_ids())


@pytest.mark.parametrize("source", ["rows", "tables", "computed"])
@pytest.mark.parametrize("q", [3, 4, 7])
def test_gains_of_repeated_candidates(q, source, monkeypatch):
    # a gains block holds arc points x candidates <= _BLOCK elements, however
    # many candidates there are: forty copies of every uncovered point make
    # blocks far wider than the plane, up to q + 1 arc points deep
    pl = plane_of(q)
    use_source(pl, source, monkeypatch)
    rng = np.random.default_rng(q)
    cov = Coverage(pl)
    while not cov.is_complete():
        unc = cov.uncovered_ids()
        assert (cov.gains(np.repeat(unc, 40)) == np.repeat(cov.gains(unc), 40)).all()
        cov.add(int(rng.choice(unc)))


@pytest.mark.parametrize("groups", ["one", "uneven"])
@pytest.mark.parametrize("source", ["rows", "computed"])
@pytest.mark.parametrize("q", [251, 256])
def test_grouped_gains_where_slots_widen(q, source, groups, monkeypatch):
    pl = plane_of(q)
    use_source(pl, source, monkeypatch)
    rng = np.random.default_rng(q)
    cov = Coverage(pl)
    for _ in range(7):
        cov.add(int(rng.choice(cov.uncovered_ids())))
        covered = scratch_coverage(pl, cov.arc_points)
        cands = rng.choice(np.flatnonzero(~covered), size=300, replace=False)
        set_groups(monkeypatch, groups, len(cands))
        expect = scratch_gains(pl, cov.arc_points, covered, cands)
        assert (cov.gains(cands) == expect).all()


# add places the uncovered ids a block at a time, compacting the list in
# place, and splits the decrement into blocks of newly covered points; a
# budget of 1 makes every block one id (or one arc point's joins), 7 and 40
# leave short last blocks
@pytest.mark.parametrize("block", [1, 7, 40])
@pytest.mark.parametrize("source", ["rows", "tables", "computed"])
@pytest.mark.parametrize("q", [4, 7, 9, 16])
def test_kernel_matches_scratch_in_small_blocks(q, source, block, monkeypatch):
    pl, inc = plane_and_incidence(q)
    use_source(pl, source, monkeypatch)
    monkeypatch.setattr(arc_module, "_BLOCK", block)
    rng = np.random.default_rng(q + block)
    for _ in range(2):
        cov = Coverage(pl)
        while not cov.is_complete():
            unc = cov.uncovered_ids()
            cov.add(int(rng.choice(unc)))
            left = cov.uncovered_ids()
            check_against_scratch(cov, inc, left[:5])


@pytest.mark.parametrize("source", ["rows", "computed"])
def test_returned_arrays_survive_later_adds(source, monkeypatch):
    # add compacts the kernel's own id list in place and gains sums in
    # reused scratch: what uncovered_ids and gains returned stays as it was
    pl = plane_of(16)
    use_source(pl, source, monkeypatch)
    rng = np.random.default_rng(16)
    cov = Coverage(pl)
    held = []
    while not cov.is_complete():
        unc = cov.uncovered_ids()
        g = cov.gains(unc)
        held.append((unc, unc.copy(), g, g.copy()))
        cov.add(int(rng.choice(unc)))
    for unc, unc0, g, g0 in held:
        assert (unc == unc0).all() and (g == g0).all()


def test_verify_complete_memory_is_one_block_plus_the_mask():
    # secants are marked a block of lines at a time, at most _BLOCK points:
    # beyond the n-byte covered mask its temporaries take a few dozen bytes
    # per block point, whatever q is
    import tracemalloc
    from pathlib import Path

    from arcforge.certify import read_certificate
    cert = Path(__file__).parents[1] / "benchmarks" / "data" / "verify_q1024.arc"
    arc, _ = read_certificate(cert)
    assert (arc.plane.q, len(arc.points)) == (1024, 136)
    tracemalloc.start()
    try:
        assert verify_complete(arc) == (True, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arc.plane.n_points + 48 * arc_module._BLOCK


def test_verdict_of_an_incomplete_certificate_takes_no_id_list(tmp_path):
    # read_and_verify needs the verdict only: on a 4-point arc at q = 1024
    # nearly every point is uncovered, and a list of their ids (about a
    # million ints) would exceed the bound of the complete certificate above
    import tracemalloc

    from arcforge.certify import read_and_verify, write_certificate
    pl = plane_of(1024)
    path = tmp_path / "frame.arc"
    write_certificate(Arc(pl, frame_ids(pl)), path, complete=False)
    tracemalloc.start()
    try:
        report = read_and_verify(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.is_arc, report.is_complete, report.size) == (True, False, 4)
    assert peak <= pl.n_points + 48 * arc_module._BLOCK


@pytest.mark.parametrize("q", [125, 127, 128, 193, 243])
def test_verify_complete_matches_the_secant_listing(q):
    # the union of every secant's listed points, line by line, against the
    # band loop where it runs several bands: q - 1 = 192 columns is three
    # whole bands of 64, the other q end in a partial band; one arc holds
    # two points at infinity, so vertical secants and the line at infinity
    # are marked as well as horizontal ones (s = 0)
    pl = plane_of(q)
    rng = np.random.default_rng(q)
    for start in ([pl.point_id([0, 0, 1]), pl.point_id([0, 1, 0])], []):
        pts = list(start)
        while True:
            covered = np.zeros(pl.n_points, dtype=bool)
            covered[pts] = True
            if len(pts) > 1:
                tri = pl.triples_of_ids(np.asarray(pts))
                iu, ju = np.triu_indices(len(pts), 1)
                covered[pl.points_on_lines_arr(pl.join_ids(tri[iu], tri[ju]))] = True
            ok, unc = verify_complete(Arc(pl, pts))
            assert ok == covered.all() and unc == np.flatnonzero(~covered).tolist()
            if ok:
                break
            pts.append(int(rng.choice(np.flatnonzero(~covered))))
        assert len(pts) > 2


@pytest.mark.parametrize("source", ["rows", "tables", "computed"])
def test_gains_of_no_candidates(source, monkeypatch):
    pl = plane_of(7)
    use_source(pl, source, monkeypatch)
    cov = Coverage(pl)
    for pid in frame_ids(pl)[:3]:
        g = cov.gains(np.array([], dtype=np.int64))
        assert g.dtype == np.int64 and g.shape == (0,)
        cov.add(pid)


@pytest.mark.parametrize("points, error", [([7], ValueError), ([1, 1], NotAnArc)])
def test_arc_rejects_bad_points(points, error):
    # PG(2,2) has 7 points: id 7 is out of range, a repeat is no arc
    with pytest.raises(error):
        Arc(plane_of(2), points)
