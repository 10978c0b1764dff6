import numpy as np
import pytest

from arcforge.arc import Arc, verify_complete
from arcforge.certify import (
    DuplicatePoint, ParseError, ReducibleModulus, VerifyReport, ZeroTriple,
    read_and_verify, read_certificate, write_certificate,
)
from arcforge.gf import Field, field_of_order
from arcforge.greedy import SearchConfig, greedy_trial, trial_rng, _plane_for
from arcforge.plane import build_plane


def plane_of(q):
    return build_plane(field_of_order(q))


def frame_arc(pl):
    return Arc(pl, [pl.point_id(c)
                    for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])])


def test_frame_certificate_layout(tmp_path):
    pl = plane_of(2)
    path = tmp_path / "frame.arc"
    write_certificate(frame_arc(pl), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2 1 0 1"
    assert lines[1] == "# size 4"
    assert lines[2] == "# complete 1"
    assert len(lines) == 7
    assert all(len(l.split()) == 3 for l in lines[3:])


def test_frame_verifies(tmp_path):
    pl = plane_of(2)
    path = tmp_path / "frame.arc"
    write_certificate(frame_arc(pl), path)
    rep = read_and_verify(path)
    assert rep == VerifyReport(is_arc=True, is_complete=True, size=4, q=2,
                               claimed_complete=True)


def test_writes_are_byte_identical(tmp_path):
    pl = plane_of(5)
    cfg = SearchConfig(q=5)
    arc = greedy_trial(pl, cfg, trial_rng(0, 0))
    a, b = tmp_path / "a.arc", tmp_path / "b.arc"
    write_certificate(arc, a)
    write_certificate(arc, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 16])
def test_roundtrip_random_found_arcs(q, tmp_path):
    cfg = SearchConfig(q=q)
    pl = _plane_for(cfg)
    for i in range(13):  # 104 arcs across the eight q values
        arc = greedy_trial(pl, cfg, trial_rng(3, i), i)
        path = tmp_path / f"{q}_{i}.arc"
        write_certificate(arc, path)
        back, claimed = read_certificate(path)
        assert claimed is True
        assert sorted(back.points) == sorted(arc.points)
        rep = read_and_verify(path)
        assert rep.is_arc and rep.is_complete and rep.size == len(arc.points)


def test_accepts_unnormalized_and_noncanonical(tmp_path):
    # claimant coordinates scaled by 2 over GF(7), still the same points
    pl = plane_of(7)
    arc = greedy_trial(pl, SearchConfig(q=7), trial_rng(1, 1))
    rows = []
    for x0, x1, x2 in arc.coords():
        f = pl.field
        rows.append(f"{f.mul(2, int(x0))} {f.mul(2, int(x1))} {f.mul(2, int(x2))}")
    path = tmp_path / "scaled.arc"
    path.write_text("7 7 1 0 1\n" + "\n".join(rows) + "\n")
    rep = read_and_verify(path)
    assert rep.is_arc and rep.is_complete and rep.size == len(arc.points)


def test_accepts_alternate_irreducible_modulus(tmp_path):
    # x^2 + x + 2 is irreducible over GF(3) but not the canonical x^2 + 1
    alt = Field(3, 2, [2, 1, 1])
    pl = build_plane(alt)
    arc = greedy_trial(pl, SearchConfig(q=9), trial_rng(2, 5))
    path = tmp_path / "alt.arc"
    write_certificate(arc, path)
    assert path.read_text().splitlines()[0] == "9 3 2 2 1 1"
    rep = read_and_verify(path)
    assert rep.is_arc and rep.is_complete and rep.q == 9


def test_incomplete_claim_roundtrip(tmp_path):
    pl = plane_of(5)
    arc = Arc(pl, [0, 1])
    path = tmp_path / "partial.arc"
    write_certificate(arc, path)
    rep = read_and_verify(path)
    assert rep.is_arc and not rep.is_complete and rep.claimed_complete is False


def test_point_on_secant_fails_arc_check(tmp_path):
    pl = plane_of(2)
    bad = Arc(pl)
    for pid in frame_arc(pl).points:
        bad.append(pid)
    extra = pl.point_id([1, 1, 0])  # on the line through (1:0:0), (0:1:0)
    bad.points.append(extra)
    bad.in_arc[extra] = True
    path = tmp_path / "bad.arc"
    write_certificate(bad, path, complete=False)
    rep = read_and_verify(path)
    assert not rep.is_arc


@pytest.mark.parametrize("points, is_arc, complete", [
    ("conic", True, True), ("conic4", True, False), ("collinear", False, False)])
def test_verify_joins_the_pairs_once(points, is_arc, complete, tmp_path,
                                     monkeypatch):
    # the arc check and the marking share one join_ids call over the C(k,2)
    # pairs; the verdicts are those of verify_arc and verify_complete
    from arcforge.plane import PlaneIndex
    pl = plane_of(7)
    conic = [pl.point_id([1, t, t * t % 7]) for t in range(7)] + [pl.point_id([0, 0, 1])]
    pts = {"conic": conic, "conic4": conic[:4],
           "collinear": conic[:3] + [pl.point_id([2, 1, 1])]}[points]
    arc = Arc(pl)
    arc.points, arc.in_arc[pts] = list(pts), True
    path = tmp_path / "c.arc"
    write_certificate(arc, path, complete=complete)
    calls = []
    join_ids = PlaneIndex.join_ids
    monkeypatch.setattr(PlaneIndex, "join_ids",
                        lambda self, a, b: calls.append(len(a)) or join_ids(self, a, b))
    rep = read_and_verify(path)
    assert (rep.is_arc, rep.is_complete) == (is_arc, complete)
    assert calls == [len(pts) * (len(pts) - 1) // 2]


def test_freeform_comments_ignored(tmp_path):
    path = tmp_path / "chatty.arc"
    path.write_text("2 2 1 0 1\n# found by hand\n# size unknown\n"
                    "1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    rep = read_and_verify(path)
    assert rep.size == 4 and rep.claimed_complete is None
    assert rep.is_arc and rep.is_complete


def test_truncated_file(tmp_path):
    path = tmp_path / "trunc.arc"
    path.write_text("2 2 1 0 1\n# size 4\n1 0 0\n0 1 0\n")
    with pytest.raises(ParseError) as err:
        read_and_verify(path)
    assert "4 points" in str(err.value)


def test_malformed_numbers(tmp_path):
    path = tmp_path / "junk.arc"
    path.write_text("2 2 1 0 1\n1 0 x\n")
    with pytest.raises(ParseError) as err:
        read_and_verify(path)
    assert err.value.line == 2 and err.value.column == 5


@pytest.mark.parametrize("token", ["+1", "0_1", "-0"])
def test_only_plain_digits(tmp_path, token):
    # int() would also take a sign and digit-group underscores
    path = tmp_path / "loose.arc"
    path.write_text(f"2 2 1 0 1\n1 0 0\n0 {token} 0\n")
    with pytest.raises(ParseError) as err:
        read_and_verify(path)
    assert err.value.line == 3


def test_non_ascii_byte(tmp_path):
    path = tmp_path / "accent.arc"
    path.write_bytes(b"2 2 1 0 1\n1 0 0\n0 1 \xe9\n")
    with pytest.raises(ParseError) as err:
        read_and_verify(path)
    assert (err.value.line, err.value.column) == (3, 5)
    assert "0xe9" in str(err.value)


def test_reducible_modulus(tmp_path):
    path = tmp_path / "red.arc"
    path.write_text("4 2 2 1 0 1\n1 0 0\n")  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        read_and_verify(path)


def test_zero_triple(tmp_path):
    path = tmp_path / "zero.arc"
    path.write_text("3 3 1 0 1\n0 0 0\n")
    with pytest.raises(ZeroTriple):
        read_and_verify(path)


@pytest.mark.parametrize("body", ["1 0 2", "1 0", "1 0 0 1", f"0 {2 ** 31} 1",
                                  f"0 1 {10 ** 20}"])
def test_bad_triple_is_a_parse_error_at_its_line(tmp_path, body):
    # point_id decides the range and the count; read_certificate adds the line
    path = tmp_path / "bad.arc"
    path.write_text(f"2 2 1 0 1\n1 0 0\n{body}\n")
    with pytest.raises(ParseError) as err:
        read_and_verify(path)
    assert err.value.line == 3


def test_duplicate_point(tmp_path):
    # projectively equal triples (1,1,1) and (2,2,2) over GF(3)
    path = tmp_path / "dup.arc"
    path.write_text("3 3 1 0 1\n1 1 1\n2 2 2\n")
    with pytest.raises(DuplicatePoint):
        read_and_verify(path)


def test_header_mismatch(tmp_path):
    path = tmp_path / "hdr.arc"
    path.write_text("8 2 2 1 1 1\n1 0 0\n")  # 2^2 != 8
    with pytest.raises(ParseError):
        read_and_verify(path)


def test_verifier_agrees_with_incremental(tmp_path):
    # verdicts match the incremental engine's completeness on search outputs
    for q in (4, 9, 16, 25, 32):
        cfg = SearchConfig(q=q)
        pl = _plane_for(cfg)
        arc = greedy_trial(pl, cfg, trial_rng(7, 0))
        path = tmp_path / f"x{q}.arc"
        write_certificate(arc, path)
        rep = read_and_verify(path)
        ok, unc = verify_complete(arc)
        assert rep.is_complete == ok and unc == []
