"""Portable arc certificates: write search results, verify third-party claims.

Grammar (ASCII, LF endings, numbers in plain decimal digits):

    line 1:        q p h c0 c1 ... ch      (modulus, base-p, constant first)
    lines 2..k+1:  x0 x1 x2                (element indices, any claimant
                                            coordinates, not necessarily
                                            normalized)
    # comment lines are permitted anywhere after line 1

The writer adds structured comments `# size k` and `# complete 0|1` so a
claim travels with the file.  The reader rebuilds the field from the header
modulus (any irreducible modulus is accepted, canonical or not), normalizes
the points, and re-verifies the arc and completeness claims entirely from
scratch: nothing here touches the search or the incremental coverage engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .arc import Arc, NotAnArc, _covered
from .gf import ReducibleModulus
from .plane import ZeroTriple, build_plane


class ParseError(ValueError):
    """Malformed certificate text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicatePoint(ValueError):
    """Two body lines name the same projective point."""


@dataclass(frozen=True)
class VerifyReport:
    is_arc: bool
    is_complete: bool
    size: int
    q: int
    claimed_complete: bool | None = None


def write_certificate(arc: Arc, path, complete: bool | None = None) -> None:
    """Write a deterministic text certificate for an arc.

    ``complete=None`` re-verifies completeness and records the verdict;
    passing a bool records that claim as-is.
    """
    if complete is None:
        complete, _ = _covered(arc)
    f = arc.plane.field
    header = [f.q, f.p, f.h, *f.modulus]
    coords = arc.coords()
    lines = [" ".join(str(x) for x in header),
             f"# size {len(arc.points)}",
             f"# complete {1 if complete else 0}"]
    lines += [" ".join(str(int(c)) for c in row) for row in coords]
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write("\n".join(lines) + "\n")


def _parse_ints(text: str, lineno: int) -> list[int]:
    vals = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        # plain ASCII digits only: int() would also take a sign or "0_1"
        if not (token.isascii() and token.isdigit()):
            raise ParseError(f"expected an integer, got {token!r}", lineno, pos + 1)
        try:
            vals.append(int(token))
        except ValueError:  # more digits than int() converts
            raise ParseError("integer too long", lineno, pos + 1) from None
        pos += len(token)
    return vals


def read_certificate(path) -> tuple[Arc, bool | None]:
    """Parse and normalize a certificate; returns (arc, claimed_complete).

    The arc is built on a plane over the claimant's own modulus.
    """
    with open(path, "rb") as fin:
        data = fin.read()
    try:
        raw = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        at = exc.start
        raise ParseError(f"non-ASCII byte 0x{data[at]:02x}",
                         data.count(b"\n", 0, at) + 1,
                         at - data.rfind(b"\n", 0, at)) from None
    if not raw or not raw[0].strip():
        raise ParseError("empty certificate", 1)
    header = _parse_ints(raw[0], 1)
    if len(header) < 5:
        raise ParseError("header needs q p h and h+1 modulus coefficients", 1)
    q, p, h, *modulus = header
    if h < 1 or len(modulus) != h + 1:
        raise ParseError(f"expected {max(h, 1) + 1} modulus coefficients, "
                         f"got {len(modulus)}", 1)
    power = 1
    for _ in range(h):  # p**h, but never much larger than q
        power *= p
        if power > q:
            break
    if power != q:
        raise ParseError(f"q = {q} is not {p}^{h}", 1)
    try:
        fld = gf.Field(p, h, modulus)
    except ReducibleModulus:
        raise
    except ValueError as exc:  # every other gf error subclasses it
        raise ParseError(str(exc), 1) from exc

    plane = build_plane(fld)
    claimed_size = None
    claimed_complete = None
    points: list[int] = []
    seen: dict[int, int] = {}
    for lineno, line in enumerate(raw[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            fields = stripped[1:].split()
            # only well-formed `# size N` / `# complete 0|1` comments are
            # structured; anything else is free-form and skipped
            if len(fields) == 2 and fields[0] == "size" and fields[1].isdigit():
                claimed_size = int(fields[1])
            elif (len(fields) == 2 and fields[0] == "complete"
                  and fields[1] in ("0", "1", "true", "false")):
                claimed_complete = fields[1] in ("1", "true")
            continue
        triple = _parse_ints(stripped, lineno)
        try:
            pid = plane.point_id(triple)
        except ZeroTriple:
            raise ZeroTriple(f"line {lineno}: zero triple") from None
        except ValueError as exc:  # not three element indices in [0, q)
            raise ParseError(str(exc), lineno) from None
        if pid in seen:
            raise DuplicatePoint(
                f"line {lineno} repeats the point of line {seen[pid]}")
        seen[pid] = lineno
        points.append(pid)
    if claimed_size is not None and claimed_size != len(points):
        raise ParseError(
            f"header claims {claimed_size} points, body has {len(points)}",
            len(raw))
    return Arc(plane, points), claimed_complete


def read_and_verify(path) -> VerifyReport:
    """Independently re-verify a certificate from scratch."""
    arc, claimed_complete = read_certificate(path)
    try:
        is_arc, is_complete = True, _covered(arc)[0]
    except NotAnArc:
        is_arc = is_complete = False
    return VerifyReport(
        is_arc=is_arc, is_complete=is_complete, size=len(arc.points),
        q=arc.plane.q, claimed_complete=claimed_complete)
