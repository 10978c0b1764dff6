import itertools
import time

import numpy as np
import pytest

from arcforge import certify, gf
from arcforge.gf import Field, field_of_order


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_least_irreducible(p, h):
    """Enumerate monic degree-h polynomials high-coefficient-first and return
    the first with no nontrivial monic factorization (trial products)."""
    def all_polys(deg):
        for tail in itertools.product(range(p), repeat=deg):
            yield list(reversed(tail)) + [1]  # little-endian, monic

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    products = set()
    for d1 in range(1, h):
        d2 = h - d1
        if d2 < d1:
            break
        for f in all_polys(d1):
            for g in all_polys(d2):
                products.add(tuple(poly_mul(f, g)))
    for cand in all_polys(h):
        if tuple(cand) not in products:
            return cand
    raise AssertionError


def poly_division_reduce(a, modulus, p):
    """Long division remainder, little-endian coefficient lists."""
    a = list(a)
    while len(a) >= len(modulus):
        lead = a[-1]
        if lead:
            shift = len(a) - len(modulus)
            for i, c in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return a + [0] * (len(modulus) - 1 - len(a))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_prime_field_construction():
    f = Field(7, 1)
    assert f.q == 7 and f.p == 7 and f.h == 1
    assert list(f.modulus) == [0, 1]  # the formal polynomial x


def test_gf4_modulus_forced():
    f = Field(2, 2)
    assert list(f.modulus) == [1, 1, 1]  # x^2 + x + 1


@pytest.mark.parametrize("p,h", [(3, 2), (2, 3), (2, 4), (5, 2), (3, 3), (2, 5)])
def test_least_irreducible_matches_brute_force(p, h):
    assert list(Field(p, h).modulus) == brute_force_least_irreducible(p, h)


def test_construction_errors():
    with pytest.raises(gf.NotPrime):
        Field(6, 1)
    with pytest.raises(gf.DegreeZero):
        Field(7, 0)
    with pytest.raises(gf.OrderOverflow):
        Field(2, 40)
    with pytest.raises(gf.NotPrime):
        field_of_order(12)


@pytest.mark.parametrize("build", [
    lambda: Field(3, 2, [1, 0]),      # degree 1, not 2
    lambda: Field(3, 2, [1, 5, 1]),   # coefficient 5 outside GF(3)
    lambda: Field(3, 2).element([3]),
    lambda: Field(3, 2).add(9, 0),    # GF(9) indices are 0..8
], ids=["short-modulus", "modulus-coefficient", "element", "index"])
def test_bad_field_input_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_rejects_reducible_modulus():
    with pytest.raises(gf.ReducibleModulus):
        Field(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)
    # certify reports the same type, with its own exit code
    assert certify.ReducibleModulus is gf.ReducibleModulus


# ---------------------------------------------------------------------------
# arithmetic on pinned examples
# ---------------------------------------------------------------------------

def test_scalar_examples():
    f7 = Field(7, 1)
    assert f7.add(3, 5) == 1
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7.neg(3) == 4

    f2 = Field(2, 1)
    assert f2.add(1, 1) == 0
    assert f2.inv(1) == 1

    f4 = Field(2, 2)
    x = f4.element([0, 1])
    x1 = f4.element([1, 1])
    assert f4.add(x, x1) == 1
    # reduce x*x by the modulus with a polynomial-division oracle
    expect = poly_division_reduce([0, 0, 1], list(f4.modulus), 2)
    assert f4.coeffs(f4.mul(x, x)) == tuple(expect)
    assert f4.mul(x, x) == x1

    # sampled products: schoolbook product of the coefficient vectors,
    # reduced by long division, against the log tables
    for p, h in [(3, 2), (5, 4), (2, 10), (3, 8), (2, 14)]:
        f = Field(p, h)
        pairs = np.random.default_rng(p ** h).integers(0, f.q, size=(200, 2))
        for a, b in pairs.tolist():
            prod = [0] * (2 * h - 1)
            for i, ai in enumerate(f.coeffs(a)):
                for j, bj in enumerate(f.coeffs(b)):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
            expect = poly_division_reduce(prod, list(f.modulus), p)
            assert f.coeffs(f.mul(a, b)) == tuple(expect)
        assert (f.mul_arr(pairs[:, 0], pairs[:, 1])
                == [f.mul(a, b) for a, b in pairs.tolist()]).all()


def test_negative_power_is_the_inverse():
    f = Field(3, 2)
    assert f.pow(2, -1) == f.inv(2)


def test_gf9_inverses_exhaustive():
    f = Field(3, 2)
    for a in range(1, 9):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(gf.ZeroInverse):
        f.inv(0)


def test_neg_characteristic_two():
    f = Field(2, 3)
    for a in range(f.q):
        assert f.neg(a) == a
        assert f.add(a, f.neg(a)) == 0


def test_gf9_additive_inverses():
    f = Field(3, 2)
    for a in range(f.q):
        assert f.add(a, f.neg(a)) == 0


# ---------------------------------------------------------------------------
# field axioms, exhaustive over all triples (vectorized)
# ---------------------------------------------------------------------------

AXIOM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4),
                (11, 2), (5, 3), (127, 1), (2, 7)]


@pytest.mark.parametrize("p,h", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, h):
    f = Field(p, h)
    q = f.q
    a = np.arange(q)[:, None, None]
    b = np.arange(q)[None, :, None]
    c = np.arange(q)[None, None, :]
    assert (f.add_arr(a, b) == f.add_arr(b, a)).all()
    assert (f.mul_arr(a, b) == f.mul_arr(b, a)).all()
    assert (f.add_arr(f.add_arr(a, b), c) == f.add_arr(a, f.add_arr(b, c))).all()
    assert (f.mul_arr(f.mul_arr(a, b), c) == f.mul_arr(a, f.mul_arr(b, c))).all()
    assert (f.mul_arr(a, f.add_arr(b, c))
            == f.add_arr(f.mul_arr(a, b), f.mul_arr(a, c))).all()
    e = np.arange(q)
    assert (f.add_arr(e, np.zeros(q, dtype=int)) == e).all()
    assert (f.mul_arr(e, np.ones(q, dtype=int)) == e).all()
    assert (f.add_arr(e, f.neg_arr(e)) == 0).all()
    nz = np.arange(1, q)
    assert (f.mul_arr(nz, f.inv_arr(nz)) == 1).all()


@pytest.mark.parametrize("p,h", AXIOM_FIELDS)
def test_multiplicative_group_order(p, h):
    f = Field(p, h)
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1


@pytest.mark.parametrize("p,h", [(2, 1), (3, 2), (2, 4), (5, 2), (13, 1)])
def test_coeff_roundtrip(p, h):
    f = Field(p, h)
    for a in range(f.q):
        assert f.element(f.coeffs(a)) == a


def test_scalar_and_vector_ops_agree():
    # the scalar ops keep the digit and reduced-log arithmetic; the vector
    # ops read residues, XOR or the zero-aware log, Zech and inverse tables,
    # so this compares two independent paths.  Exhaustive up to q = 256,
    # sampled rows above; every row meets all of GF(q), so each a is also
    # paired with -a, and the rows hold 0, 1 and -1 = p - 1.
    for p, h in [(2, 1), (3, 1), (3, 2), (2, 3), (5, 1), (2, 4), (7, 2),
                 (101, 1), (3, 5), (2, 8), (2, 10), (5, 4), (3, 6), (9109, 1)]:
        f = Field(p, h)
        q = f.q
        rows = (np.arange(q) if q <= 256
                else np.unique(np.r_[0, 1, 2, p - 1, q - 1, 517]))
        a = np.repeat(rows, q)
        b = np.tile(np.arange(q), len(rows))
        add_v = f.add_arr(a, b).tolist()
        sub_v = f.sub_arr(a, b).tolist()
        mul_v = f.mul_arr(a, b).tolist()
        for x, y, s, d, m in zip(a.tolist(), b.tolist(), add_v, sub_v, mul_v):
            assert s == f.add(x, y)
            assert d == f.sub(x, y)
            assert m == f.mul(x, y)
        assert f.neg_arr(np.arange(q)).tolist() == [f.neg(x) for x in range(q)]
        nz = np.arange(1, q)
        assert f.inv_arr(nz).tolist() == [f.inv(x) for x in range(1, q)]
        # zero on either side, and the (m,1) x (1,k) broadcast join_ids uses
        zero = np.zeros(q, dtype=int)
        assert (f.mul_arr(zero, np.arange(q)) == 0).all()
        assert (f.mul_arr(np.arange(q), zero) == 0).all()
        table = np.asarray(mul_v).reshape(len(rows), q)
        assert (f.mul_arr(rows[:, None], np.arange(q)[None, :]) == table).all()
        assert (f.mul_arr(np.arange(q)[:, None], rows[None, :]) == table.T).all()
        table = np.asarray(add_v).reshape(len(rows), q)
        assert (f.add_arr(rows[:, None], np.arange(q)[None, :]) == table).all()
        assert (f.add_arr(np.arange(q)[:, None], rows[None, :]) == table.T).all()


def test_order_cap():
    # every table index fits int32 up to the cap, and above it the field is
    # refused before any table is built
    assert Field(2, 14).q == gf.ORDER_CAP
    t0 = time.perf_counter()
    with pytest.raises(gf.OrderOverflow):
        Field(2, 15)
    assert time.perf_counter() - t0 < 1.0


def test_modulus_irreducibility_reverified():
    for p, h in AXIOM_FIELDS:
        f = Field(p, h)
        if h == 1:
            continue
        assert gf.is_irreducible(list(f.modulus), p)
        # no roots in GF(p)
        for r in range(p):
            val = sum(c * r**i for i, c in enumerate(f.modulus)) % p
            assert val != 0


def test_prime_power_factoring():
    assert gf.factor_prime_power(8192) == (2, 13)
    assert gf.factor_prime_power(6561) == (3, 8)
    assert gf.factor_prime_power(9109) == (9109, 1)
    assert gf.factor_prime_power(6) is None
    assert gf.factor_prime_power(1) is None


def test_is_prime_rejects_a_prime_square():
    assert not gf.is_prime(4)
