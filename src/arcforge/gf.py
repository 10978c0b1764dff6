"""Exact arithmetic in the Galois field GF(p^h).

Elements are canonical integer indices in [0, q): the little-endian base-p
coefficient vector evaluated at p, and for prime fields the residue.

The scalar operations take and return plain ints and are the reference
the ``*_arr`` variants, which the plane and search layers use, are tested
against.  Prime fields compute vector residues directly and characteristic
2 adds by XOR.  Every other vector op is a lookup in O(q) tables built
once at construction: ``exp[log[a] + log[b]]`` for products, Zech
logarithms log(1 + g^d) for sums (Lidl & Niederreiter, *Finite Fields*,
10.1), a product with -1 = p - 1 for negation, and one inverse table for
every field (see ``Field._build_vector_tables``).
"""

from __future__ import annotations

import math

import numpy as np

# the first power of two above 9109, the largest q of the size table and
# of any plane under the point cap; every table index fits int32
ORDER_CAP = 2**14


class NotPrime(ValueError):
    """The requested characteristic is not a prime number."""


class DegreeZero(ValueError):
    """The requested extension degree is below 1."""


class OrderOverflow(ValueError):
    """p**h exceeds the supported field order cap."""


class ReducibleModulus(ValueError):
    """The given modulus is reducible, so it does not define a field."""


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, h) with q = p**h and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            h = 0
            n = q
            while n % p == 0:
                n //= p
                h += 1
            return (p, h) if n == 1 and is_prime(p) else None
    return (q, 1)


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p) -- coefficient lists, little-endian
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, mod, p)[1]


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    _poly_trim(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quo = [0] * max(da - db + 1, 0)
    while da >= db:
        c = a[da] * inv_lead % p
        quo[da - db] = c
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - c * b[i]) % p
        _poly_trim(a)
        da = len(a) - 1
    return quo, a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while _poly_trim(b):
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_powmod_x(e: int, mod: list[int], p: int) -> list[int]:
    """x**e reduced mod ``mod`` over GF(p)."""
    result = [1]
    base = _poly_divmod([0, 1], mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic-polynomial irreducibility over GF(p).

    Checks gcd(x^(p^d) - x, f) = 1 for every d up to deg(f)/2, which rules
    out any factor of degree <= deg(f)/2 (and in particular any root).
    """
    h = len(coeffs) - 1
    if h < 1 or coeffs[-1] != 1:
        return False
    if h == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, h // 2 + 1):
        xp = _poly_powmod_x(p**d, coeffs, p)
        # x^(p^d) - x
        g = list(xp) + [0] * max(0, 2 - len(xp))
        g[1] = (g[1] - 1) % p
        if len(_poly_gcd(coeffs, g, p)) > 1:
            return False
    return True


def least_irreducible(p: int, h: int) -> list[int]:
    """Lexicographically least monic irreducible of degree h over GF(p).

    Candidates are compared on (c_{h-1}, ..., c_0) after the forced
    leading 1, so the enumeration index k maps to c_i = (k // p^i) % p.
    """
    if h == 1:
        return [0, 1]  # the formal polynomial x
    for k in range(p**h):
        coeffs = [(k // p**i) % p for i in range(h)] + [1]
        if is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class Field:
    """GF(p^h) with elements as canonical integer indices in [0, q).

    Every field builds a discrete-log table, its antilog and the O(q)
    vector tables derived from them at construction.  Prime fields compute
    residues directly, except in ``inv_arr``; in extension fields the
    scalar ``mul``, ``inv`` and ``pow`` reduce logs mod q - 1, while the
    ``*_arr`` ops read the vector tables (see the module docstring).
    Immutable after construction; safe to share across workers.
    """

    def __init__(self, p: int, h: int, modulus: list[int] | None = None):
        if h < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {h}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p**h
        if q > ORDER_CAP:
            raise OrderOverflow(f"p**h = {q} exceeds cap {ORDER_CAP}")
        self.p = p
        self.h = h
        self.q = q
        if modulus is None:
            modulus = least_irreducible(p, h)
        else:
            modulus = list(modulus)
            if len(modulus) != h + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {h}")
            if any(not 0 <= c < p for c in modulus):
                raise ValueError("modulus coefficients out of range")
            if h > 1 and not is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = tuple(modulus)
        self._build_log_tables()
        self._build_vector_tables()

    def __repr__(self):
        return f"Field(p={self.p}, h={self.h}, q={self.q})"

    # -- element <-> coefficient view ------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of element index ``a``."""
        self._check(a)
        p = self.p
        return tuple((a // p**i) % p for i in range(self.h))

    def element(self, coeffs) -> int:
        """Element index of a little-endian coefficient vector."""
        if len(coeffs) > self.h or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"bad coefficient vector {coeffs!r}")
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} outside [0, {self.q})")

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.h == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        for _ in range(self.h):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        self._check(a)
        if self.h == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        for _ in range(self.h):
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.h == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._alog[(int(self._log[a]) + int(self._log[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self.h == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._alog[(self.q - 1 - int(self._log[a])) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    # -- vectorized arithmetic on index arrays -----------------------------

    def add_arr(self, a, b):
        if self.h == 1:
            return (a + b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        la, lb = self._log_z[a], self._log_z[b]
        return self._exp_z[la + self._zech_z[lb - la + 2 * self.q]]

    def neg_arr(self, a):
        if self.h == 1:
            return (self.p - a) % self.p
        if self.p == 2:
            return a  # ops never mutate their inputs, aliasing is safe
        return self.mul_arr(a, self.p - 1)

    def sub_arr(self, a, b):
        if self.h == 1:
            d = a - b  # in (-p, p): a conditional add is cheaper than % p
            d += self.p * (d < 0)
            return d
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b):
        if self.h == 1:
            return np.asarray(a, dtype=np.int32) * b % self.p
        return self._exp_z[self._log_z[a] + self._log_z[b]]

    def inv_arr(self, a):
        return self._inv_table[a]

    # -- table construction ------------------------------------------------

    def _build_log_tables(self) -> None:
        """Log and antilog tables of the first generator g in index order.

        Multiplication by g is GF(p)-linear, so it maps every index at once:
        row i of ``images`` holds the digits of g*x^i, and an index's digits
        times ``images`` are the digits of its product with g.  The powers
        of g are then a walk over integer indices.
        """
        p, h, q = self.p, self.h, self.q
        weights = p ** np.arange(h)
        digits = np.arange(q)[:, None] // weights % p
        mod = list(self.modulus)
        for g in range(1, q):  # 1 generates GF(2)
            g_coeffs = list(self.coeffs(g))
            images = np.zeros((h, h), dtype=np.int64)
            for i in range(h):
                row = _poly_mulmod(g_coeffs, [0] * i + [1], mod, p)
                images[i, :len(row)] = row
            times_g = (digits @ images % p @ weights).tolist()
            alog, cur = [1], times_g[1]
            while cur != 1:
                alog.append(cur)
                cur = times_g[cur]
            if len(alog) == q - 1:
                self._alog = np.array(alog, dtype=np.int32)
                self._log = np.zeros(q, dtype=np.int32)
                self._log[self._alog] = np.arange(q - 1)
                return
        raise AssertionError("no generator found")  # unreachable for true fields

    def _build_vector_tables(self) -> None:
        """Zero-aware log/antilog, Zech and inverse tables for ``*_arr``.

        ``_log_z[0]`` is 2q, so a sum of two logs is below 2(q - 1) exactly
        when both operands are nonzero and at most 4q otherwise; ``_exp_z``
        repeats the antilog twice and is 0 from 2(q - 1) through 4q.

        ``add_arr`` reads ``_zech_z`` at lb - la + 2q, which lies in one of
        three bands:

        - 0..q-2 when a = 0: entry i is i - 2q, so la + entry = lb;
        - q+2..3q-2 when both are nonzero: entry i is log(1 + g^d) with
          d = i - 2q mod (q - 1), or 2q where 1 + g^d = 0, so la + entry
          is log(a + b) or lands in the zero tail;
        - 3q+2..4q when b = 0: entry i is 0, so la + entry = la.

        When a = b = 0, la + entry lands in the zero tail too.  Adding 1
        changes only the constant digit, so the successor of an index x is
        x - x%p + (x+1)%p.
        """
        q, p = self.q, self.p
        log_z = self._log.copy()
        log_z[0] = 2 * q
        exp_z = np.zeros(4 * q + 1, dtype=np.int32)
        exp_z[:2 * (q - 1)] = np.tile(self._alog, 2)
        succ = self._alog - self._alog % p + (self._alog + 1) % p
        zech = log_z[succ]  # log(1 + g^d) for d = 0..q-2, 2q where it is 0
        zech_z = np.zeros(4 * q + 1, dtype=np.int32)
        zech_z[:q - 1] = np.arange(q - 1) - 2 * q
        band = np.arange(q + 2, 3 * q - 1)
        zech_z[band] = zech[(band - 2 * q) % (q - 1)]
        self._log_z = log_z
        self._exp_z = exp_z
        self._zech_z = zech_z
        inv = self._alog[(q - 1 - self._log) % (q - 1)]
        inv[0] = 0  # never a valid lookup; callers mask zeros
        self._inv_table = inv


def field_of_order(q: int) -> Field:
    """Field of order q, factoring q = p**h automatically."""
    ph = factor_prime_power(q)
    if ph is None:
        raise NotPrime(f"{q} is not a prime power")
    return Field(*ph)
