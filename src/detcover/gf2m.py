"""Binary extension field arithmetic on plain integers.

An element of GF(2^m) is an int in [0, 2^m) whose bit i is the coefficient
of x^i in a polynomial over GF(2).  Addition is XOR (each element is its
own additive negation), multiplication is carry-less polynomial product
followed by reduction modulo a fixed irreducible polynomial, and inversion
runs the binary extended Euclid algorithm on polynomials.

Two field sizes are wired in:

  GF8   m = 8,  modulus x^8 + x^4 + x^3 + x + 1   (0x11B)
  GF64  m = 64, modulus x^64 + x^4 + x^3 + x + 1  (1 << 64 | 0x1B)

GF8 keeps exhaustive cross-checks cheap; GF64 is the production field,
large enough that random-evaluation identity tests have error probability
around n / 2^64.  Both moduli share the low part x^4 + x^3 + x + 1, so
reduction folds the overflow through shifts by 0, 1, 3, 4.

Irreducibility of small moduli (m <= 16) is verified by trial division at
construction time; the degree-64 modulus is a standard table entry and is
checked once by the test suite via x^(2^64) == x (mod f) together with
gcd(x^(2^32) - x, f) = 1.
"""

from __future__ import annotations

import random


def is_irreducible(poly: int) -> bool:
    """Trial-division irreducibility test for a GF(2) polynomial.

    Intended for small degrees (the constructor only calls it for
    m <= 16); cost grows as 2^(deg/2).
    """
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if not poly & 1:  # divisible by x
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if _poly_mod(poly, d) == 0:
            return False
    return True


def _poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


class GF2m:
    """GF(2^m) with a fixed reduction polynomial.

    Elements are plain ints; the class only bundles the modulus and the
    operations.  Instances are immutable and safe to share across threads.
    """

    def __init__(self, m: int, reduction: int):
        if reduction.bit_length() != m + 1:
            raise ValueError(f"reduction polynomial must have degree {m}")
        if m <= 16 and not is_irreducible(reduction):
            raise ValueError(f"reduction polynomial {reduction:#x} is reducible")
        self.m = m
        self.reduction = reduction
        self.order = 1 << m
        self._mask = self.order - 1
        # low-degree part of the modulus: x^m == low (mod reduction)
        low = reduction ^ (1 << m)
        self._fold_shifts = tuple(i for i in range(m) if (low >> i) & 1)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, reduction={self.reduction:#x})"

    def mul(self, a: int, b: int) -> int:
        """Product modulo the reduction polynomial.

        Carry-less multiply with a 4-bit window of precomputed multiples
        of b, then fold the overflow back through the sparse modulus.
        """
        t2 = b << 1
        t4 = b << 2
        t8 = b << 3
        t3 = t2 ^ b
        t5 = t4 ^ b
        t6 = t4 ^ t2
        t7 = t6 ^ b
        t12 = t8 ^ t4
        table = (0, b, t2, t3, t4, t5, t6, t7,
                 t8, t8 ^ b, t8 ^ t2, t8 ^ t3, t12, t12 ^ b, t12 ^ t2, t12 ^ t3)
        p = 0
        shift = 0
        while a:
            p ^= table[a & 15] << shift
            a >>= 4
            shift += 4
        return self._reduce(p)

    def _reduce(self, p: int) -> int:
        m = self.m
        mask = self._mask
        shifts = self._fold_shifts
        hi = p >> m
        while hi:
            p &= mask
            for s in shifts:
                p ^= hi << s
            hi = p >> m
        return p

    def power(self, a: int, e: int) -> int:
        """a raised to a nonnegative integer exponent, by squaring."""
        if e < 0:
            raise ValueError("negative exponent")
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        """Multiplicative inverse via binary polynomial extended Euclid."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if a == 1:
            return 1
        # invariant: r0 == s0 * a  and  r1 == s1 * a  (mod reduction)
        r0, r1 = self.reduction, a
        s0, s1 = 0, 1
        while r1 != 1:
            d = r0.bit_length() - r1.bit_length()
            if d < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                d = -d
            r0 ^= r1 << d
            s0 ^= s1 << d
        return self._reduce(s1)

    def sample(self, rng: random.Random) -> int:
        """Uniformly random element (zero included)."""
        return rng.getrandbits(self.m)


GF8 = GF2m(8, 0x11B)
GF64 = GF2m(64, (1 << 64) | 0x1B)

_FIELDS = {8: GF8, 64: GF64}


def field_for(m: int) -> GF2m:
    """The prebuilt field of the given degree (8 or 64)."""
    try:
        return _FIELDS[m]
    except KeyError:
        raise ValueError(f"unsupported field degree {m}; choose 8 or 64") from None
