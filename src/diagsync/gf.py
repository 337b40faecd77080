"""Exact arithmetic in GF(p^e).

Field elements are plain Python ints in ``range(q)``.  The int ``v`` encodes
the coefficient vector ``(c_0, ..., c_{e-1})`` of a polynomial over GF(p) via
``v = c_0 + c_1*p + ... + c_{e-1}*p^(e-1)``, reduced modulo a fixed monic
irreducible polynomial of degree e.  For e == 1 this is ordinary arithmetic
mod p.  The modulus is chosen deterministically (smallest integer encoding),
so element encodings are reproducible across runs.  Every field builds its
dense add/mul/neg/inv tables, which the scalar methods and the vectorized
group arithmetic of psl2 both read.
"""

from __future__ import annotations

from functools import lru_cache

# the largest supported field order: PSL(2,q) indexes its elements by q^4 keys
MAX_Q = 128


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q == p^e and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        e = 0
        n = q
        while n % p == 0:
            n //= p
            e += 1
        return (p, e) if n == 1 else None
    return (q, 1) if is_prime(q) else None


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = list(num)
    dlead_inv = pow(den[-1], p - 2, p)
    quot = [0] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = (num[i + len(den) - 1] * dlead_inv) % p
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] = (num[i + j] - c * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """a*b modulo the monic mod, as its len(mod) - 1 low coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    rem = _poly_divmod(out, mod, p)[1]
    return rem + [0] * (len(mod) - 1 - len(rem))


def _digits(v: int, p: int, n: int) -> list[int]:
    """The n base-p digits of v, least significant first."""
    return [v // p ** k % p for k in range(n)]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division of a monic polynomial over GF(p) by every monic
    polynomial of degree 1 to half its own."""
    e = len(poly) - 1
    return not any(_poly_divmod(poly, _digits(low, p, k) + [1], p)[1] == [0]
                   for k in range(1, e // 2 + 1) for low in range(p ** k))


def _find_modulus(p: int, e: int) -> list[int]:
    """Smallest (by integer encoding of low coefficients) monic irreducible of degree e."""
    return next(poly for poly in (_digits(low, p, e) + [1] for low in range(p ** e))
                if _is_irreducible(poly, p))


class Field:
    """GF(p^e) with int-encoded elements and dense arithmetic tables."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e <= 0:
            raise ValueError(f"e = {e} must be positive")
        q = p ** e
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds the supported bound {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(_find_modulus(p, e))
        digits = [_digits(a, p, e) for a in range(q)]
        self.add_table = [[self.element([(x + y) % p for x, y in zip(da, db)])
                           for db in digits] for da in digits]
        self.mul_table = [[self.element(_poly_mulmod(da, db, list(self.modulus), p))
                           for db in digits] for da in digits]
        self.neg_table = [row.index(0) for row in self.add_table]
        self.inv_table = [0] + [row.index(1) for row in self.mul_table[1:]]

    # -- encoding ----------------------------------------------------------

    def element(self, coeffs) -> int:
        if len(coeffs) != self.e:
            raise ValueError("coefficient vector has wrong length")
        v = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.p:
                raise ValueError("coefficient out of range")
            v = v * self.p + c
        return v

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero in a finite field")
        return self.inv_table[a]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if n == 0 else 0
        n %= self.q - 1
        result = 1
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        n = 1
        x = a
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    def generator(self) -> int:
        """Smallest generator of the multiplicative group."""
        for a in range(1, self.q):
            if self.multiplicative_order(a) == self.q - 1:
                return a
        raise AssertionError("multiplicative group has no generator")  # unreachable

    def squares(self) -> frozenset[int]:
        return frozenset(self.mul(a, a) for a in range(1, self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def build_field(p: int, e: int = 1) -> Field:
    return Field(p, e)


@lru_cache(maxsize=None)
def field_for_order(q: int) -> Field:
    pe = factor_prime_power(q)
    if pe is None:
        raise ValueError(f"q = {q} is not a prime power")
    return build_field(*pe)
