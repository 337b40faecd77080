"""Exact arithmetic in GF(p^e).

Field elements are plain Python ints in ``range(q)``.  The int ``v`` encodes
the coefficient vector ``(c_0, ..., c_{e-1})`` of a polynomial over GF(p) via
``v = c_0 + c_1*p + ... + c_{e-1}*p^(e-1)``, reduced modulo a fixed monic
irreducible polynomial of degree e.  For e == 1 this is ordinary arithmetic
mod p.  The modulus is chosen deterministically (smallest integer encoding),
so element encodings are reproducible across runs.
"""

from __future__ import annotations

from functools import lru_cache


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
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, mod, p)[1]


def _poly_powmod(a: list[int], n: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_divmod(list(a), mod, p)[1]
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        n >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b != [0]:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial over GF(p)."""
    e = len(poly) - 1
    if e < 1 or poly[0] == 0 and e > 1:
        # reducible: x divides when the constant term vanishes (degree > 1)
        if e > 1 and poly[0] == 0:
            return False
    x = [0, 1]
    # x^(p^e) == x (mod poly)
    t = _poly_powmod(x, p ** e, poly, p)
    lhs = _poly_divmod(list(x), poly, p)[1]
    if t != lhs:
        return False
    primes = set()
    n = e
    f = 2
    while f * f <= n:
        while n % f == 0:
            primes.add(f)
            n //= f
        f += 1
    if n > 1:
        primes.add(n)
    for r in primes:
        t = _poly_powmod(x, p ** (e // r), poly, p)
        diff = [(ti - li) % p for ti, li in
                zip(t + [0] * (len(poly) - len(t)), lhs + [0] * (len(poly) - len(lhs)))]
        while len(diff) > 1 and diff[-1] == 0:
            diff.pop()
        if diff == [0]:
            return False
        g = _poly_gcd(list(poly), diff, p)
        if len(g) > 1:
            return False
    return True


def _find_modulus(p: int, e: int) -> list[int]:
    """Smallest (by integer encoding of low coefficients) monic irreducible of degree e."""
    if e == 1:
        return [0, 1]
    for low in range(p ** e):
        coeffs = []
        v = low
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """GF(p^e) with int-encoded elements and dense arithmetic tables."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e <= 0:
            raise ValueError(f"e = {e} must be positive")
        q = p ** e
        if q > 1 << 20:
            raise ValueError(f"q = {q} exceeds the supported bound 2^20")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(_find_modulus(p, e))
        self._small = q <= 4096
        if self._small:
            self._build_tables()

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

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

    def _add_slow(self, a: int, b: int) -> int:
        p = self.p
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.element([(x + y) % p for x, y in zip(ca, cb)])

    def _neg_slow(self, a: int) -> int:
        return self.element([(-x) % self.p for x in self.coeffs(a)])

    def _mul_slow(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mulmod(list(self.coeffs(a)), list(self.coeffs(b)),
                            list(self.modulus), self.p)
        prod += [0] * (self.e - len(prod))
        return self.element(prod)

    def _build_tables(self) -> None:
        q = self.q
        if self.e == 1:
            p = self.p
            self.add_table = [[(i + j) % p for j in range(q)] for i in range(q)]
            self.mul_table = [[(i * j) % p for j in range(q)] for i in range(q)]
        else:
            self.add_table = [[self._add_slow(i, j) for j in range(q)] for i in range(q)]
            self.mul_table = [[self._mul_slow(i, j) for j in range(q)] for i in range(q)]
        self.neg_table = [self.add_table[i].index(0) for i in range(q)]
        self.inv_table = [0] * q
        for i in range(1, q):
            self.inv_table[i] = self.mul_table[i].index(1)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b] if self._small else self._add_slow(a, b)

    def neg(self, a: int) -> int:
        return self.neg_table[a] if self._small else self._neg_slow(a)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b] if self._small else self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero in a finite field")
        if self._small:
            return self.inv_table[a]
        return self.pow(a, self.q - 2)

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

    def positive_half(self) -> frozenset[int]:
        """Half-set of GF(q)* used for sign canonicalization (odd q).

        An element is 'positive' when its integer encoding is smaller than
        that of its negative.
        """
        return frozenset(a for a in range(1, self.q) if a < self.neg(a))

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
