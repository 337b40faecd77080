"""PSL(2,q): exact construction, dense element indices, conjugacy data.

Elements are 2x2 determinant-one matrices over GF(q) modulo sign, stored as
canonical 4-tuples (a, b, c, d) of field-element encodings.  Of the pair
{M, -M} the canonical representative is the one whose first nonzero entry in
scan order (a, b, c, d) lies in the 'positive' half-set of GF(q)* (integer
encoding smaller than that of its negative); for even q the pair is a
singleton.  The dense index of an element is its rank in the sorted list of
canonical tuples, so indices are reproducible and appear as-is in exported
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .gf import field_for_order

Mat = tuple[int, int, int, int]

# full multiplication tables are built only below this group order
TABLE_LIMIT = 3000


@dataclass
class ConjugacyClass:
    id: int
    label: str
    element_order: int
    rep: int
    size: int
    members: int  # bitmask over element indices
    inverse_class: int = -1
    fusion_orbit: int = -1


@dataclass
class FusionOrbit:
    id: int
    label: str
    element_order: int
    class_ids: tuple[int, ...]
    size: int
    members: int


def label_sort_key(label: str):
    """Order class and orbit labels ("7A", "13", "7AB") by element order, then text."""
    digits = "".join(ch for ch in label if ch.isdigit())
    return (int(digits), label)


class PSL2:
    """The group T = PSL(2,q) with the natural projective-line action."""

    def __init__(self, q: int):
        field = field_for_order(q)
        if q < 4:
            raise ValueError("q must be a prime power >= 4")
        self.q = q
        self.field = field
        self._pos = field.positive_half() if q % 2 else None
        self.elements: list[Mat] = sorted(self._enumerate())
        self.order = len(self.elements)
        expected = q * (q * q - 1) // (2 if q % 2 else 1)
        if self.order != expected:
            raise AssertionError(f"enumerated {self.order} elements, expected {expected}")
        self.index: dict[Mat, int] = {m: i for i, m in enumerate(self.elements)}
        self.identity = self.index[(1, 0, 0, 1)]
        self._pack = self._build_pack()
        self._table: np.ndarray | None = None
        self._inv: list[int] | None = None
        self._orders: list[int] | None = None
        self._classes: list[ConjugacyClass] | None = None
        self._fusion: list[FusionOrbit] | None = None
        self._row_arith: tuple | None = None

    # -- construction --------------------------------------------------------

    def _enumerate(self) -> set[Mat]:
        f = self.field
        q = f.q
        out: set[Mat] = set()
        for a in range(1, q):
            ainv = f.inv(a)
            for b in range(q):
                for c in range(q):
                    d = f.mul(ainv, f.add(1, f.mul(b, c)))
                    out.add(self.canonical((a, b, c, d)))
        for b in range(1, q):
            c = f.neg(f.inv(b))
            for d in range(q):
                out.add(self.canonical((0, b, c, d)))
        return out

    def canonical(self, m: Mat) -> Mat:
        if self.q % 2 == 0:
            return m
        for entry in m:
            if entry:
                if entry in self._pos:
                    return m
                f = self.field
                return (f.neg(m[0]), f.neg(m[1]), f.neg(m[2]), f.neg(m[3]))
        raise ValueError("zero matrix is not a group element")

    def _build_pack(self) -> np.ndarray:
        q = self.q
        pack = np.full(q ** 4, -1, dtype=np.int32)
        for i, (a, b, c, d) in enumerate(self.elements):
            pack[((a * q + b) * q + c) * q + d] = i
        return pack

    # -- arithmetic ----------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        f = self.field
        a1, b1, c1, d1 = self.elements[i]
        a2, b2, c2, d2 = self.elements[j]
        m = (f.add(f.mul(a1, a2), f.mul(b1, c2)),
             f.add(f.mul(a1, b2), f.mul(b1, d2)),
             f.add(f.mul(c1, a2), f.mul(d1, c2)),
             f.add(f.mul(c1, b2), f.mul(d1, d2)))
        a, b, c, d = self.canonical(m)
        q = self.q
        return int(self._pack[((a * q + b) * q + c) * q + d])

    def inv(self, i: int) -> int:
        if self._inv is None:
            f = self.field
            q = self.q
            inv = []
            for a, b, c, d in self.elements:
                m = self.canonical((d, f.neg(b), f.neg(c), a))
                inv.append(int(self._pack[((m[0] * q + m[1]) * q + m[2]) * q + m[3]]))
            self._inv = inv
        return self._inv[i]

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def pow(self, g: int, n: int) -> int:
        """g^n for n >= 0, by repeated squaring."""
        out = self.identity
        while n:
            if n & 1:
                out = self.mul(out, g)
            g = self.mul(g, g)
            n >>= 1
        return out

    def element_order(self, i: int) -> int:
        return self.orders()[i]

    def orders(self) -> list[int]:
        if self._orders is None:
            e = self.identity
            orders = [0] * self.order
            orders[e] = 1
            for i in range(self.order):
                if orders[i]:
                    continue
                # walk the cyclic subgroup once, labelling every power
                cyc = [i]
                x = self.mul(i, i)
                while x != e:
                    cyc.append(x)
                    x = self.mul(x, i)
                n = len(cyc) + 1
                for k, y in enumerate(cyc, start=1):
                    if not orders[y]:
                        orders[y] = n // gcd(n, k)
            self._orders = orders
        return self._orders

    def table_fits(self) -> bool:
        """Whether the full multiplication table is affordable at this order."""
        return self.order <= TABLE_LIMIT

    def mult_table(self) -> np.ndarray:
        """Full N x N multiplication table (built lazily; small q only)."""
        if self._table is None:
            if not self.table_fits():
                raise ValueError(f"group of order {self.order} exceeds table limit")
            table = np.empty((self.order, self.order), dtype=np.uint16)
            for i in range(self.order):
                table[i] = self._product_row(i)
            self._table = table
        return self._table

    def mul_rows(self, idx) -> np.ndarray:
        """Products x*j for each x in idx and every j, one row per x.

        Gathered from the multiplication table when it exists, else computed
        row by row with the same arithmetic that builds the table.
        """
        if self._table is not None:
            return self._table[np.asarray(idx, dtype=np.intp)]
        return np.array([self._product_row(i) for i in idx])

    def mul_column(self, idx, j: int) -> list[int]:
        """Products x*j for each x in idx, read down column j of the table."""
        if self._table is not None:
            return self._table[idx, j].tolist()
        return [self.mul(x, j) for x in idx]

    def _product_row(self, i: int) -> np.ndarray:
        """Indices of i*j for every j, by vectorized field arithmetic."""
        if self._row_arith is None:
            f = self.field
            q = self.q
            el = np.array(self.elements, dtype=np.int64)
            add = np.array([[f.add(x, y) for y in range(q)] for x in range(q)],
                           dtype=np.int64)
            mul = np.array([[f.mul(x, y) for y in range(q)] for x in range(q)],
                           dtype=np.int64)
            neg = np.array([f.neg(x) for x in range(q)], dtype=np.int64)
            pos = np.zeros(q, dtype=bool)
            if self._pos is not None:
                for z in self._pos:
                    pos[z] = True
            self._row_arith = (add, mul, neg, pos, el[:, 0], el[:, 1], el[:, 2], el[:, 3])
        add, mul, neg, pos, A2, B2, C2, D2 = self._row_arith
        q = self.q
        a1, b1, c1, d1 = self.elements[i]
        a = add[mul[a1, A2], mul[b1, C2]]
        b = add[mul[a1, B2], mul[b1, D2]]
        c = add[mul[c1, A2], mul[d1, C2]]
        d = add[mul[c1, B2], mul[d1, D2]]
        if q % 2:
            first = np.where(a != 0, a, np.where(b != 0, b, np.where(c != 0, c, d)))
            flip = ~pos[first]
            a = np.where(flip, neg[a], a)
            b = np.where(flip, neg[b], b)
            c = np.where(flip, neg[c], c)
            d = np.where(flip, neg[d], d)
        return self._pack[((a * q + b) * q + c) * q + d]

    # -- generators and conjugacy ---------------------------------------------

    def generators(self) -> list[int]:
        f = self.field
        gens = [self.index[self.canonical((1, 1, 0, 1))],
                self.index[self.canonical((0, 1, f.neg(1), 0))]]
        if f.e > 1:
            g = f.generator()
            gens.insert(1, self.index[self.canonical((1, g, 0, 1))])
        return gens

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def _compute_classes(self) -> None:
        gens = self.generators()
        ginv = [self.inv(g) for g in gens]
        class_of = [-1] * self.order
        raw: list[list[int]] = []
        for start in range(self.order):
            if class_of[start] >= 0:
                continue
            cid = len(raw)
            class_of[start] = cid
            orbit = [start]
            frontier = [start]
            while frontier:
                new = []
                for x in frontier:
                    for g, gi in zip(gens, ginv):
                        y = self.mul(self.mul(gi, x), g)
                        if class_of[y] < 0:
                            class_of[y] = cid
                            new.append(y)
                orbit.extend(new)
                frontier = new
            raw.append(orbit)
        # deterministic order: by (element order, smallest member index)
        orders = self.orders()
        keyed = sorted(range(len(raw)), key=lambda c: (orders[min(raw[c])], min(raw[c])))
        classes: list[ConjugacyClass] = []
        remap = [0] * len(raw)
        for new_id, old_id in enumerate(keyed):
            orbit = raw[old_id]
            remap[old_id] = new_id
            mask = 0
            for x in orbit:
                mask |= 1 << x
            classes.append(ConjugacyClass(
                id=new_id, label="", element_order=orders[min(orbit)],
                rep=min(orbit), size=len(orbit), members=mask))
        # labels: order, plus a letter when several classes share the order
        by_order: dict[int, list[ConjugacyClass]] = {}
        for c in classes:
            by_order.setdefault(c.element_order, []).append(c)
        for order_val, group in by_order.items():
            if len(group) == 1:
                group[0].label = str(order_val)
            else:
                for letter, c in zip("ABCDEFGH", group):
                    c.label = f"{order_val}{letter}"
        self._class_of = [remap[c] for c in class_of]
        for c in classes:
            c.inverse_class = self._class_of[self.inv(c.rep)]
        self._classes = classes
        self._compute_fusion()

    def _compute_fusion(self) -> None:
        classes = self._classes
        parent = list(range(len(classes)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c in classes:
            n = c.element_order
            x = c.rep
            power = x
            for k in range(2, n):
                power = self.mul(power, x)
                if gcd(k, n) == 1:
                    a, b = find(c.id), find(self._class_of[power])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        groups: dict[int, list[int]] = {}
        for c in classes:
            groups.setdefault(find(c.id), []).append(c.id)
        orbits: list[FusionOrbit] = []
        order_counts: dict[int, int] = {}
        for c in classes:
            order_counts[c.element_order] = order_counts.get(c.element_order, 0) + 1
        for oid, root in enumerate(sorted(groups)):
            ids = tuple(sorted(groups[root]))
            n = classes[ids[0]].element_order
            if len(ids) == order_counts[n]:
                label = str(n)
            else:
                label = str(n) + "".join(classes[i].label[len(str(n)):] for i in ids)
            mask = 0
            size = 0
            for i in ids:
                mask |= classes[i].members
                size += classes[i].size
            orbits.append(FusionOrbit(oid, label, n, ids, size, mask))
            for i in ids:
                classes[i].fusion_orbit = oid
        self._fusion = orbits

    def fusion_orbits(self) -> list[FusionOrbit]:
        if self._fusion is None:
            self._compute_classes()
        return self._fusion

    def class_of(self, i: int) -> int:
        if self._classes is None:
            self._compute_classes()
        return self._class_of[i]

    def class_of_array(self) -> np.ndarray:
        if self._classes is None:
            self._compute_classes()
        return np.array(self._class_of, dtype=np.int32)

    # -- projective line -------------------------------------------------------

    def points(self) -> list[tuple[int, int]]:
        return [(x, 1) for x in range(self.q)] + [(1, 0)]

    def point_index(self, pt: tuple[int, int]) -> int:
        x, y = pt
        return self.q if y == 0 else x

    def act_point(self, i: int, pt_idx: int) -> int:
        """Right action on the projective line: the image of the point under i.

        Row-vector convention, so act(x*y, p) == act(y, act(x, p)).
        """
        f = self.field
        a, b, c, d = self.elements[i]
        if pt_idx == self.q:
            u, v = 1, 0
        else:
            u, v = pt_idx, 1
        z = f.add(f.mul(u, a), f.mul(v, c))
        w = f.add(f.mul(u, b), f.mul(v, d))
        if w == 0:
            return self.q
        return f.mul(z, f.inv(w))

    def point_stabilizer(self, pt_idx: int) -> int:
        """Bitmask of the stabilizer of a projective point."""
        mask = 0
        for i in range(self.order):
            if self.act_point(i, pt_idx) == pt_idx:
                mask |= 1 << i
        return mask

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"PSL(2,{self.q}) of order {self.order}"


@lru_cache(maxsize=None)
def build_group(q: int) -> PSL2:
    """Construct PSL(2,q) with a full multiplication table when affordable."""
    group = PSL2(q)
    if group.table_fits():
        group.mult_table()
    return group


# -- subgroup machinery --------------------------------------------------------

def mask_from(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_elements(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_array(mask: int, n: int) -> np.ndarray:
    """A mask over n elements as a boolean array: entry i is bit i."""
    data = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=n, bitorder="little").view(bool)


def closure(group: PSL2, gens, limit: int | None = None) -> int:
    """Subgroup generated by gens, as a bitmask.  Aborts past limit."""
    seen = {group.identity}
    frontier = [group.identity]
    gens = list(gens)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if limit is not None and len(seen) > limit:
                        raise ValueError("closure exceeded limit")
        frontier = new
    return mask_from(seen)


def is_subgroup(group: PSL2, mask: int) -> bool:
    els = mask_elements(mask)
    if group.identity not in els:
        return False
    els_set = set(els)
    for a in els:
        if group.inv(a) not in els_set:
            return False
        for b in els:
            if group.mul(a, b) not in els_set:
                return False
    return True


def cyclic_subgroup(group: PSL2, g: int) -> int:
    mask = 1 << group.identity
    x = g
    while x != group.identity:
        mask |= 1 << x
        x = group.mul(x, g)
    return mask


def unipotent_subgroup(group: PSL2) -> int:
    """The subgroup {[[1,b],[0,1]]}, a Sylow p-subgroup of order q."""
    return mask_from(group.index[group.canonical((1, b, 0, 1))] for b in range(group.q))


def element_of_order(group: PSL2, n: int) -> int | None:
    for i, o in enumerate(group.orders()):
        if o == n:
            return i
    return None


def torus_orders(group: PSL2) -> tuple[int, int]:
    """Orders of the split and nonsplit maximal tori images in PSL(2,q)."""
    q = group.q
    k = 2 if q % 2 else 1
    return (q - 1) // k, (q + 1) // k


def dihedral_subgroup(group: PSL2, n: int) -> int | None:
    """A subgroup <h, j> with h of order n and j an involution inverting h."""
    h = element_of_order(group, n)
    if h is None:
        return None
    hinv = group.inv(h)
    for j, o in enumerate(group.orders()):
        if o == 2 and group.conj(h, j) == hinv:
            return closure(group, [h, j], limit=4 * n)
    return None


def sylow_subgroup(group: PSL2, r: int) -> int | None:
    """A Sylow r-subgroup, or None when r does not divide |T|."""
    n = group.order
    if n % r:
        return None
    p = group.field.p
    if r == p:
        return unipotent_subgroup(group)
    rpart = 1
    while n % (rpart * r) == 0:
        rpart *= r
    m1, m2 = torus_orders(group)
    for m in (m1, m2):
        tr = 1
        while m % (tr * r) == 0:
            tr *= r
        if tr == rpart:
            h = group.pow(element_of_order(group, m), m // tr)
            return cyclic_subgroup(group, h)
    # 2-part split between a torus and the inverting involution
    assert r == 2
    for m in (m1, m2) if m1 % 2 == 0 or m2 % 2 == 0 else ():
        if m % 2:
            continue
        tr = 1
        while m % (tr * 2) == 0:
            tr *= 2
        if tr * 2 == rpart:
            h = group.pow(element_of_order(group, m), m // tr)
            sub = _extend_by_inverting_involution(group, h, rpart)
            if sub is not None:
                return sub
    return None


def _extend_by_inverting_involution(group: PSL2, h: int, target: int) -> int | None:
    hinv = group.inv(h)
    for j, o in enumerate(group.orders()):
        if o == 2 and group.conj(h, j) == hinv:
            sub = closure(group, [h, j], limit=4 * target)
            if sub.bit_count() == target:
                return sub
    return None


def alternating_type_subgroup(group: PSL2, kind: str) -> int | None:
    """Search a subgroup isomorphic to A4, S4 or A5 via (2,3,k) generation."""
    target_k, size = {"A4": (3, 12), "S4": (4, 24), "A5": (5, 60)}[kind]
    orders = group.orders()
    involutions = [i for i, o in enumerate(orders) if o == 2]
    threes = [i for i, o in enumerate(orders) if o == 3]
    for j in involutions[:60]:
        for g in threes[:200]:
            if orders[group.mul(j, g)] == target_k:
                try:
                    sub = closure(group, [j, g], limit=2 * size)
                except ValueError:
                    continue
                if sub.bit_count() == size:
                    return sub
    return None


def borel_subgroup(group: PSL2) -> int:
    """Stabilizer of the point at infinity: upper triangular matrices mod sign."""
    return group.point_stabilizer(group.q)


def stabilizer_torus_element(group: PSL2) -> int:
    """An element generating the cyclic top of the Borel subgroup."""
    m1, _ = torus_orders(group)
    borel = borel_subgroup(group)
    for i in mask_elements(borel):
        if group.element_order(i) == m1:
            return i
    raise AssertionError("Borel subgroup lacks a full torus element")


def subgroup_library(group: PSL2) -> tuple[int, ...]:
    """The subgroups behind the factorisation witnesses and the clique seeds.

    The Borel subgroup, the unipotent subgroup extended by each power of a
    torus element of the Borel, one Sylow subgroup per prime, one cyclic
    subgroup per element order, one dihedral subgroup per element order > 2
    and A4, S4, A5 where they exist; largest first, ties by mask.  Cached on
    the group.
    """
    cached = getattr(group, "_subgroup_library", None)
    if cached is not None:
        return cached
    subs = {borel_subgroup(group)}
    torus = stabilizer_torus_element(group)
    m1 = group.element_order(torus)
    uni = mask_elements(unipotent_subgroup(group))
    for k in range(1, m1 + 1):
        if m1 % k == 0:
            subs.add(closure(group, uni + [group.pow(torus, m1 // k)]))
    n = group.order
    for r in range(2, n + 1):
        if n % r == 0:      # r is prime: every smaller prime is divided out
            subs.add(sylow_subgroup(group, r))
            while n % r == 0:
                n //= r
    for m in sorted(set(group.orders()) - {1}):
        subs.add(cyclic_subgroup(group, element_of_order(group, m)))
        if m > 2:
            subs.add(dihedral_subgroup(group, m))
    subs.update(alternating_type_subgroup(group, kind) for kind in ("A4", "S4", "A5"))
    subs.discard(None)
    group._subgroup_library = tuple(sorted(subs, key=lambda mask: (-mask.bit_count(), mask)))
    return group._subgroup_library
