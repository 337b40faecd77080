"""PSL(2,q): exact construction, dense element indices, conjugacy data and
the maps of the Cayley graphs that fix the identity vertex.

Elements are 2x2 determinant-one matrices over GF(q) modulo sign, held as
four entry arrays a, b, c, d of field-element encodings (``entries``).  Of
the pair {M, -M} the array holds the one whose first nonzero entry in scan
order (a, b, c, d) has the smaller integer encoding than its negative; for
even q the pair is a singleton.  The dense index of an element is its rank
in the lexicographic order of these 4-tuples, so indices are reproducible
and appear as-is in exported certificates.  One lookup maps the entries of
either sign of a matrix to its index.  Products come from vectorized field
arithmetic; for small q the full multiplication table is built from the
generators' rows alone, every other row a gather of a known one.

The conjugacy classes come from one array pass that keys every element by
its trace up to sign, with a key of its own for the identity.  This is
sound: M ~ -M in PSL; the GL-class of a non-central semisimple element is
fixed by its trace and does not split in SL, as its torus centralizer has
surjective determinant; the unipotent class splits in SL at odd q, by the
square class of -b (of c where b = 0) at trace 2.  Element orders and the
power-map (rational) fusion of the classes both come from powers(), one walk
per representative that the fusion reads again rather than repeats.  This
module owns the one label rule for classes and fusion orbits: the element
order, with letters A, B, ..., Z, AA, ... when several classes share it, and
the bare order for an orbit that holds every class of its order.  The fusion
orbits are the relations of the fused scheme, and ``label_sort_key`` puts
the labels of one order in class order.

The vertex maps beyond inner conjugation and inversion are in
``outer_maps``, and ``orbits`` splits a vertex set into the orbits of a
group of vertex maps.

An element set is a numpy array: a subgroup is its ascending array of element
indices, a vertex set a boolean array over the elements.  Python-int bitsets
live only inside the two bit-parallel searches (``search._bb_max_clique`` and
``witnesses.find_sharply_transitive_set``), and ``mask_elements`` walks their bits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .gf import field_for_order

# full multiplication tables are built only below this group order
TABLE_LIMIT = 3000
# products per block of an outer product, so temporaries stay small
_BLOCK = 1 << 15


@dataclass
class ConjugacyClass:
    id: int
    label: str
    element_order: int
    rep: int
    size: int
    inverse_class: int = -1
    fusion_orbit: int = -1


@dataclass
class FusionOrbit:
    id: int
    label: str
    element_order: int
    class_ids: tuple[int, ...]
    size: int


def label_sort_key(label: str):
    """Order class and orbit labels ("13", "7A", "19AA") by element order, then
    length, then text: the labels of one element order sort in class order."""
    digits = "".join(ch for ch in label if ch.isdigit())
    return (int(digits), len(label), label)


def _letters(k: int) -> str:
    """The k-th letter suffix from 0: A, ..., Z, AA, AB, ..., AZ, BA, ..."""
    out = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        out = chr(ord("A") + r) + out
    return out


class PSL2:
    """The group T = PSL(2,q) with the natural projective-line action."""

    def __init__(self, q: int):
        field = field_for_order(q)
        if q < 4:
            raise ValueError("q must be a prime power >= 4")
        self.q = q
        self.field = field
        # the entry arrays a, b, c, d of every element, in index order
        self.entries = self._enumerate().astype(np.int32)
        self.order = self.entries.shape[1]
        expected = q * (q * q - 1) // (2 if q % 2 else 1)
        if self.order != expected:
            raise AssertionError(f"enumerated {self.order} elements, expected {expected}")
        self._pack = self._build_pack()
        self.identity = int(self.lookup(1, 0, 0, 1))
        self._table: np.ndarray | None = None
        self._inverses: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._classes: list[ConjugacyClass] | None = None
        self._fusion: list[FusionOrbit] | None = None
        self._arith_arrays: tuple | None = None

    # -- construction --------------------------------------------------------

    def _enumerate(self) -> np.ndarray:
        """The entry arrays a, b, c, d of every element, in lexicographic order.

        Of M and -M the one kept has the first nonzero entry of smaller
        encoding than its negative.  Rows with a != 0 have d = (1 + b c) / a;
        rows with a = 0 have c = -1/b and any d.
        """
        f, q = self.field, self.q
        add, mul = np.array(f.add_table), np.array(f.mul_table)
        neg, inv = np.array(f.neg_table), np.array(f.inv_table)
        x = np.arange(q)
        a, b, c = (g.ravel() for g in np.meshgrid(x[1:], x, x, indexing="ij"))
        b0, d0 = (g.ravel() for g in np.meshgrid(x[1:], x, indexing="ij"))
        ent = np.concatenate([[a, b, c, mul[inv[a], add[1, mul[b, c]]]],
                              [np.zeros_like(b0), b0, neg[inv[b0]], d0]], axis=1)
        lead = np.where(ent[0] != 0, ent[0], ent[1])    # the first nonzero entry
        flip = neg[lead] < lead                         # the negative is smaller
        ent[:, flip] = neg[ent[:, flip]]
        keys = np.unique(((ent[0] * q + ent[1]) * q + ent[2]) * q + ent[3])
        return np.stack([keys // q ** 3, keys // q ** 2 % q, keys // q % q, keys % q])

    def _build_pack(self) -> np.ndarray:
        """Element index by matrix key ((a*q + b)*q + c)*q + d.

        Both M and -M map to the index, so products need no sign rule; other
        keys hold a value past the last index.  The keys stay below
        MAX_Q^4 < 2^31.
        """
        q = self.q
        dtype = np.uint16 if self.order < 1 << 16 else np.int32
        pack = np.full(q ** 4, np.iinfo(dtype).max, dtype=dtype)
        idx = np.arange(self.order, dtype=dtype)
        for a, b, c, d in (self.entries, np.array(self.field.neg_table)[self.entries]):
            pack[((a * q + b) * q + c) * q + d] = idx
        return pack

    def lookup(self, a, b, c, d) -> np.ndarray:
        """Element indices of the matrices [[a, b], [c, d]] of determinant one,
        from broadcast entry arrays; either sign of a matrix gives its index."""
        q = self.q
        key = np.asarray(a, dtype=np.int32)
        return self._pack[((key * q + b) * q + c) * q + d]

    # -- arithmetic ----------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        f, q = self.field, self.q
        a1, b1, c1, d1 = self.entries[:, i].tolist()
        a2, b2, c2, d2 = self.entries[:, j].tolist()
        # the pack maps M and -M alike, so the product needs no sign rule
        a = f.add(f.mul(a1, a2), f.mul(b1, c2))
        b = f.add(f.mul(a1, b2), f.mul(b1, d2))
        c = f.add(f.mul(c1, a2), f.mul(d1, c2))
        d = f.add(f.mul(c1, b2), f.mul(d1, d2))
        return int(self._pack[((a * q + b) * q + c) * q + d])

    def inv(self, i: int) -> int:
        return int(self.inverses()[i])

    def inverses(self) -> np.ndarray:
        """Index of the inverse of every element: [[a, b], [c, d]] -> [[d, -b], [-c, a]]."""
        if self._inverses is None:
            a, b, c, d = self.entries
            neg = np.array(self.field.neg_table)
            self._inverses = self.lookup(d, neg[b], neg[c], a)
        return self._inverses

    def powers(self, g: int) -> list[int]:
        """[e, g, g^2, ..., g^(n-1)] for g of order n."""
        out = [self.identity]
        x = g
        while x != self.identity:
            out.append(x)
            x = self.mul(x, g)
        return out

    def element_order(self, i: int) -> int:
        return int(self.orders()[i])

    def orders(self) -> np.ndarray:
        """The order of every element, read from its class (read-only)."""
        if self._orders is None:
            order_of_class = np.array([c.element_order for c in self.conjugacy_classes()])
            self._orders = order_of_class[self._class_of]
            self._orders.flags.writeable = False
        return self._orders

    def table_fits(self) -> bool:
        """Whether the full multiplication table is affordable at this order."""
        return self.order <= TABLE_LIMIT

    def mult_table(self) -> np.ndarray:
        """Full N x N multiplication table, row x holding the products x*y
        (built lazily; small q only).

        Only the generators' rows come from field arithmetic.  The others
        are gathers, filled breadth-first from the identity's row: (x g) y =
        x (g y), so row(x g) = row(x)[row(g)], one gather per generator per
        layer.  Right multiplication by g is injective, so the children of
        one generator are distinct.
        """
        if self._table is None:
            if not self.table_fits():
                raise ValueError(f"group of order {self.order} exceeds table limit")
            gens = self.generators()
            gen_rows = self.mul_outer(gens, np.arange(self.order))
            table = np.empty_like(gen_rows, shape=(self.order, self.order))
            table[self.identity] = np.arange(self.order)
            seen = np.zeros(self.order, dtype=bool)
            seen[self.identity] = True
            frontier = np.array([self.identity])
            while len(frontier):
                layer = []
                for g, row in zip(gens, gen_rows):
                    children = table[frontier, g]
                    fresh = ~seen[children]
                    children = children[fresh]
                    seen[children] = True
                    table[children] = table[frontier[fresh]][:, row]
                    layer.append(children)
                frontier = np.concatenate(layer)
            if not seen.all():
                raise ValueError(f"the generators reach {seen.sum()} of {self.order} elements")
            self._table = table
        return self._table

    def _arith(self) -> tuple:
        """Arrays behind the vectorized products and the point action.

        dot[((x1*q + y1)*q + x2)*q + y2] = x1*x2 + y1*y2 in GF(q).  For every
        element [[a, b], [c, d]] the offsets of its rows (a, b), (c, d) as a
        left factor and of its columns (a, c), (b, d) as a right factor add
        up to the dot-table index of each entry of a product.
        """
        if self._arith_arrays is None:
            f, q = self.field, self.q
            narrow = np.min_scalar_type(q - 1)
            add = np.array(f.add_table, dtype=narrow)
            mul = np.array(f.mul_table, dtype=narrow)
            dot = add[mul[:, None, :, None], mul[None, :, None, :]].ravel()
            a, b, c, d = self.entries
            left = ((a * q + b) * q * q, (c * q + d) * q * q)
            right = (a * q + c, b * q + d)
            finv = np.array(f.inv_table, dtype=np.int32)
            self._arith_arrays = (dot, left, right, finv)
        return self._arith_arrays

    def mul_pairs(self, i, j) -> np.ndarray:
        """Products i[k] * j[k] over two broadcast index arrays.

        Gathered from the multiplication table when it exists, else computed
        by vectorized field arithmetic (see _arith).
        """
        if self._table is not None:
            return self._table[i, j]
        dot, (ab, cd), (ac, bd), _ = self._arith()
        ab, cd, ac, bd = ab[i], cd[i], ac[j], bd[j]
        return self.lookup(dot[ab + ac], dot[ab + bd], dot[cd + ac], dot[cd + bd])

    def product_blocks(self, xs, ys):
        """The products x*y for x in xs and y in ys, in blocks of whole rows.

        Yields (start, block) with block[r, k] = xs[start + r] * ys[k]; a block
        holds about _BLOCK products, so no temporary grows with len(xs).
        """
        xs = np.asarray(xs, dtype=np.intp)
        ys = np.asarray(ys, dtype=np.intp)
        step = max(1, _BLOCK // max(1, len(ys)))
        for start in range(0, len(xs), step):
            yield start, self.mul_pairs(xs[start:start + step, None], ys[None, :])

    def mul_outer(self, xs, ys) -> np.ndarray:
        """The array of products x*y, one row per x in xs, one column per y in ys."""
        out = np.empty((len(xs), len(ys)), dtype=self._pack.dtype)
        for start, block in self.product_blocks(xs, ys):
            out[start:start + len(block)] = block
        return out

    def mul_rows(self, idx) -> np.ndarray:
        """Products x*j for each x in idx and every j, one row per x."""
        if self._table is not None:
            return self._table[np.asarray(idx, dtype=np.intp)]
        return self.mul_outer(idx, np.arange(self.order))

    def conjugate(self, x, g) -> np.ndarray:
        """The conjugates g^-1 x g over two broadcast index arrays."""
        return self.mul_pairs(self.mul_pairs(self.inverses()[g], x), g)

    # -- generators and conjugacy ---------------------------------------------

    def generators(self) -> list[int]:
        f = self.field
        mats = [(1, 1, 0, 1), (0, 1, f.neg(1), 0)]
        if f.e > 1:
            mats.insert(1, (1, f.generator(), 0, 1))
        return self.lookup(*np.array(mats).T).tolist()

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def _compute_classes(self) -> None:
        f, q = self.field, self.q
        add, neg = np.array(f.add_table), np.array(f.neg_table)
        a, b, c, d = self.entries
        trace = add[a, d]
        key = np.minimum(trace, neg[trace])         # the trace up to sign
        if q % 2:
            # unipotent: the square class of -b (c where b = 0) of the trace-2 sign
            two = add[1, 1]
            x = np.where(b != 0, b, neg[c])         # that quantity at trace -2
            x = np.where(trace == two, neg[x], x)
            nonsquare = ~np.isin(np.arange(q), list(f.squares()))
            key[(key == min(two, neg[two])) & nonsquare[x]] = q + 1
        key[self.identity] = q
        _, reps, class_of = np.unique(key, return_index=True, return_inverse=True)
        reps = reps.tolist()                        # each class's least member
        # deterministic order: by (element order, smallest member index)
        walks = [self.powers(rep) for rep in reps]
        keyed = sorted(range(len(reps)), key=lambda c: (len(walks[c]), reps[c]))
        class_of = np.argsort(keyed).astype(np.int32)[class_of]     # old id -> new id
        class_of.flags.writeable = False
        sizes = np.bincount(class_of).tolist()
        classes = [ConjugacyClass(id=new_id, label="", element_order=len(walks[old_id]),
                                  rep=reps[old_id], size=sizes[new_id])
                   for new_id, old_id in enumerate(keyed)]
        # labels: order, plus letters A..Z, AA, AB, ... when several classes
        # share the order
        by_order: dict[int, list[ConjugacyClass]] = {}
        for c in classes:
            by_order.setdefault(c.element_order, []).append(c)
        for order_val, group in by_order.items():
            if len(group) == 1:
                group[0].label = str(order_val)
            else:
                for k, c in enumerate(group):
                    c.label = f"{order_val}{_letters(k)}"
        self._class_of = class_of
        for c in classes:
            c.inverse_class = int(class_of[self.inv(c.rep)])
        self._classes = classes
        self._compute_fusion([walks[old_id] for old_id in keyed])

    def _compute_fusion(self, walks: list[list[int]]) -> None:
        """The fused class of c is {class of rep^k : gcd(k, n) = 1}, n = |rep|,
        read from walks[c], the powers of c's rep that gave its order.

        It is labelled by the element order when it holds every class of that
        order, and otherwise by its one class's label: power maps fuse all
        classes of each order except the two unipotent classes when q is an
        even power of an odd prime.
        """
        classes = self._classes
        per_order = Counter(c.element_order for c in classes)
        orbits: list[FusionOrbit] = []
        for c in classes:
            if c.fusion_orbit >= 0:
                continue
            n = c.element_order
            powers = self._class_of[walks[c.id]]
            ids = tuple(sorted({int(powers[k]) for k in range(n) if gcd(k, n) == 1}))
            label = str(n) if len(ids) == per_order[n] else c.label
            for i in ids:
                classes[i].fusion_orbit = len(orbits)
            orbits.append(FusionOrbit(len(orbits), label, n, ids,
                                      sum(classes[i].size for i in ids)))
        self._fusion = orbits

    def fusion_orbits(self) -> list[FusionOrbit]:
        if self._fusion is None:
            self._compute_classes()
        return self._fusion

    def class_of(self, i: int) -> int:
        return int(self.class_of_array()[i])

    def class_of_array(self) -> np.ndarray:
        """The class id of every element (read-only)."""
        if self._classes is None:
            self._compute_classes()
        return self._class_of

    # -- projective line -------------------------------------------------------

    def act_point(self, i: int, pt_idx: int) -> int:
        """Right action on the projective line: the image of the point under i.

        Row-vector convention, so act(x*y, p) == act(y, act(x, p)).
        """
        f = self.field
        a, b, c, d = self.entries[:, i].tolist()
        if pt_idx == self.q:
            u, v = 1, 0
        else:
            u, v = pt_idx, 1
        z = f.add(f.mul(u, a), f.mul(v, c))
        w = f.add(f.mul(u, b), f.mul(v, d))
        if w == 0:
            return self.q
        return f.mul(z, f.inv(w))

    def act_points(self, pt_idx: int) -> np.ndarray:
        """The image of the point under every element, by vectorized arithmetic."""
        dot, _, (ac, bd), finv = self._arith()
        q = self.q
        u, v = (1, 0) if pt_idx == q else (pt_idx, 1)
        row = (u * q + v) * q * q
        z = dot[row + ac].astype(ac.dtype)          # u*a + v*c
        w = dot[row + bd]                           # u*b + v*d
        image = dot[z * q ** 3 + finv[w] * q].astype(ac.dtype)     # z / w
        image[w == 0] = q
        return image

    def point_stabilizer(self, pt_idx: int) -> np.ndarray:
        """The stabilizer of a projective point."""
        return np.flatnonzero(self.act_points(pt_idx) == pt_idx)

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"PSL(2,{self.q}) of order {self.order}"


@lru_cache(maxsize=None)
def build_group(q: int) -> PSL2:
    """PSL(2,q) with its products built: the full table when affordable, else the arrays."""
    group = PSL2(q)
    if group.table_fits():
        group.mult_table()
    else:
        group._arith()
    return group


# -- subgroup machinery --------------------------------------------------------

def mask_elements(mask: int) -> list[int]:
    """The set bits of an int bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- vertex maps that fix the identity -------------------------------------------

def outer_maps(group: PSL2) -> list[tuple[str, np.ndarray]]:
    """The outer automorphisms beside conjugation, as (name, vertex map) pairs.

    The field automorphism x -> x^p on every entry when q is not prime, then
    conjugation by diag(nu, 1) for the least non-square nu (a PGL map) when
    q is odd.
    """
    f = group.field
    a, b, c, d = group.entries
    maps = []
    if f.e > 1:
        frob = np.array([f.pow(x, f.p) for x in f.elements()])
        maps.append(("field automorphisms", group.lookup(*frob[group.entries])))
    if f.q % 2:
        squares = f.squares()
        nu = next(z for z in range(1, f.q) if z not in squares)
        mul = np.array(f.mul_table)
        maps.append(("diagonal outer", group.lookup(a, mul[b, f.inv(nu)], mul[c, nu], d)))
    return maps


def orbits(maps: np.ndarray, members: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The orbits of a group of vertex maps on a vertex set, least vertex first.

    Row k of maps is the k-th element of the group as a map on vertices.
    The rows are the whole group, so the orbit of v is the column maps[:, v].
    The set and each orbit are boolean vertex arrays.  Returns (least vertex,
    orbit) pairs, each orbit cut to the set.
    """
    out = []
    remaining = members.copy()
    while remaining.any():
        v = int(remaining.argmax())
        orbit = np.zeros_like(members)
        orbit[maps[:, v]] = True
        orbit &= members
        out.append((v, orbit))
        remaining &= ~orbit
    return out


def closure(group: PSL2, gens, limit: int | None = None) -> np.ndarray:
    """Subgroup generated by gens.  Aborts past limit."""
    gens = np.asarray(list(gens), dtype=np.intp)
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    count = 1
    while len(frontier):
        new = np.unique(group.mul_outer(frontier, gens))
        frontier = new[~seen[new]]
        seen[frontier] = True
        count += len(frontier)
        if limit is not None and count > limit:
            raise ValueError("closure exceeded limit")
    return np.flatnonzero(seen)


def is_subgroup(group: PSL2, els: np.ndarray) -> bool:
    """Whether the element array holds the identity, every inverse and every product.

    Decided by a generated closure, not by all |H|^2 products.  The least
    element g not yet generated becomes a new generator, with its repeated
    squares g^2, g^4, ... up to the first one generated already, so a cyclic
    part takes about log of its order layers rather than its order.  The
    generated set grows by right multiplication: the old set, closed under
    the old generators, times the new ones only, then each new frontier
    times every generator.  In a finite group that walk from the identity
    reaches exactly the subgroup the generators make.  Every generator is a
    product of members, so one outside the set, or a product outside it,
    shows the set is not closed; once no element is missing and nothing
    escaped, the set is the subgroup it generates.  Each g at least doubles
    the generated subgroup, and each generated element is multiplied by
    every generator once.
    """
    n = group.order
    if ((els < 0) | (els >= n)).any():
        return False
    member = np.zeros(n, dtype=bool)
    member[els] = True
    if not member[group.identity]:
        return False
    if not member[group.inverses()[els]].all():
        return False
    seen = np.zeros(n, dtype=bool)
    seen[group.identity] = True
    gens: list[int] = []
    while (missing := np.flatnonzero(member & ~seen)).size:
        new = [int(missing[0])]
        while not seen[power := int(group.mul_pairs(new[-1], new[-1]))] and power not in new:
            if not member[power]:
                return False
            new.append(power)
        gens += new
        products = group.mul_outer(np.flatnonzero(seen), new).ravel()
        while products.size:
            if not member[products].all():
                return False
            frontier = np.unique(products[~seen[products]])
            seen[frontier] = True
            products = group.mul_outer(frontier, gens).ravel()
    return True


def cyclic_subgroup(group: PSL2, g: int) -> np.ndarray:
    return np.sort(np.array(group.powers(g), dtype=np.intp))


def unipotent_subgroup(group: PSL2) -> np.ndarray:
    """The subgroup {[[1,b],[0,1]]}, a Sylow p-subgroup of order q."""
    return np.sort(group.lookup(1, np.arange(group.q), 0, 1).astype(np.intp))


def element_of_order(group: PSL2, n: int) -> int | None:
    """The least element of order n, or None."""
    hits = np.flatnonzero(group.orders() == n)
    return int(hits[0]) if len(hits) else None


def torus_orders(group: PSL2) -> tuple[int, int]:
    """Orders of the split and nonsplit maximal tori images in PSL(2,q)."""
    q = group.q
    k = 2 if q % 2 else 1
    return (q - 1) // k, (q + 1) // k


def _with_involution(group: PSL2, cyclic: np.ndarray, j: int) -> np.ndarray:
    """The subgroup <C, j> = C u C j, ascending, for an involution j that
    normalizes the cyclic subgroup C."""
    return np.union1d(cyclic, group.mul_pairs(cyclic, j).astype(np.intp))


def dihedral_subgroup(group: PSL2, n: int) -> np.ndarray | None:
    """The subgroup <h, j> for h the least element of order n and j the least
    involution inverting h.

    j normalizes C = <h>, so <h, j> = C u C j, built without a closure walk:
    for n > 2, j lies outside the abelian C and <h, j> is dihedral of order 2n.
    """
    h = element_of_order(group, n)
    return None if h is None else _dihedral(group, h, cyclic_subgroup(group, h))


def _dihedral(group: PSL2, h: int, cyclic: np.ndarray) -> np.ndarray | None:
    """<h, j> for the cyclic subgroup C = <h> and the least involution j inverting h."""
    js = _inverting_involutions(group, h)
    return _with_involution(group, cyclic, int(js[0])) if len(js) else None


def _inverting_involutions(group: PSL2, h: int) -> np.ndarray:
    """The involutions j with j^-1 h j = h^-1, ascending: those with (j h)^2 = e."""
    js = np.flatnonzero(group.orders() == 2)
    return js[group.orders()[group.mul_pairs(js, h)] <= 2]


def sylow_subgroup(group: PSL2, r: int) -> np.ndarray | None:
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
            h = group.powers(element_of_order(group, m))[m // tr]
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
            h = group.powers(element_of_order(group, m))[m // tr]
            sub = _extend_by_inverting_involution(group, h, rpart)
            if sub is not None:
                return sub
    return None


def _extend_by_inverting_involution(group: PSL2, h: int, target: int) -> np.ndarray | None:
    """The first <h, j> of the target order, j running over the involutions
    inverting h, each built as C u C j like a dihedral subgroup."""
    cyclic = cyclic_subgroup(group, h)
    for j in _inverting_involutions(group, h).tolist():
        sub = _with_involution(group, cyclic, j)
        if len(sub) == target:
            return sub
    return None


def _von_dyck_window(group: PSL2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first 60 involutions, every element of order 3, and the orders of
    the products of those involutions with the first 200 elements of order
    3, one row per involution; cached on the group for the three kinds."""
    window = getattr(group, "_von_dyck_window", None)
    if window is None:
        orders = group.orders()
        js = np.flatnonzero(orders == 2)[:60]
        gs = np.flatnonzero(orders == 3)
        window = group._von_dyck_window = (js, gs, orders[group.mul_outer(js, gs[:200])])
    return window


def alternating_type_subgroup(group: PSL2, kind: str) -> np.ndarray | None:
    """A subgroup isomorphic to A4, S4 or A5, or None.

    An involution j and an element g of order 3 whose product has order k =
    3, 4 or 5 satisfy the relations of the von Dyck group D(2,3,k), which is
    A4, S4 or A5, so <j, g> is a quotient of it with elements of orders 2, 3
    and k: the whole group, as A5 is simple, the proper quotients C3 and 1
    of A4 have no involution, and those of S4 (S3, C2, 1) no element of
    order 4.  The closure of each such pair, with its size test, builds and
    checks it.  The pairs are walked in (j, g) order over the first 60
    involutions and the first 200 elements of order 3; when that window has
    none, the first involution is tried against every element of order 3.
    That finds the subgroup wherever it exists: PSL(2,q) has one class of
    involutions, so some conjugate of the subgroup contains the first one.
    """
    target_k, size = {"A4": (3, 12), "S4": (4, 24), "A5": (5, 60)}[kind]
    js, gs, product_orders = _von_dyck_window(group)
    rows, cols = np.nonzero(product_orders == target_k)
    if len(rows):
        pairs = zip(js[rows].tolist(), gs[cols].tolist())
    else:
        row = group.orders()[group.mul_pairs(js[0], gs)]
        pairs = ((int(js[0]), g) for g in gs[row == target_k].tolist())
    for j, g in pairs:
        try:
            sub = closure(group, [j, g], limit=2 * size)
        except ValueError:
            continue
        if len(sub) == size:
            return sub
    return None


def borel_subgroup(group: PSL2) -> np.ndarray:
    """Stabilizer of the point at infinity: upper triangular matrices mod sign."""
    return group.point_stabilizer(group.q)


def stabilizer_torus_element(group: PSL2) -> int:
    """An element generating the cyclic top of the Borel subgroup."""
    m1, _ = torus_orders(group)
    borel = borel_subgroup(group)
    full = borel[group.orders()[borel] == m1]
    if not len(full):
        raise AssertionError("Borel subgroup lacks a full torus element")
    return int(full[0])


def distinct_sets(sets) -> list[np.ndarray]:
    """The distinct element arrays among sets, None skipped, in the order of
    their elements listed largest first: the order of the ints with those
    bits set."""
    unique = {s.tobytes(): s for s in sets if s is not None}
    return sorted(unique.values(), key=lambda s: s[::-1].tolist())


def subgroup_library(group: PSL2) -> tuple[np.ndarray, ...]:
    """The subgroups behind the factorisation witnesses and the clique seeds.

    The Borel subgroup, the unipotent subgroup extended by each power of a
    torus element of the Borel, one Sylow subgroup per prime, one cyclic
    subgroup per element order, one dihedral subgroup per element order > 2
    and A4, S4, A5 where they exist; largest first, ties in distinct_sets
    order.  Cached on the group.

    Each is built from its known structure (Dickson's list of the subgroups
    of PSL(2,q)) rather than by a closure walk, except A4, S4 and A5: the
    unipotent subgroup U is normal in the Borel, so U extended by a torus
    power s is the product set U <s>, one outer product; each dihedral
    subgroup, the 2-Sylow subgroup at odd q among them, is C u C j for a
    cyclic C and an involution j inverting its generator.
    """
    cached = getattr(group, "_subgroup_library", None)
    if cached is not None:
        return cached
    subs = [borel_subgroup(group)]
    torus = group.powers(stabilizer_torus_element(group))
    m1 = len(torus)
    uni = unipotent_subgroup(group)
    for k in range(1, m1 + 1):
        if m1 % k == 0:
            # <U, t^(m1/k)> = U <t^(m1/k)>, of order q k
            subs.append(np.sort(group.mul_outer(uni, torus[::m1 // k]).ravel()).astype(np.intp))
    n = group.order
    for r in range(2, n + 1):
        if n % r == 0:      # r is prime: every smaller prime is divided out
            subs.append(sylow_subgroup(group, r))
            while n % r == 0:
                n //= r
    for m in np.unique(group.orders())[1:].tolist():       # the orders > 1
        h = element_of_order(group, m)
        cyclic = cyclic_subgroup(group, h)
        subs += [cyclic, _dihedral(group, h, cyclic) if m > 2 else None]
    subs += [alternating_type_subgroup(group, kind) for kind in ("A4", "S4", "A5")]
    # a stable sort: sets of one size keep their distinct_sets order
    group._subgroup_library = tuple(sorted(distinct_sets(subs), key=len, reverse=True))
    return group._subgroup_library
