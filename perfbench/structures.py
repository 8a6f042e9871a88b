"""Structure documents built from first principles, independent of huliu.

Every input the benchmark hands to the CLI is built here: products of
cyclic rings Z_a1 x ... x Z_ar, unital homs between them, and the null
left action A ⋉ B on the carrier A ⊕ B with (a,b)·(a',b') = (aa', φ(a)b').
Documents are plain dicts in the huliu JSON schema; a seeded permutation
that fixes index 0 relabels them so that no two tasks share tables.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


def omega(n: int) -> int:
    """Number of distinct prime divisors of n."""
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (1 if n > 1 else 0)


def digits(x: int, factors: tuple[int, ...]) -> list[int]:
    """Mixed-radix digits of x, first factor fastest."""
    out = []
    for f in factors:
        x, r = divmod(x, f)
        out.append(r)
    return out


def index(parts: list[int], factors: tuple[int, ...]) -> int:
    """Inverse of `digits`."""
    x = 0
    for d, f in zip(reversed(parts), reversed(factors)):
        x = x * f + d
    return x


def _ring_name(factors: tuple[int, ...]) -> str:
    if len(set(factors)) == 1 and len(factors) > 1:
        return f"Z{factors[0]}^{len(factors)}"
    return "x".join(f"Z{f}" for f in factors)


@dataclass(frozen=True)
class NullSpec:
    """null(A, B, φ) with A, B products of cyclic rings.

    `src[j]` names the factor of A that feeds factor j of B, so
    φ(a)_j = a_src[j] mod b_j; it is a unital ring hom when b_j | a_src[j].
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    src: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.src) != len(self.b):
            raise ValueError("one source factor per factor of B")
        for j, i in enumerate(self.src):
            if self.a[i] % self.b[j]:
                raise ValueError(f"Z{self.b[j]} is not a quotient of Z{self.a[i]}")

    @property
    def name(self) -> str:
        phi = ",".join(str(i) for i in self.src)
        return f"null({_ring_name(self.a)},{_ring_name(self.b)},{phi})"

    @property
    def order(self) -> int:
        n = 1
        for f in self.a + self.b:
            n *= f
        return n

    def spectrum_size(self) -> int:
        """|Spec A| + |Spec B|: the primes of a product of Z_m are the
        primes of its factors, and Z_m has one per prime divisor of m."""
        return sum(omega(f) for f in self.a) + sum(omega(f) for f in self.b)


def null_document(spec: NullSpec) -> dict:
    """Tables of the null construction; element (a, b) has index a + |A|·b."""
    na = 1
    for f in spec.a:
        na *= f
    nb = spec.order // na
    n = na * nb
    a_dig = [digits(x, spec.a) for x in range(na)]
    b_dig = [digits(y, spec.b) for y in range(nb)]
    phi = [
        index([a_dig[x][i] % spec.b[j] for j, i in enumerate(spec.src)], spec.b)
        for x in range(na)
    ]

    def a_op(x: int, y: int, op) -> int:
        return index([op(p, q) % f for p, q, f in zip(a_dig[x], a_dig[y], spec.a)], spec.a)

    def b_op(x: int, y: int, op) -> int:
        return index([op(p, q) % f for p, q, f in zip(b_dig[x], b_dig[y], spec.b)], spec.b)

    a_add = [[a_op(x, y, int.__add__) for y in range(na)] for x in range(na)]
    a_mul = [[a_op(x, y, int.__mul__) for y in range(na)] for x in range(na)]
    b_add = [[b_op(x, y, int.__add__) for y in range(nb)] for x in range(nb)]
    b_mul = [[b_op(x, y, int.__mul__) for y in range(nb)] for x in range(nb)]

    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    loc: list[list[int | None]] = [[None] * n for _ in range(n)]
    for u in range(n):
        ua, ub = u % na, u // na
        for v in range(n):
            va, vb = v % na, v // na
            add[u][v] = a_add[ua][va] + na * b_add[ub][vb]
            mul[u][v] = a_mul[ua][va] + na * b_mul[phi[ua]][vb]
            if ua == 0 and va == 0:
                loc[u][v] = na * b_mul[ub][vb]
    one = index([1 % f for f in spec.a], spec.a)
    return {
        "kind": "lcrng",
        "order": n,
        "add": add,
        "mul": mul,
        "local_mul": loc,
        "left_identity": one,
        "name": spec.name,
    }


def bridge_document(doc: dict) -> dict:
    """The induced Hu-Liu ring: σ = e, x⇀y = y·x, x↼y = x·y and
    x•y = xy + yx - (yx)e, computed straight from the tables."""
    n, add, mul, e = doc["order"], doc["add"], doc["mul"], doc["left_identity"]
    neg = [row.index(0) for row in add]
    bullet = [
        [add[mul[x][y]][add[mul[y][x]][neg[mul[mul[y][x]][e]]]] for y in range(n)]
        for x in range(n)
    ]
    out = {
        "kind": "hlring",
        "order": n,
        "add": add,
        "bullet": bullet,
        "rarrow": [[mul[y][x] for y in range(n)] for x in range(n)],
        "larrow": [list(row) for row in mul],
        "identity": e,
    }
    if doc.get("name"):
        out["name"] = f"hl({doc['name']})"
    return out


TABLE_KEYS = ("add", "mul", "local_mul", "bullet", "rarrow", "larrow")
INDEX_KEYS = ("left_identity", "identity", "one")


def random_relabeling(rng: random.Random, n: int) -> list[int]:
    """σ as a list: element x gets the new index σ[x]; σ[0] = 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel(doc: dict, sigma: list[int]) -> dict:
    """The same structure with element x renamed σ[x] in every table."""
    n = doc["order"]
    out = dict(doc)
    for key in TABLE_KEYS:
        if key not in doc:
            continue
        table = doc[key]
        new: list[list[int | None]] = [[None] * n for _ in range(n)]
        for x in range(n):
            sx, row = sigma[x], table[x]
            target = new[sx]
            for y in range(n):
                v = row[y]
                target[sigma[y]] = None if v is None else sigma[v]
        out[key] = new
    for key in INDEX_KEYS:
        if key in doc:
            out[key] = sigma[doc[key]]
    return out


def dumps(doc: dict) -> str:
    """One table row per line, sorted keys: the layout huliu itself emits."""
    lines = ["{"]
    keys = sorted(doc)
    for k, key in enumerate(keys):
        comma = "," if k < len(keys) - 1 else ""
        value = doc[key]
        if isinstance(value, list):
            lines.append(f' "{key}": [')
            lines.extend(
                "  " + json.dumps(row) + ("," if r < len(value) - 1 else "")
                for r, row in enumerate(value)
            )
            lines.append(f" ]{comma}")
        else:
            lines.append(f' "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"
