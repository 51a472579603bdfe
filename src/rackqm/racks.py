"""Finite racks and quandles presented by operation tables.

A rack is a set with a binary operation ``x <| y`` such that every right
translation ``psi_y : x -> x <| y`` is a bijection and the self-distributive
identity ``(x <| y) <| z = (x <| z) <| (y <| z)`` holds; a quandle further
satisfies ``x <| x = x``.  Everything here is a dense Cayley table over
element indices, which keeps axiom checks exhaustive and later linear
algebra exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = [
    "FiniteRack",
    "ComponentPartition",
    "GenerationResult",
    "GroupTable",
    "RackValidationError",
    "GroupValidationError",
    "validate_rack",
    "trivial_rack",
    "dihedral_quandle",
    "conjugation_rack",
    "cyclic_group",
    "symmetric_group",
    "components",
    "is_generating",
    "is_homomorphism",
    "rack_from_dict",
    "rack_to_dict",
    "load_rack",
    "builtin_racks",
]


class RackValidationError(ValueError):
    """A rack axiom failed; carries the axiom name and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple[int, ...], message: str):
        super().__init__(f"{axiom}: {message} (witness {witness})")
        self.axiom = axiom
        self.witness = witness


class GroupValidationError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteRack:
    """A validated finite rack: construct via :func:`validate_rack` or a builder."""

    name: str
    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    quandle: bool
    inverse_table: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def op(self, i: int, j: int) -> int:
        """``element_i <| element_j`` as an index."""
        return self.table[i][j]

    def inv_op(self, i: int, j: int) -> int:
        """``element_i <|^-1 element_j``: the unique k with ``k <| element_j = element_i``."""
        return self.inverse_table[i][j]

    def label(self, i: int) -> str:
        return self.elements[i]


def validate_rack(
    table: Sequence[Sequence[int]],
    elements: Sequence[str] | None = None,
    name: str = "rack",
    kind_claim: str = "rack",
) -> FiniteRack:
    """Exhaustively check the rack axioms and return the validated rack.

    The first violated axiom is reported with a witness: ``bijectivity``
    with a column and colliding pair, ``self-distributivity`` with a triple,
    ``idempotence`` (only when ``kind_claim == "quandle"``) with the fixed
    point that fails.  The result is flagged as a quandle whenever the
    diagonal is fixed, regardless of the claim.
    """
    n = len(table)
    if n == 0:
        raise RackValidationError("shape", (), "empty table")
    rows = [tuple(row) for row in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise RackValidationError("shape", (i,), f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise RackValidationError("shape", (i, j), f"entry {v!r} out of range")

    # axiom 2: each column map psi_j is a permutation
    inverse_cols: list[list[int]] = [[-1] * n for _ in range(n)]
    for j in range(n):
        seen: dict[int, int] = {}
        for i in range(n):
            v = rows[i][j]
            if v in seen:
                raise RackValidationError(
                    "bijectivity", (seen[v], i, j),
                    f"column {j} maps both {seen[v]} and {i} to {v}",
                )
            seen[v] = i
            inverse_cols[v][j] = i

    # axiom 1: self-distributivity over all triples
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[rows[x][z]][rows[y][z]]:
                    raise RackValidationError(
                        "self-distributivity", (x, y, z),
                        "(x<|y)<|z != (x<|z)<|(y<|z)",
                    )

    is_quandle = all(rows[i][i] == i for i in range(n))
    if kind_claim == "quandle" and not is_quandle:
        bad = next(i for i in range(n) if rows[i][i] != i)
        raise RackValidationError("idempotence", (bad,), "x<|x != x but table claims quandle")

    if elements is None:
        elements = tuple(str(i) for i in range(n))
    elif len(elements) != n:
        raise RackValidationError("shape", (), "element list length does not match table")

    return FiniteRack(
        name=name,
        elements=tuple(elements),
        table=tuple(rows),
        quandle=is_quandle,
        inverse_table=tuple(tuple(col) for col in inverse_cols),
    )


def trivial_rack(n: int, name: str | None = None) -> FiniteRack:
    """The trivial rack ``x <| y = x`` on n elements (always a quandle)."""
    table = [[i] * n for i in range(n)]
    return validate_rack(table, name=name or f"T{n}")


def dihedral_quandle(n: int, name: str | None = None) -> FiniteRack:
    """The dihedral quandle on Z/n: ``x <| y = 2y - x (mod n)``."""
    table = [[(2 * j - i) % n for j in range(n)] for i in range(n)]
    return validate_rack(table, name=name or f"R{n}")


@dataclass(frozen=True)
class GroupTable:
    """A finite group by Cayley table; ``table[i][j]`` is the index of g_i * g_j."""

    name: str
    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def validate_group(
    table: Sequence[Sequence[int]],
    elements: Sequence[str] | None = None,
    name: str = "group",
    inverse: Sequence[int] | None = None,
) -> GroupTable:
    """Check a Cayley table for associativity, identity and inverses."""
    n = len(table)
    if n == 0:
        raise GroupValidationError("empty table")
    rows = [tuple(row) for row in table]
    for i, row in enumerate(rows):
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise GroupValidationError(f"row {i} malformed")

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("no two-sided identity")

    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if rows[x][y] == identity and rows[y][x] == identity:
                inv[x] = y
                break
        if inv[x] < 0:
            raise GroupValidationError(f"element {x} has no inverse")
    if inverse is not None and list(inverse) != inv:
        raise GroupValidationError("supplied inverse map is inconsistent with the table")

    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    raise GroupValidationError(f"not associative at ({x},{y},{z})")

    if elements is None:
        elements = tuple(str(i) for i in range(n))
    elif len(elements) != n:
        raise GroupValidationError("element list length does not match table")
    return GroupTable(name, tuple(elements), tuple(rows), identity, tuple(inv))


def cyclic_group(n: int) -> GroupTable:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(table, elements=[f"g{i}" for i in range(n)], name=f"Z{n}")


def symmetric_group(n: int) -> GroupTable:
    """The symmetric group on n letters (small n; permutations compose left-to-right)."""
    from itertools import permutations

    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # (p*q)(x) = q(p(x)): apply p first
    table = [
        [index[tuple(q[p[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    labels = ["".join(str(v) for v in p) for p in perms]
    return validate_group(table, elements=labels, name=f"S{n}")


def conjugation_rack(group: GroupTable, name: str | None = None) -> FiniteRack:
    """The conjugacy rack of a group: ``g <| h = h^-1 g h`` (always a quandle)."""
    n = group.size
    table = [
        [group.mul(group.mul(group.inverse[h], g), h) for h in range(n)]
        for g in range(n)
    ]
    return validate_rack(table, elements=group.elements, name=name or f"Conj({group.name})")


@dataclass(frozen=True)
class ComponentPartition:
    """Orbits of the right-translation group generated by all psi_y^{+-1}."""

    component_of: tuple[int, ...]
    count: int

    def sizes(self) -> list[int]:
        sizes = [0] * self.count
        for c in self.component_of:
            sizes[c] += 1
        return sizes


def components(rack: FiniteRack) -> ComponentPartition:
    """Connected components, by closure under ``<|`` and ``<|^-1`` moves."""
    n = rack.size
    comp = [-1] * n
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = count
        while stack:
            x = stack.pop()
            for y in range(n):
                for nxt in (rack.op(x, y), rack.inv_op(x, y)):
                    if comp[nxt] < 0:
                        comp[nxt] = count
                        stack.append(nxt)
        count += 1
    return ComponentPartition(tuple(comp), count)


@dataclass(frozen=True)
class GenerationResult:
    generates: bool
    closure: frozenset[int]
    # witness per reached element: (start generator, ((generator, sign), ...))
    witnesses: Mapping[int, tuple[int, tuple[tuple[int, int], ...]]]


def is_generating(rack: FiniteRack, subset: Iterable[int]) -> GenerationResult:
    """Breadth-first closure of ``subset`` under ``x <|^{+-1} s`` for generators s.

    Each reached element stores one witness expression
    ``x = s0 <|^{e1} s1 <| ... <|^{en} sn`` with every ``s_i`` in the subset,
    found breadth-first so witnesses are shortest.
    """
    gens = sorted(set(subset))
    if not gens:
        raise ValueError("generating subset must be nonempty")
    if any(not 0 <= g < rack.size for g in gens):
        raise ValueError("generator index out of range")

    witnesses: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {
        g: (g, ()) for g in gens
    }
    frontier = list(gens)
    while frontier:
        nxt: list[int] = []
        for x in frontier:
            start, path = witnesses[x]
            for s in gens:
                for sign, y in ((1, rack.op(x, s)), (-1, rack.inv_op(x, s))):
                    if y not in witnesses:
                        witnesses[y] = (start, path + ((s, sign),))
                        nxt.append(y)
        frontier = nxt
    closure = frozenset(witnesses)
    return GenerationResult(len(closure) == rack.size, closure, witnesses)


def is_homomorphism(
    mapping: Sequence[int], source: FiniteRack, target: FiniteRack
) -> bool:
    """Exhaustive check of ``f(x <| y) = f(x) <| f(y)`` over all pairs."""
    if len(mapping) != source.size:
        raise ValueError("mapping must be total on the source")
    if any(not 0 <= v < target.size for v in mapping):
        raise ValueError("mapping value out of range")
    return all(
        mapping[source.op(x, y)] == target.op(mapping[x], mapping[y])
        for x in range(source.size)
        for y in range(source.size)
    )


# -- JSON interchange ---------------------------------------------------------
#
# {"name": str, "elements": [str...], "table": [[int...]...],
#  "kind": "rack"|"quandle"}  (0-based indices)


def _check_types(table, elements, inverse=None) -> None:
    """A wrong JSON type in a rack or group document is a ValueError: ``table``
    is a list of lists of ints (bool and float excluded), ``elements`` a list
    of strings and ``inverse`` a list of ints."""

    def list_of(xs, kind: type) -> bool:  # type() rather than isinstance() rejects bool
        return isinstance(xs, list) and all(type(x) is kind for x in xs)

    if not (isinstance(table, list) and all(list_of(row, int) for row in table)):
        raise ValueError("'table' must be a list of lists of integers")
    if elements is not None and not list_of(elements, str):
        raise ValueError("'elements' must be a list of strings")
    if inverse is not None and not list_of(inverse, int):
        raise ValueError("'inverse' must be a list of integers")


def rack_from_dict(data: Mapping) -> FiniteRack:
    """Axiom failures raise RackValidationError; format problems plain ValueError."""
    try:
        table = data["table"]
        elements = data.get("elements")
        kind = data.get("kind", "rack")
        name = data.get("name", "rack")
    except (TypeError, KeyError) as exc:
        raise ValueError(f"rack file is missing a field: {exc}")
    if kind not in ("rack", "quandle"):
        raise ValueError(f"kind must be 'rack' or 'quandle', got {kind!r}")
    _check_types(table, elements)
    return validate_rack(table, elements=elements, name=name, kind_claim=kind)


def rack_to_dict(rack: FiniteRack) -> dict:
    return {
        "name": rack.name,
        "elements": list(rack.elements),
        "table": [list(row) for row in rack.table],
        "kind": "quandle" if rack.quandle else "rack",
    }


def load_rack(path: str | Path) -> FiniteRack:
    with open(path) as fh:
        return rack_from_dict(json.load(fh))


def group_from_dict(data: Mapping) -> GroupTable:
    try:
        table = data["table"]
    except (TypeError, KeyError):
        raise GroupValidationError("group file needs a 'table' field")
    elements, inverse = data.get("elements"), data.get("inverse")
    _check_types(table, elements, inverse)
    return validate_group(
        table, elements=elements, name=data.get("name", "group"), inverse=inverse
    )


def load_group(path: str | Path) -> GroupTable:
    with open(path) as fh:
        return group_from_dict(json.load(fh))


def builtin_racks(max_size: int = 6) -> list[FiniteRack]:
    """The stock test family: trivial racks, dihedral quandles, conjugacy racks."""
    racks = [
        trivial_rack(1),
        trivial_rack(2),
        trivial_rack(3),
        dihedral_quandle(3),
        dihedral_quandle(4),
        dihedral_quandle(5),
        conjugation_rack(cyclic_group(4)),
        conjugation_rack(symmetric_group(3)),
    ]
    return [r for r in racks if r.size <= max_size]
