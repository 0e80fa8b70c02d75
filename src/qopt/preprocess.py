"""Classical pre-solve reductions: component splitting and variable fixing.

All reductions are exact: they preserve the optimal value and allow
reconstructing a global optimum from the reduced problems.
"""

from __future__ import annotations

from typing import Mapping

from qopt.model import QuboModel, as_count

__all__ = [
    "decompose_components",
    "fix_variables",
]


def decompose_components(q: QuboModel) -> tuple[tuple[QuboModel, tuple[int, ...]], ...]:
    """Split a model into independent sub-models along coupling components.

    Each sub-model is paired with the tuple of original variable indices its
    variables map back to; the maps partition ``range(n)``. Solving every
    sub-model independently and placing each argmin through its index map
    yields a global optimum, since components share no terms. Components are
    ordered by their smallest original variable index; the constant offset
    rides on the first component (an empty model keeps it on a single empty
    component).
    """
    # Union-find over the coupling graph; isolated variables form singletons.
    parent = list(range(q.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in q.quadratic_pairs():
        ra, rb = find(i), find(j)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for v in range(q.n):
        groups.setdefault(find(v), []).append(v)
    ordered = [tuple(groups[root]) for root in sorted(groups)]
    if not ordered:
        return ((QuboModel(n=0, terms={}, offset=q.offset), ()),)

    components = []
    for pos, index_map in enumerate(ordered):
        local = {orig: k for k, orig in enumerate(index_map)}
        terms = {
            (local[i], local[j]): c
            for (i, j), c in q.terms.items()
            if i in local and j in local
        }
        offset = q.offset if pos == 0 else 0.0
        components.append((QuboModel(n=len(index_map), terms=terms, offset=offset), index_map))
    return tuple(components)


def fix_variables(q: QuboModel, assignment: Mapping[int, int]) -> QuboModel:
    """Substitute fixed bits into a model, folding their contributions exactly.

    The result ranges over the unassigned variables in their original order;
    for every completion ``y`` of the free variables,
    ``reduced.energy(y) == q.energy(merged)`` where ``merged`` interleaves
    ``assignment`` with ``y``.
    """
    fixed: dict[int, int] = {}
    for var, bit in assignment.items():
        v = as_count("variable index", var, least=0)
        if v >= q.n:
            raise ValueError(f"variable index {var} out of range for n={q.n}")
        if bit not in (0, 1):
            raise ValueError(f"fixed value for variable {var} must be 0 or 1, got {bit!r}")
        fixed[v] = int(bit)
    if not fixed:
        return q

    keep = [v for v in range(q.n) if v not in fixed]
    local = {orig: k for k, orig in enumerate(keep)}
    entries = []
    offset = q.offset
    for (i, j), c in q.terms.items():
        fi, fj = i in fixed, j in fixed
        if i == j:
            if fi:
                offset += c * fixed[i]
            else:
                entries.append((local[i], local[i], c))
        elif fi and fj:
            offset += c * fixed[i] * fixed[j]
        elif fi:
            if fixed[i]:
                entries.append((local[j], local[j], c))
        elif fj:
            if fixed[j]:
                entries.append((local[i], local[i], c))
        else:
            entries.append((local[i], local[j], c))
    return QuboModel.from_entries(len(keep), entries, offset)

