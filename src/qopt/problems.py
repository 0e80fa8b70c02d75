"""Seeded generators for the benchmark problem families, and their registry.

Each generator returns a :class:`ProblemInstance` bundling the raw
family-specific data, a compiled :class:`~qopt.model.DiagonalObjective`
(always a minimization), the pre-penalty constrained form when the family
has one, and metadata sufficient to regenerate the instance bit-identically.

Families
--------
``maxcut-r3r``
    Max-cut on uniform random 3-regular graphs, minimized as the negated
    cut value.
``mis`` / ``udmis``
    (Weighted) maximum independent set on a random graph, or on a unit-disc
    graph over random points; compiled with the standard edge penalty
    ``P = 1 + sum(weights)``.
``market-share``
    Exact-split multi-row knapsack: minimize the summed squared deviation of
    each row's selected weight from half its total.
``labs``
    Low-autocorrelation binary sequences; the native quartic energy is kept
    as-is (one canonical instance per length).
``qap``
    Quadratic assignment with random integer flow/distance matrices and
    penalty-encoded row/column assignment equalities.
``spin-glass``
    Random couplings on a complete graph, a square grid, or a heavy-hex-like
    lattice; optional experimental cubic terms.
``ev-parking``
    Charging-station admission: accept vehicles to maximize value subject to
    per-interval space and power caps (two knapsack rows per interval).
``portfolio``
    Equal-weight mean-variance asset selection with a cardinality equality.

Registry
--------
:data:`FAMILIES` is the only list of family names: one :class:`Family` entry
each, read by ``qopt bench``, ``qopt generate`` and :func:`instance_from_json`.
Every ``gen_*`` function only draws the raw payload and compiles it with the
family's ``build``, which is also what re-reads an envelope, so generation and
ingestion run the same code. Data of one's own enters as an envelope, through
:func:`instance_from_json` or ``qopt solve FILE``.

All generators draw exclusively from ``numpy.random.default_rng(seed)`` in a
fixed order (``maxcut-r3r`` from ``random.Random(seed)``, as networkx's
``random_regular_graph`` does), so identical (family, params, seed)
reproduce bit-identical raw payloads. Distribution choices not pinned down
by the problem definitions (weight ranges, covariance synthesis, demand
ranges) are fixed here and recorded in instance metadata. Seeds and every
size or count parameter pass through :func:`~qopt.model.as_count`: a numpy
integer gives the same instance as the int, while a float or a bool raises
``TypeError`` naming the parameter. Every raw payload, generated or read, is
held to its family's declared fields before ``build`` runs; a bad or undeclared
field raises one line naming family and field. ``meta`` is descriptive, except
QAP's ``params``, held to its fields too, since its build reads ``penalty``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from qopt.model import (
    ConstrainedModel,
    DiagonalObjective,
    IsingModel,
    LinearConstraint,
    QuboModel,
    _as_real,
    as_count,
    check_real,
    ising_to_qubo,
    model_to_json,
    penalty_encode,
)

__all__ = [
    "ProblemInstance",
    "Flag",
    "Family",
    "FAMILIES",
    "gen_maxcut_r3r",
    "gen_mis",
    "gen_market_share",
    "labs_energy",
    "gen_labs",
    "gen_qap",
    "gen_spin_glass",
    "gen_ev_parking",
    "gen_portfolio",
    "instance_to_json",
    "instance_from_json",
]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One benchmark instance: raw data, compiled objective, metadata.

    ``raw`` holds JSON-native family data (the payload compared for
    bit-identical regeneration). ``constrained`` is the pre-penalty form for
    families that have one. ``meta`` records the seed and generator
    parameters, plus a family note (MIS's penalty).
    """

    family: str
    raw: Mapping
    objective: DiagonalObjective
    constrained: ConstrainedModel | None = None
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown problem family {self.family!r}")

    @property
    def n(self) -> int:
        return self.objective.n


_Built = tuple[DiagonalObjective, ConstrainedModel | None]


def _meta(seed, params: dict, **extra) -> dict:
    return {"seed": None if seed is None else as_count("seed", seed, least=0), "params": params, **extra}


def _instance(family: str, raw: dict, meta: dict) -> ProblemInstance:
    """Hold ``raw`` to the family's declared fields, compile it through the
    family's ``build`` and bundle the result."""
    _check(family, raw, meta)
    objective, constrained = FAMILIES[family].build(raw, meta)
    return ProblemInstance(family, raw, objective, constrained, meta)


def _json(value, real: bool = False):
    """A generator argument with numpy values as their JSON number or list,
    unchecked; with ``real``, an int that is not a bool becomes a float."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    return float(value) if real and type(value) is int else value


def _upper_qubo(diag: np.ndarray, pair: np.ndarray) -> QuboModel:
    """The QUBO with ``diag`` as its linear terms and the upper triangle of
    ``pair`` as its couplings, row by row with each row's diagonal first;
    exact zeros are left out."""
    dense = np.triu(pair, 1)
    np.fill_diagonal(dense, diag)
    rows, cols = np.nonzero(dense)
    return QuboModel.from_entries(diag.size, zip(rows.tolist(), cols.tolist(), dense[rows, cols].tolist()))


# ---------------------------------------------------------------------------
# Payload schema
#
# Each family declares its raw fields as {name: spec}. "count" is an int of
# at least 1 ("count>=2" sets the least value) and below 2^63, "real" a
# finite real that is not a bool ("real>0" a positive one), "a|b" one of
# those words, "pairs" [u, v] lists of two distinct indices below n (a pair
# may repeat; the builds sum its terms), and "triples" [a, b, c, w]
# lists of three distinct indices below n and a real weight. A shape makes
# nested lists, one level per size, as in "count[m,n]"; a size is a count
# field, a literal, or a list field's length, and counts in lists may be 0.
# A trailing "?" lets a field be absent or null.


def _check(family: str, raw: Mapping, meta: Mapping) -> None:
    """Hold ``raw`` and ``meta["params"]`` to the family's fields: no others,
    then each alone in declared order, then the sizes. The first fault raises
    one line naming family and field, in ``as_count``'s wording for integers."""
    row, where = FAMILIES[family], f"{family} payload"
    params = meta.get("params", {}) if row.params else {}
    if not isinstance(params, Mapping):
        raise TypeError(f"{family} meta: params must be an object, got {params!r}")
    for payload, fields, at in ((raw, row.fields, where), (params, row.params, f"{family} meta params")):
        unknown = next((name for name in payload if name not in fields), None)
        if unknown is not None:
            raise ValueError(f"{at} has an undeclared {unknown!r} field (declared: {', '.join(fields)})")
        for name, spec in fields.items():
            if payload.get(name) is None and spec.endswith("?"):
                continue
            if name not in payload:
                raise ValueError(f"{at} has no {name!r} field")
            _check_field(at, name, spec.rstrip("?"), payload[name], payload.get("n"))
    sized = []
    for name, spec in row.fields.items():
        value, (kind, _, dims) = raw.get(name), spec.rstrip("?]").partition("[")
        if value is not None and dims:
            want = tuple(int(d) if d.isdigit() else raw[d] for d in dims.split(","))
            if not isinstance(want[0], list):
                sized.append((name, want, _lengths(value, want)))
            elif len(value) != len(want[0]):  # one entry per entry of another list
                side = "shorter" if len(value) < len(want[0]) else "longer"
                raise ValueError(f"{where}: {name} is {side} than {dims}: {len(value)} for {len(want[0])}")
    if any(want != got for _, want, got in sized):
        need = " and ".join(f"{' x '.join(map(str, want))} {name}" for name, want, _ in sized)
        got = " and ".join(str(got if len(got) > 1 else got[0]) for _, _, got in sized)
        raise ValueError(f"need {need}, got {got} ({where})")


def _check_field(where: str, name: str, spec: str, value, n: int | None) -> None:
    # Pairs and triples come after the n they index, which is checked by then.
    kind, _, dims = spec.partition("[")
    if kind in ("pairs", "triples"):
        arity, noun = (2, "pairs") if kind == "pairs" else (3, "weighted triples")
        for item in _leaves(where, name, value, 1):
            if len(_leaves(where, name, item, 1)) != arity + (kind == "triples"):
                raise ValueError(f"{where}: {name} entries must be {noun}, got {item}")
            for index in item[:arity]:
                _check_count(where, name, index, 0)
            if kind == "triples":
                _check_real(where, name, item[3])
            if len(set(item[:arity])) < arity or max(item[:arity]) >= n:
                raise ValueError(
                    f"{where}: {name} has term index {kind[:-1]} {tuple(item[:arity])} invalid for n={n}"
                    " (need distinct indices below n)"
                )
        return
    for leaf in _leaves(where, name, value, dims.count(",") + 1 if dims else 0):
        if kind.startswith("count"):
            _check_count(where, name, leaf, int(kind.partition(">=")[2] or (0 if dims else 1)))
        elif kind.startswith("real"):
            _check_real(where, name, leaf, kind == "real>0")
        elif leaf not in kind.split("|"):
            raise ValueError(f"{where}: {name} must be one of {kind.replace('|', ', ')}, got {leaf!r}")


def _check_count(where: str, name: str, value, least: int) -> None:
    # Counts stay in the int64 range, which numpy and float() both take.
    try:
        value = as_count(name, value, least)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{exc} ({where})") from None
    if value >= 1 << 63:
        raise ValueError(f"{name} must be below 2^63, got a {value.bit_length()}-bit integer ({where})")


def _check_real(where: str, name: str, value, positive: bool = False) -> None:
    try:
        check_real(name, value, positive)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _leaves(where: str, name: str, value, depth: int) -> list:
    """The entries ``depth`` levels down nested lists; a non-list above them raises."""
    if depth == 0:
        return [value]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where}: {name} must be a list, got {value!r}")
    return [leaf for item in value for leaf in _leaves(where, name, item, depth - 1)]


def _lengths(value: list, want: tuple) -> tuple:
    """``value``'s length at each level of ``want``: below the top, the first that differs."""
    got, level = [], [value]
    for size in want:
        got.append(next((len(item) for item in level if len(item) != size), size))
        level = [entry for item in level for entry in item]
    return tuple(got)


# ---------------------------------------------------------------------------
# Max-cut on random 3-regular graphs


def _build_maxcut(raw: Mapping, meta: Mapping) -> _Built:
    # Cut value of edge (u, v) is x_u + x_v - 2 x_u x_v; minimize its negation.
    entries = []
    for u, v in raw["edges"]:
        entries += [(u, u, -1.0), (v, v, -1.0), (u, v, 2.0)]
    return QuboModel.from_entries(raw["n"], entries).as_objective(), None


def _random_regular_edges(d: int, n: int, seed: int) -> set[tuple[int, int]]:
    """Edges ``(u, v)``, ``u < v``, of a random ``d``-regular graph on ``n``
    vertices: networkx 3.6.1's ``random_regular_graph(d, n, seed)`` pairing
    (Steger & Wormald), draw for draw, so both give the same edge set."""
    rng = random.Random(as_count("seed", seed, least=0))

    def suitable(edges, potential):
        # Whether some pair of the leftover stubs' vertices is still joinable.
        if not potential:
            return True
        for s1 in potential:
            for s2 in potential:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1  # rebinds the outer s1 too; networkx's later s1 == s2 tests depend on it
                if (s1, s2) not in edges:
                    return True
        return False

    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * d
        while stubs:
            potential: dict[int, int] = {}  # leftover stubs per vertex, in first-seen order
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not suitable(edges, potential):
                break  # a dead end: start over from all stubs
            stubs = [v for v, count in potential.items() for _ in range(count)]
        else:
            return edges


def gen_maxcut_r3r(n: int, seed: int = 0) -> ProblemInstance:
    """Max-cut on a uniform random 3-regular graph with ``n`` vertices.

    The objective minimizes ``-C(x)`` where ``C`` counts cut edges, so the
    worst assignment (the empty cut) has energy exactly 0; metadata records
    ``cut_min = 0`` for ratio normalization. ``n`` must be even and at least
    4, otherwise no 3-regular graph exists.
    """
    n = as_count("n", n)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"3-regular graphs need an even vertex count >= 4, got {n}")
    edges = sorted(_random_regular_edges(3, n, seed))
    raw = {"n": n, "edges": [[u, v] for u, v in edges]}
    return _instance("maxcut-r3r", raw, _meta(seed, {"n": n}, cut_min=0))


# ---------------------------------------------------------------------------
# (Weighted) maximum independent set


def _mis_penalty(weights: Sequence[float]) -> float:
    return 1.0 + sum(weights)


def _build_mis(raw: Mapping, meta: Mapping) -> _Built:
    n, edges = raw["n"], raw["edges"]
    weights = [float(w) for w in raw["weights"]]
    penalty = _mis_penalty(weights)
    base = QuboModel(n=n, terms={(v, v): -w for v, w in enumerate(weights) if w != 0.0})
    entries = [(v, v, -w) for v, w in enumerate(weights)]
    entries += [(u, v, penalty) for u, v in edges]
    objective = QuboModel.from_entries(n, entries).as_objective()
    rows = tuple(LinearConstraint(tuple(float(v in edge) for v in range(n)), 1.0) for edge in edges)
    return objective, ConstrainedModel(objective=base, inequalities=rows)


def gen_mis(
    n: int,
    edge_prob: float | None = None,
    points: Sequence[tuple[float, float]] | None = None,
    weights: Sequence[float] | None = None,
    unit_disc: bool = False,
    side: float | None = None,
    seed: int = 0,
) -> ProblemInstance:
    """Weighted maximum independent set, random graph or unit-disc variant.

    The compiled objective is ``-sum(c_v x_v) + P sum(x_u x_v over edges)``
    with ``P = 1 + sum(c_v)``, which makes every optimum an independent set.
    With ``unit_disc`` the graph connects point pairs at distance <= 1;
    points default to uniform draws in a square of side ``sqrt(n)`` (or
    ``side``), and may be supplied explicitly. ``points`` and ``side`` are
    rejected without ``unit_disc``, and ``edge_prob`` (default 0.3 on
    G(n, p)) with it. The pre-penalty form keeps one ``x_u + x_v <= 1`` row
    per edge.
    """
    n = as_count("n", n)
    rng = np.random.default_rng(as_count("seed", seed, least=0))
    params: dict = {"n": n, "unit_disc": unit_disc}
    if unit_disc:
        if edge_prob is not None:
            raise ValueError("edge_prob is only meaningful without unit_disc")
        box = math.sqrt(n) if side is None else _as_real("side", side, positive=True)
        if points is None:
            pts = [(float(x), float(y)) for x, y in rng.uniform(0.0, box, size=(n, 2))]
        else:
            pts = [(_as_real("points", x), _as_real("points", y)) for x, y in points]
            if len(pts) != n:
                raise ValueError(f"got {len(pts)} points for n={n} vertices")
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if math.dist(pts[u], pts[v]) <= 1.0
        ]
        params["side"] = box
    else:
        if points is not None or side is not None:
            raise ValueError("points and side are only meaningful with unit_disc=True")
        if edge_prob is None:
            edge_prob = 0.3
        check_real("edge_prob", edge_prob)
        if not 0.0 <= edge_prob <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
        draws = rng.random(size=(n, n))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draws[u, v] < edge_prob]
        params["edge_prob"] = edge_prob
    if weights is None:
        w = [1.0] * n
    else:
        w = [_as_real("weights", c) for c in weights]  # the payload check refuses w <= 0
    raw: dict = {"n": n, "edges": [[u, v] for u, v in edges], "weights": w}
    if unit_disc:
        raw["points"] = [[x, y] for x, y in pts]
    meta = _meta(seed, params, penalty=_mis_penalty(w))
    return _instance("udmis" if unit_disc else "mis", raw, meta)


# ---------------------------------------------------------------------------
# Market-share splitting


def _build_market_share(raw: Mapping, meta: Mapping) -> _Built:
    # sum_j (w_j . x - C_j)^2 is the objective (so no constrained form): the splits
    # at penalty 1, with C_j^2 for a row without weight (penalty_encode refuses 0 = C).
    # Weights and targets are non-negative ints, so sum_j (sum_i w_ji + C_j)^2
    # bounds every compiled coefficient, the offset and every partial sum of
    # an energy: below 2^53 all of them are exact doubles.
    rows = list(zip(raw["weights"], raw["targets"]))
    bound = sum((sum(w) + c) ** 2 for w, c in rows)
    if bound >= 1 << 53:
        raise ValueError(
            "market-share payload: weights and targets must keep sum_j (sum_i w_ji + C_j)^2 below 2^53"
            f" to be priced exactly, got {float(bound):.4g}"
        )
    split = ConstrainedModel(
        objective=QuboModel(raw["n"], offset=sum(float(c) * c for w, c in rows if not any(w))),
        equalities=tuple(LinearConstraint(tuple(w), c) for w, c in rows if any(w)),
    )
    return penalty_encode(split, 1.0).as_objective(), None


def gen_market_share(m: int, seed: int = 0) -> ProblemInstance:
    """Exact-split market-share instance with ``m`` rows and ``10(m-1)`` items.

    Row weights are uniform in {0..99} and each target is half the row sum
    (floored). The objective is the summed squared row deviation, so value 0
    means a perfect split. The reference form with signed slacks minimizing
    ``sum |s_j|`` is not linear-quadratic, so only the compiled quadratic is
    carried.
    """
    m = as_count("m", m, least=2)
    n = 10 * (m - 1)
    rng = np.random.default_rng(as_count("seed", seed, least=0))
    weights = rng.integers(0, 100, size=(m, n))
    targets = weights.sum(axis=1) // 2
    raw = {"m": m, "n": n, "weights": weights.tolist(), "targets": targets.tolist()}
    return _instance("market-share", raw, _meta(seed, {"m": m}))


# ---------------------------------------------------------------------------
# Low-autocorrelation binary sequences


_SPINS = frozenset((-1, 1))


def labs_energy(s: Sequence[int]) -> float:
    """Sidelobe energy ``sum_{j=1}^{k-1} A_j^2`` with ``A_j = sum_i s_i s_{i+j}``."""
    # Entries are checked before ``int`` sees them, so 1.3 is not read as +1.
    seq = tuple(s)
    if not _SPINS.issuperset(seq):
        raise ValueError("sequence entries must be -1 or +1")
    seq = tuple(map(int, seq))
    k = len(seq)
    if k < 2:
        raise ValueError(f"sequence length must be at least 2, got {k}")
    total = 0.0
    for j in range(1, k):
        a = sum(seq[i] * seq[i + j] for i in range(k - j))
        total += float(a * a)
    return total


_LABS_BLOCK = 1 << 14  # quarter patterns priced per table pass


@dataclass(frozen=True)
class _LabsProgram:
    """Energies of the length-``k`` sequence family (bit ``i`` is spin ``1 - 2 x_i``)."""

    k: int

    def table(self) -> np.ndarray:
        # Negating every spin keeps each product, and negating every second
        # spin negates the odd-lag correlations and keeps the even-lag ones,
        # so flipping all bits, or the bits of one parity, keeps the energy.
        # Only the quarter with bits k-1 and k-2 clear is priced, in uint32
        # blocks that bound the temporaries; flipping the bits of k-2's
        # parity maps it onto the rest of the lower half, and the upper half
        # is the lower half's mirror.
        k = self.k
        quarter = 1 << (k - 2)
        mask = sum(1 << b for b in range(k - 2, -1, -2))
        energy = np.empty(4 * quarter, dtype=np.float64)
        for start in range(0, quarter, _LABS_BLOCK):
            stop = min(start + _LABS_BLOCK, quarter)
            block = np.arange(start, stop, dtype=np.uint32)
            energy[start:stop] = self.at(block)
            energy[block ^ mask] = energy[start:stop]
        energy[2 * quarter :] = energy[2 * quarter - 1 :: -1]
        return energy

    def at(self, block: np.ndarray) -> np.ndarray:
        # Spins i and i+j agree where bits i and i+j do, so lag j's correlation
        # is (k - j) minus twice the differing bits among the low k - j of
        # x ^ (x >> j). Squares are summed in int32, exact far beyond any k
        # that can be indexed.
        k = self.k
        total = np.zeros(block.size, dtype=np.int32)
        for j in range(1, k):
            a = np.bitwise_count((block ^ (block >> j)) & ((1 << (k - j)) - 1)).astype(np.int32)
            a *= -2
            a += k - j
            a *= a
            total += a
        return total.astype(np.float64)

    def value(self, bits: Sequence[int]) -> float:
        return labs_energy(tuple(1 - 2 * b for b in bits))


def _build_labs(raw: Mapping, meta: Mapping) -> _Built:
    return DiagonalObjective(n=raw["k"], program=_LabsProgram(raw["k"])), None


def gen_labs(k: int) -> ProblemInstance:
    """The canonical length-``k`` sequence-energy instance (one per length).

    The quartic energy is kept native rather than quadratized: solvers here
    only ever need assignment energies, and quadratization would inflate the
    variable count. Bit ``i`` maps to spin ``1 - 2 x_i``.
    """
    k = as_count("k", k, least=2)
    return _instance("labs", {"k": k}, _meta(0, {"k": k}))


# ---------------------------------------------------------------------------
# Quadratic assignment


def _build_qap(raw: Mapping, meta: Mapping) -> _Built:
    n = raw["n"]
    # Variable x = i * n + k places facility i at location k, and
    # kron[x, y] = a[i, j] * b[k, l] is the cost of x and y = j * n + l together.
    kron = np.kron(np.asarray(raw["a"], dtype=np.float64), np.asarray(raw["b"], dtype=np.float64))
    cost = _upper_qubo(np.diag(kron), kron + kron.T)

    # One location per facility and one facility per location.
    rows = [LinearConstraint(tuple(float(x // n == i) for x in range(n * n)), 1.0) for i in range(n)]
    rows += [LinearConstraint(tuple(float(x % n == k) for x in range(n * n)), 1.0) for k in range(n)]
    constrained = ConstrainedModel(objective=cost, equalities=tuple(rows))
    penalty = meta.get("params", {}).get("penalty")
    return penalty_encode(constrained, penalty).as_objective(), constrained


def gen_qap(n: int, seed: int = 0, penalty: float | None = None) -> ProblemInstance:
    """Random assignment instance: integer matrices uniform in {0..9}.

    Variables are ``x[i, k] = 1`` iff facility ``i`` sits at location ``k``
    (flattened as ``i * n + k``); the cost sums ``a[i, j] b[k, l]`` over
    placed pairs, and the one-facility-per-location equalities are
    penalty-encoded.
    """
    n = as_count("n", n, least=2)
    rng = np.random.default_rng(as_count("seed", seed, least=0))
    a = rng.integers(0, 10, size=(n, n)).astype(np.float64)
    b = rng.integers(0, 10, size=(n, n)).astype(np.float64)
    raw = {"n": n, "a": a.tolist(), "b": b.tolist()}
    return _instance("qap", raw, _meta(seed, {"n": n, "penalty": penalty}))


# ---------------------------------------------------------------------------
# Spin glasses


def _grid_edges(n: int) -> list[tuple[int, int]]:
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError(f"grid topology needs a perfect-square size, got n={n}")
    # Each site's right neighbour, then its lower one; the generator sorts them.
    return [(v, v + 1) for v in range(n) if (v + 1) % side] + [(v, v + side) for v in range(n - side)]


# Heavy-hex-like lattice: seven horizontal chains (14/15/.../14 sites) joined
# by four bridge sites per gap; bridges attach at columns 0,4,8,12 or
# 2,6,10,14 in alternating gaps, with the final 14-site row shifted one
# column left where column 14 does not exist. Sites number row-by-row with
# each gap's bridges following the row above, 127 sites in total; smaller
# sizes keep the lowest-numbered sites and the edges among them.
_HEAVY_HEX_ROWS = (14, 15, 15, 15, 15, 15, 14)


def _heavy_hex_edges(n: int) -> list[tuple[int, int]]:
    if not 2 <= n <= 127:
        raise ValueError(f"heavy-hex-like topology supports 2..127 sites, got n={n}")
    # Each row starts after the rows above it and four bridge sites per gap.
    row_start = [sum(_HEAVY_HEX_ROWS[:r]) + 4 * r for r in range(len(_HEAVY_HEX_ROWS))]
    edges = []
    for r, length in enumerate(_HEAVY_HEX_ROWS):
        for c in range(length - 1):
            edges.append((row_start[r] + c, row_start[r] + c + 1))
    for gap in range(len(_HEAVY_HEX_ROWS) - 1):
        cols = (0, 4, 8, 12) if gap % 2 == 0 else (2, 6, 10, 14)
        for t, col in enumerate(cols):
            bridge = row_start[gap] + _HEAVY_HEX_ROWS[gap] + t
            upper = col if col < _HEAVY_HEX_ROWS[gap] else col - 1
            lower = col if col < _HEAVY_HEX_ROWS[gap + 1] else col - 1
            edges.append((row_start[gap] + upper, bridge))
            edges.append((bridge, row_start[gap + 1] + lower))
    return sorted((min(u, v), max(u, v)) for u, v in edges if u < n and v < n)


def _build_spin_glass(raw: Mapping, meta: Mapping) -> _Built:
    # A pair listed twice carries the sum of its couplings.
    couplings: dict[tuple[int, int], float] = {}
    for edge, c in zip(raw["edges"], raw["couplings"]):
        key = tuple(sorted(edge))
        couplings[key] = couplings.get(key, 0.0) + float(c)
    return IsingModel(n=raw["n"], J=couplings).as_objective(raw.get("cubic") or ()), None


def gen_spin_glass(
    topology: str,
    n: int,
    dist: str = "pm1",
    seed: int = 0,
    cubic_terms: int = 0,
) -> ProblemInstance:
    """Random spin glass on the requested coupling topology, zero fields.

    ``topology`` is ``complete``, ``grid`` (square lattice, perfect-square
    ``n``), or ``heavy-hex-like`` (a 127-site heavy-hex-style lattice
    truncated to ``n``). Couplings are drawn per sorted edge from ``dist``:
    ``pm1`` (uniform +/-1) or ``gaussian`` (standard normal).

    ``cubic_terms`` optionally adds that many random three-spin terms; this
    is experimental (the objective becomes a polynomial with no quadratic
    model attached).
    """
    n, cubic_terms = as_count("n", n, least=2), as_count("cubic_terms", cubic_terms, least=0)
    if topology == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif topology == "grid":
        edges = _grid_edges(n)
    elif topology == "heavy-hex-like":
        edges = _heavy_hex_edges(n)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    if dist not in ("pm1", "gaussian"):
        raise ValueError(f"unknown coupling distribution {dist!r}")

    rng = np.random.default_rng(as_count("seed", seed, least=0))

    def draw() -> float:
        if dist == "pm1":
            return float(rng.integers(0, 2) * 2 - 1)
        return float(rng.normal())

    couplings = {edge: draw() for edge in sorted(edges)}
    raw: dict = {
        "n": n,
        "topology": topology,
        "edges": [[u, v] for u, v in couplings],
        "couplings": list(couplings.values()),
    }
    if cubic_terms:
        if n < 3:
            raise ValueError("cubic terms need at least three spins")
        cubic = []
        for _ in range(cubic_terms):
            a, b, c = sorted(rng.choice(n, size=3, replace=False).tolist())
            cubic.append([a, b, c, draw()])
        raw["cubic"] = cubic
    params = {"topology": topology, "n": n, "dist": dist, "cubic_terms": cubic_terms}
    return _instance("spin-glass", raw, _meta(seed, params))


# ---------------------------------------------------------------------------
# EV charging-station admission


def _build_ev_parking(raw: Mapping, meta: Mapping) -> _Built:
    n_ev, k_slots, M, E = raw["N"], raw["K"], raw["M"], raw["E"]
    u, d = raw["windows"], raw["demand"]
    vals = [float(v) for v in raw["values"]]
    if any(x not in (0, 1) for row in u for x in row):
        raise ValueError("ev-parking payload: windows entries must be 0 or 1")
    if any(x == 0 and y != 0 for row_u, row_d in zip(u, d) for x, y in zip(row_u, row_d)):
        raise ValueError("ev-parking payload: demand must be 0 where windows is 0")

    base = QuboModel(n=n_ev, terms={(i, i): -v for i, v in enumerate(vals) if v != 0.0})
    rows = [LinearConstraint(tuple(float(row[k]) for row in u), float(M)) for k in range(k_slots)]
    rows += [LinearConstraint(tuple(float(row[k]) for row in d), float(E)) for k in range(k_slots)]
    constrained = ConstrainedModel(objective=base, inequalities=tuple(rows))
    return penalty_encode(constrained).as_objective(), constrained


def gen_ev_parking(N: int, K: int, M: int, E: int, seed: int = 0) -> ProblemInstance:
    """Random admission instance: contiguous windows, integer demands 1..10.

    Each vehicle draws an arrival and departure interval, per-interval
    demands uniform in {1..10} inside the window, and a value equal to its
    total demand times a uniform markup in [1.0, 1.5]. ``windows`` is the
    0/1 presence matrix (vehicle x interval). Both caps, at most ``M``
    vehicles present and ``E`` power delivered, are kept for every interval
    and compiled with binary slacks, so ``M``, ``E`` and demands are integers.
    """
    N, K = as_count("N", N), as_count("K", K)
    rng = np.random.default_rng(as_count("seed", seed, least=0))
    u = np.zeros((N, K), dtype=np.int64)
    d = np.zeros((N, K), dtype=np.int64)
    markups = []
    values = []
    for i in range(N):
        arrive = int(rng.integers(0, K))
        depart = int(rng.integers(arrive, K))
        u[i, arrive : depart + 1] = 1
        d[i, arrive : depart + 1] = rng.integers(1, 11, size=depart - arrive + 1)
        markup = float(rng.uniform(1.0, 1.5))
        markups.append(markup)
        values.append(float(d[i].sum()) * markup)
    raw = {"N": N, "K": K, "M": _json(M), "E": _json(E), "windows": u.tolist(), "demand": d.tolist(),
           "values": values, "markups": markups}
    return _instance("ev-parking", raw, _meta(seed, {key: raw[key] for key in ("N", "K", "M", "E")}))


# ---------------------------------------------------------------------------
# Mean-variance portfolio selection


def _build_portfolio(raw: Mapping, meta: Mapping) -> _Built:
    n, B, lam = raw["N"], raw["B"], float(raw["lam"])
    mu = np.asarray(raw["mu"], dtype=np.float64)
    sigma = np.asarray(raw["sigma"], dtype=np.float64)
    if B > n:
        raise ValueError(f"portfolio payload: B must be at most N={n}, got {B}")
    scale = lam / (2.0 * B * B)
    constrained = ConstrainedModel(
        objective=_upper_qubo(scale * np.diag(sigma) - mu / B, scale * (sigma + sigma.T)),
        equalities=(LinearConstraint(tuple(1.0 for _ in range(n)), float(B)),),
    )
    return penalty_encode(constrained).as_objective(), constrained


def gen_portfolio(N: int, B: int, seed: int = 0, lam: float = 1.0) -> ProblemInstance:
    """Random selection instance with a factor-model covariance.

    Picks exactly ``B`` of the assets at equal weight ``1/B``, minimizing
    ``(lam / 2B^2) x' Sigma x - (1/B) mu . x`` under the cardinality
    equality ``sum x = B``. Returns are uniform in [0, 0.1]; the covariance
    is ``F F' + diag(noise)`` with factor loadings N(0, 0.1^2) over
    ``max(1, N // 4)`` factors and diagonal noise uniform in [0.001, 0.01],
    guaranteeing positive definiteness.
    """
    N = as_count("N", N)
    rng = np.random.default_rng(as_count("seed", seed, least=0))
    mu = rng.uniform(0.0, 0.1, size=N)
    factors = rng.normal(0.0, 0.1, size=(N, max(1, N // 4)))
    noise = rng.uniform(0.001, 0.01, size=N)
    sigma = factors @ factors.T + np.diag(noise)
    raw = {"N": N, "B": _json(B), "lam": _json(lam, real=True), "mu": mu.tolist(), "sigma": sigma.tolist()}
    return _instance("portfolio", raw, _meta(seed, {"N": N, "B": raw["B"], "lam": lam}))


# ---------------------------------------------------------------------------
# Serialization


def instance_to_json(inst: ProblemInstance) -> dict:
    """Envelope form: family, meta, raw payload, and the model schema.

    ``model`` holds the compiled quadratic model when one exists (spin
    glasses serialize their exact QUBO equivalent); native polynomial
    objectives set it to null and rely on ``raw``. ``constrained`` carries
    the pre-penalty form when the family has one.
    """
    src = inst.objective.source
    src = ising_to_qubo(src) if isinstance(src, IsingModel) else src
    model = model_to_json(src) if isinstance(src, QuboModel) else None
    data = {"family": inst.family, "meta": dict(inst.meta), "raw": dict(inst.raw), "model": model}
    if inst.constrained is not None:
        data["constrained"] = model_to_json(inst.constrained)
    return data


def instance_from_json(data: Mapping) -> ProblemInstance:
    """Rebuild an instance from its envelope via the family's ``build``.

    The raw payload is compiled by the same code the generators use, so
    objective source, constrained form, and energies all round-trip exactly.
    A stored ``model`` or ``constrained`` block must equal the rebuilt one;
    an edited or stale envelope raises ``ValueError``. The payload is held
    to the family's declared fields first (see :class:`Family`), so a field
    that is missing or misshapen raises ``ValueError`` or ``TypeError``
    naming family and field.
    """
    raw, meta = (data.get("raw"), data.get("meta", {})) if isinstance(data, Mapping) else (None, None)
    if not (isinstance(raw, Mapping) and isinstance(meta, Mapping) and isinstance(data.get("family"), str)):
        raise ValueError('an instance must be a JSON object with a "family" string and "raw" and "meta" objects')
    family = data["family"]
    if family not in FAMILIES:
        raise ValueError(f"unknown problem family {family!r}")
    inst = _instance(family, dict(raw), dict(meta))
    rebuilt = instance_to_json(inst)
    for block in ("model", "constrained"):
        if block in data and data[block] != rebuilt.get(block):
            raise ValueError(f"stored {block} does not match the one rebuilt from the raw payload")
    return inst


# ---------------------------------------------------------------------------
# Registry


class Flag(NamedTuple):
    """One ``qopt generate <family>`` or ``qopt solve`` option.

    The value of option ``name`` is passed to the generator or solver as
    ``kwarg``. A ``default`` of ``...`` makes the option required;
    ``choices`` maps each accepted word to the value passed on.
    """

    name: str
    kwarg: str
    type: Callable = int
    default: object = ...
    help: str | None = None
    choices: Mapping[str, str] | None = None


class Family(NamedTuple):
    """Everything that names one problem family.

    ``generate`` is the seeded generator ``qopt bench`` calls with a config's
    params. ``build(raw, meta)`` compiles a raw payload into ``(objective,
    constrained)``. ``help`` and ``flags`` describe ``qopt generate``.
    ``fields`` declares every raw payload field and, for a family whose
    ``build`` reads ``meta["params"]``, ``params`` declares every field
    there, in the spec syntax of ``_check``; a payload may hold no other
    field. ``build`` reads them unchecked, and keeps only rules across fields.
    """

    generate: Callable[..., ProblemInstance]
    build: Callable[[Mapping, Mapping], _Built]
    help: str
    flags: tuple[Flag, ...]
    fields: Mapping[str, str]
    params: Mapping[str, str] = {}


_N = Flag("--n", "n")
_SEED = Flag("--seed", "seed", default=0, help="master seed (default 0)")
_MIS_FIELDS = {"n": "count", "edges": "pairs", "weights": "real>0[n]", "points": "real[n,2]?"}

FAMILIES: dict[str, Family] = {
    "maxcut-r3r": Family(
        gen_maxcut_r3r, _build_maxcut, "random 3-regular MAXCUT", (_N, _SEED), {"n": "count", "edges": "pairs"},
    ),
    "mis": Family(
        gen_mis, _build_mis, "maximum independent set on G(n, p)",
        (_N, Flag("--edge-prob", "edge_prob", float, 0.3), _SEED), _MIS_FIELDS,
    ),
    "udmis": Family(
        functools.partial(gen_mis, unit_disc=True), _build_mis, "unit-disc maximum independent set",
        (_N, Flag("--side", "side", float, None), _SEED), _MIS_FIELDS,
    ),
    "market-share": Family(
        gen_market_share, _build_market_share, "market-sharing exact-fit instance",
        (Flag("--m", "m", help="number of retailers"), _SEED),
        {"m": "count>=2", "n": "count", "weights": "count[m,n]", "targets": "count[m]"},
    ),
    "labs": Family(
        gen_labs, _build_labs, "low-autocorrelation binary sequence",
        (Flag("--k", "k", help="sequence length"),), {"k": "count>=2"},
    ),
    "qap": Family(
        gen_qap, _build_qap, "quadratic assignment problem",
        (_N, Flag("--penalty", "penalty", float, None), _SEED),
        {"a": "real[n,n]", "b": "real[n,n]", "n": "count>=2"}, {"n": "count>=2?", "penalty": "real>0?"},
    ),
    "spin-glass": Family(
        gen_spin_glass, _build_spin_glass, "seeded spin glass",
        (Flag("--topology", "topology", str, "complete",
              choices={"complete": "complete", "grid": "grid", "heavy-hex": "heavy-hex-like"}),
         _N, Flag("--dist", "dist", str, "pm1", choices={"pm1": "pm1", "gaussian": "gaussian"}),
         Flag("--cubic-terms", "cubic_terms", int, 0), _SEED),
        {"n": "count>=2", "topology": "complete|grid|heavy-hex-like", "edges": "pairs", "couplings": "real[edges]",
         "cubic": "triples?"},
    ),
    "ev-parking": Family(
        gen_ev_parking, _build_ev_parking, "EV charging/parking scheduling",
        (Flag("--sessions", "N", help="number of charging requests"),
         Flag("--intervals", "K", help="number of time intervals"),
         Flag("--spaces", "M", help="parking space capacity"), Flag("--energy", "E", help="per-interval power cap"),
         _SEED),
        {"windows": "count[N,K]", "demand": "count[N,K]", "values": "real[N]", "markups": "real[N]?",
         "N": "count", "K": "count", "M": "count", "E": "count"},
    ),
    "portfolio": Family(
        gen_portfolio, _build_portfolio, "mean-variance portfolio selection",
        (Flag("--assets", "N"), Flag("--budget", "B", help="number of assets to pick"),
         Flag("--lam", "lam", float, 1.0), _SEED),
        {"mu": "real[N]", "sigma": "real[N,N]", "N": "count", "B": "count", "lam": "real>0"},
    ),
}
