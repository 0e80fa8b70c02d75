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
Every ``gen_*`` and ``*_from_data`` function only draws or normalises the raw
payload and compiles it with the family's ``build``, which is also what
re-reads an envelope, so generation and ingestion run the same code.

All generators draw exclusively from ``numpy.random.default_rng(seed)`` in a
fixed order, so identical (family, params, seed) reproduce bit-identical raw
payloads. Distribution choices not pinned down by the problem definitions
(weight ranges, covariance synthesis, demand ranges) are fixed here and
recorded in instance metadata.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Mapping, NamedTuple, Sequence

import networkx as nx
import numpy as np

from qopt.model import (
    ConstrainedModel,
    DiagonalObjective,
    IsingModel,
    LinearConstraint,
    QuboModel,
    ising_to_qubo,
    model_to_json,
    penalty_encode,
)

__all__ = [
    "ProblemInstance",
    "LabsSequence",
    "Flag",
    "Family",
    "FAMILIES",
    "gen_maxcut_r3r",
    "gen_mis",
    "gen_market_share",
    "labs_energy",
    "gen_labs",
    "gen_qap",
    "qap_from_data",
    "gen_spin_glass",
    "gen_ev_parking",
    "ev_parking_from_data",
    "gen_portfolio",
    "portfolio_from_data",
    "labs_to_string",
    "labs_from_string",
    "instance_to_json",
    "instance_from_json",
]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One benchmark instance: raw data, compiled objective, metadata.

    ``raw`` holds JSON-native family data (the payload compared for
    bit-identical regeneration). ``constrained`` is the pre-penalty form for
    families that have one. ``meta`` records the seed, generator parameters,
    and creation timestamp.
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
    out = {
        "seed": seed,
        "params": params,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    out.update(extra)
    return out


def _instance(family: str, raw: dict, meta: dict) -> ProblemInstance:
    """Compile ``raw`` through the family's ``build`` and bundle the result."""
    objective, constrained = FAMILIES[family].build(raw, meta)
    return ProblemInstance(family, raw, objective, constrained, meta)


# ---------------------------------------------------------------------------
# Max-cut on random 3-regular graphs


def _build_maxcut(raw: Mapping, meta: Mapping) -> _Built:
    # Cut value of edge (u, v) is x_u + x_v - 2 x_u x_v; minimize its negation.
    entries = []
    for u, v in raw["edges"]:
        u, v = int(u), int(v)
        entries.append((u, u, -1.0))
        entries.append((v, v, -1.0))
        entries.append((u, v, 2.0))
    return QuboModel.from_entries(int(raw["n"]), entries).as_objective(), None


def gen_maxcut_r3r(n: int, seed: int = 0) -> ProblemInstance:
    """Max-cut on a uniform random 3-regular graph with ``n`` vertices.

    The objective minimizes ``-C(x)`` where ``C`` counts cut edges, so the
    worst assignment (the empty cut) has energy exactly 0; metadata records
    ``cut_min = 0`` for ratio normalization. ``n`` must be even and at least
    4, otherwise no 3-regular graph exists.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"3-regular graphs need an even vertex count >= 4, got {n}")
    graph = nx.random_regular_graph(3, n, seed=seed)
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    raw = {"n": n, "edges": [[u, v] for u, v in edges]}
    return _instance("maxcut-r3r", raw, _meta(seed, {"n": n}, cut_min=0))


# ---------------------------------------------------------------------------
# (Weighted) maximum independent set


def _mis_penalty(weights: Sequence[float]) -> float:
    return 1.0 + sum(weights)


def _build_mis(raw: Mapping, meta: Mapping) -> _Built:
    n = int(raw["n"])
    edges = [(int(u), int(v)) for u, v in raw["edges"]]
    weights = [float(w) for w in raw["weights"]]
    penalty = _mis_penalty(weights)
    base = QuboModel(n=n, terms={(v, v): -w for v, w in enumerate(weights) if w != 0.0})
    entries = [(v, v, -w) for v, w in enumerate(weights)]
    entries += [(u, v, penalty) for u, v in edges]
    rows = []
    for u, v in edges:
        coeffs = [0.0] * n
        coeffs[u] = 1.0
        coeffs[v] = 1.0
        rows.append(LinearConstraint(tuple(coeffs), 1.0))
    constrained = ConstrainedModel(objective=base, inequalities=tuple(rows))
    return QuboModel.from_entries(n, entries).as_objective(), constrained


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
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    rng = np.random.default_rng(seed)
    params: dict = {"n": n, "unit_disc": unit_disc}
    if unit_disc:
        if edge_prob is not None:
            raise ValueError("edge_prob is only meaningful without unit_disc")
        box = math.sqrt(n) if side is None else float(side)
        if box <= 0:
            raise ValueError(f"square side must be positive, got {side}")
        if points is None:
            pts = [(float(x), float(y)) for x, y in rng.uniform(0.0, box, size=(n, 2))]
        else:
            pts = [(float(x), float(y)) for x, y in points]
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
        if not 0.0 <= edge_prob <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
        draws = rng.random(size=(n, n))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draws[u, v] < edge_prob]
        params["edge_prob"] = edge_prob
    if weights is None:
        w = [1.0] * n
    else:
        w = [float(c) for c in weights]
        if len(w) != n:
            raise ValueError(f"got {len(w)} weights for n={n} vertices")
        if any(c <= 0.0 for c in w):
            raise ValueError("vertex weights must be positive")
    raw: dict = {"n": n, "edges": [[u, v] for u, v in edges], "weights": w}
    if unit_disc:
        raw["points"] = [[x, y] for x, y in pts]
    meta = _meta(seed, params, penalty=_mis_penalty(w))
    return _instance("udmis" if unit_disc else "mis", raw, meta)


# ---------------------------------------------------------------------------
# Market-share splitting


def _build_market_share(raw: Mapping, meta: Mapping) -> _Built:
    # sum_j (w_j . x - C_j)^2, expanded with x_i^2 = x_i.
    weights = np.asarray(raw["weights"])
    targets = np.asarray(raw["targets"])
    m, n = weights.shape
    entries = []
    offset = 0.0
    for j in range(m):
        w = weights[j]
        c = float(targets[j])
        offset += c * c
        for i in range(n):
            if w[i] == 0:
                continue
            entries.append((i, i, float(w[i] * w[i] - 2.0 * c * w[i])))
            for i2 in range(i + 1, n):
                if w[i2] != 0:
                    entries.append((i, i2, float(2.0 * w[i] * w[i2])))
    return QuboModel.from_entries(n, entries, offset=offset).as_objective(), None


def gen_market_share(m: int, seed: int = 0) -> ProblemInstance:
    """Exact-split market-share instance with ``m`` rows and ``10(m-1)`` items.

    Row weights are uniform in {0..99} and each target is half the row sum
    (floored). The objective is the summed squared row deviation, so value 0
    means a perfect split. The reference form with signed slacks minimizing
    ``sum |s_j|`` is not linear-quadratic, so only the compiled quadratic is
    carried.
    """
    if m < 2:
        raise ValueError(f"need at least two rows, got m={m}")
    n = 10 * (m - 1)
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 100, size=(m, n))
    targets = weights.sum(axis=1) // 2
    raw = {"m": m, "n": n, "weights": weights.tolist(), "targets": targets.tolist()}
    return _instance("market-share", raw, _meta(seed, {"m": m}))


# ---------------------------------------------------------------------------
# Low-autocorrelation binary sequences


@dataclass(frozen=True)
class LabsSequence:
    """A +/-1 sequence of length ``k``."""

    k: int
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        s = tuple(int(v) for v in self.s)
        if len(s) != self.k:
            raise ValueError(f"sequence has length {len(s)}, declared k={self.k}")
        if any(v not in (-1, 1) for v in s):
            raise ValueError("sequence entries must be -1 or +1")
        object.__setattr__(self, "s", s)


def labs_energy(s: LabsSequence | Sequence[int]) -> float:
    """Sidelobe energy ``sum_{j=1}^{k-1} A_j^2`` with ``A_j = sum_i s_i s_{i+j}``."""
    seq = s.s if isinstance(s, LabsSequence) else tuple(int(v) for v in s)
    k = len(seq)
    if k < 2:
        raise ValueError(f"sequence length must be at least 2, got {k}")
    if any(v not in (-1, 1) for v in seq):
        raise ValueError("sequence entries must be -1 or +1")
    total = 0.0
    for j in range(1, k):
        a = sum(seq[i] * seq[i + j] for i in range(k - j))
        total += float(a * a)
    return total


def labs_to_string(s: LabsSequence | Sequence[int]) -> str:
    """Render a sequence in the plain-text sign format, e.g. ``++-+-``."""
    seq = s.s if isinstance(s, LabsSequence) else tuple(int(v) for v in s)
    if any(v not in (-1, 1) for v in seq):
        raise ValueError("sequence entries must be -1 or +1")
    return "".join("+" if v == 1 else "-" for v in seq)


def labs_from_string(text: str) -> LabsSequence:
    """Parse the plain-text sign format; whitespace is ignored."""
    chars = [c for c in text if not c.isspace()]
    values = []
    for c in chars:
        if c == "+":
            values.append(1)
        elif c == "-":
            values.append(-1)
        else:
            raise ValueError(f"unexpected character {c!r} in sequence text")
    return LabsSequence(k=len(values), s=tuple(values))


@dataclass(frozen=True)
class _LabsProgram:
    """Energies of the length-``k`` sequence family (bit ``i`` is spin ``1 - 2 x_i``)."""

    k: int

    def table(self) -> np.ndarray:
        # Each lag's correlation A_j grows by doubling in int16 over bits
        # j..k-1: bit m adds s_(m-j) s_m, so the half with s_m = -1 is the
        # other half minus s_(m-j). Every value is an integer below 2^53, so
        # the sum of squares equals the direct formula exactly.
        k = self.k
        energy = np.zeros(1 << k, dtype=np.float64)
        corr = np.empty(1 << k, dtype=np.int16)
        for j in range(1, k):
            size = 1 << j
            corr[:size] = 0
            for m in range(j, k):
                lo = corr[:size].reshape(-1, 2, 1 << (m - j))
                hi = corr[size : 2 * size].reshape(-1, 2, 1 << (m - j))
                np.subtract(lo[:, 0], 1, out=hi[:, 0])
                np.add(lo[:, 1], 1, out=hi[:, 1])
                lo[:, 0] += 1
                lo[:, 1] -= 1
                size *= 2
            energy += corr * corr
        return energy

    def at(self, block: np.ndarray) -> np.ndarray:
        spins = 1.0 - 2.0 * ((block[:, None] >> np.arange(self.k)) & 1)
        energy = np.zeros(block.size, dtype=np.float64)
        for j in range(1, self.k):
            a = np.einsum("mi,mi->m", spins[:, : self.k - j], spins[:, j:])
            energy += a * a
        return energy

    def value(self, bits: Sequence[int]) -> float:
        return labs_energy(tuple(1 - 2 * b for b in bits))


def _build_labs(raw: Mapping, meta: Mapping) -> _Built:
    k = int(raw["k"])
    if k < 2:
        raise ValueError(f"sequence length must be at least 2, got {k}")
    return DiagonalObjective(n=k, program=_LabsProgram(k)), None


def gen_labs(k: int) -> ProblemInstance:
    """The canonical length-``k`` sequence-energy instance (one per length).

    The quartic energy is kept native rather than quadratized: solvers here
    only ever need assignment energies, and quadratization would inflate the
    variable count. Bit ``i`` maps to spin ``1 - 2 x_i``.
    """
    return _instance("labs", {"k": k}, _meta(0, {"k": k}))


# ---------------------------------------------------------------------------
# Quadratic assignment


def _qap_raw(a, b) -> dict:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return {"n": a.shape[0], "a": a.tolist(), "b": b.tolist()}


def _build_qap(raw: Mapping, meta: Mapping) -> _Built:
    n = int(raw["n"])
    a = np.asarray(raw["a"], dtype=np.float64)
    b = np.asarray(raw["b"], dtype=np.float64)
    if n < 2:
        raise ValueError(f"need at least two facilities, got n={n}")
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError(f"flow and distance matrices must both be {n} x {n}, got {a.shape} and {b.shape}")

    def var(i: int, k: int) -> int:
        return i * n + k

    entries = []
    for i in range(n):
        for k in range(n):
            if a[i, i] * b[k, k] != 0.0:
                entries.append((var(i, k), var(i, k), float(a[i, i] * b[k, k])))
            for j in range(n):
                for l in range(n):
                    if (i, k) < (j, l) and (a[i, j] * b[k, l] + a[j, i] * b[l, k]) != 0.0:
                        entries.append(
                            (var(i, k), var(j, l), float(a[i, j] * b[k, l] + a[j, i] * b[l, k]))
                        )
    cost = QuboModel.from_entries(n * n, entries)

    rows = []
    for i in range(n):
        coeffs = [0.0] * (n * n)
        for k in range(n):
            coeffs[var(i, k)] = 1.0
        rows.append(LinearConstraint(tuple(coeffs), 1.0))
    for k in range(n):
        coeffs = [0.0] * (n * n)
        for i in range(n):
            coeffs[var(i, k)] = 1.0
        rows.append(LinearConstraint(tuple(coeffs), 1.0))
    constrained = ConstrainedModel(objective=cost, equalities=tuple(rows))
    penalty = meta.get("params", {}).get("penalty")
    return penalty_encode(constrained, penalty).as_objective(), constrained


def qap_from_data(a, b, penalty: float | None = None) -> ProblemInstance:
    """Assignment instance from explicit flow/distance matrices.

    Variables are ``x[i, k] = 1`` iff facility ``i`` sits at location ``k``
    (flattened as ``i * n + k``); the cost sums ``a[i, j] b[k, l]`` over
    placed pairs, and the one-facility-per-location equalities are
    penalty-encoded.
    """
    raw = _qap_raw(a, b)
    return _instance("qap", raw, _meta(None, {"n": raw["n"], "penalty": penalty}, crafted=True))


def gen_qap(n: int, seed: int = 0, penalty: float | None = None) -> ProblemInstance:
    """Random assignment instance: integer matrices uniform in {0..9}."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 10, size=(n, n))
    b = rng.integers(0, 10, size=(n, n))
    return _instance("qap", _qap_raw(a, b), _meta(seed, {"n": n, "penalty": penalty}))


# ---------------------------------------------------------------------------
# Spin glasses


def _grid_edges(n: int) -> list[tuple[int, int]]:
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError(f"grid topology needs a perfect-square size, got n={n}")
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return edges


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
    row_start = []
    nid = 0
    bridges = []
    for r, length in enumerate(_HEAVY_HEX_ROWS):
        row_start.append(nid)
        nid += length
        if r < len(_HEAVY_HEX_ROWS) - 1:
            bridges.append(nid)
            nid += 4
    edges = []
    for r, length in enumerate(_HEAVY_HEX_ROWS):
        for c in range(length - 1):
            edges.append((row_start[r] + c, row_start[r] + c + 1))
    for gap in range(len(_HEAVY_HEX_ROWS) - 1):
        cols = (0, 4, 8, 12) if gap % 2 == 0 else (2, 6, 10, 14)
        for t, col in enumerate(cols):
            bridge = bridges[gap] + t
            upper = col if col < _HEAVY_HEX_ROWS[gap] else col - 1
            lower = col if col < _HEAVY_HEX_ROWS[gap + 1] else col - 1
            edges.append((row_start[gap] + upper, bridge))
            edges.append((bridge, row_start[gap + 1] + lower))
    kept = sorted(
        (min(u, v), max(u, v)) for u, v in edges if u < n and v < n
    )
    return kept


def _build_spin_glass(raw: Mapping, meta: Mapping) -> _Built:
    n = int(raw["n"])
    couplings = {(int(u), int(v)): float(c) for (u, v), c in zip(raw["edges"], raw["couplings"])}
    return IsingModel(n=n, J=couplings).as_objective(raw.get("cubic", ())), None


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
    if n < 2:
        raise ValueError(f"need at least two spins, got n={n}")
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
    if cubic_terms < 0:
        raise ValueError(f"cubic term count must be non-negative, got {cubic_terms}")

    rng = np.random.default_rng(seed)

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
            a, b, c = sorted(int(v) for v in rng.choice(n, size=3, replace=False))
            cubic.append([a, b, c, draw()])
        raw["cubic"] = cubic
    params = {"topology": topology, "n": n, "dist": dist, "cubic_terms": cubic_terms}
    return _instance("spin-glass", raw, _meta(seed, params))


# ---------------------------------------------------------------------------
# EV charging-station admission


def _positive_int(value, what: str) -> int:
    if int(value) != value or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value}")
    return int(value)


def _ev_parking_raw(u, d, values, M, E) -> dict:
    u = np.asarray(u, dtype=np.int64)
    if u.ndim != 2:
        raise ValueError(f"presence must be a vehicle x interval matrix, got shape {u.shape}")
    n_ev, k_slots = u.shape
    return {
        "N": n_ev,
        "K": k_slots,
        "M": _positive_int(M, "space capacity"),
        "E": _positive_int(E, "power cap"),
        "windows": u.tolist(),
        "demand": np.asarray(d, dtype=np.int64).tolist(),
        "values": [float(v) for v in values],
    }


def _build_ev_parking(raw: Mapping, meta: Mapping) -> _Built:
    n_ev, k_slots = int(raw["N"]), int(raw["K"])
    u = np.asarray(raw["windows"], dtype=np.int64)
    d = np.asarray(raw["demand"], dtype=np.int64)
    vals = [float(v) for v in raw["values"]]
    if u.shape != (n_ev, k_slots) or d.shape != u.shape:
        raise ValueError(
            f"presence and demand must both be {n_ev} x {k_slots} matrices, got {u.shape} and {d.shape}"
        )
    if len(vals) != n_ev:
        raise ValueError(f"got {len(vals)} values for {n_ev} vehicles")
    if not np.isin(u, (0, 1)).all():
        raise ValueError("presence entries must be 0 or 1")
    if (d < 0).any() or ((u == 0) & (d != 0)).any():
        raise ValueError("demand must be non-negative and zero outside the presence window")
    M = _positive_int(raw["M"], "space capacity")
    E = _positive_int(raw["E"], "power cap")

    base = QuboModel(n=n_ev, terms={(i, i): -v for i, v in enumerate(vals) if v != 0.0})
    rows = []
    for k in range(k_slots):
        rows.append(LinearConstraint(tuple(float(u[i, k]) for i in range(n_ev)), float(M)))
    for k in range(k_slots):
        rows.append(LinearConstraint(tuple(float(d[i, k]) for i in range(n_ev)), float(E)))
    constrained = ConstrainedModel(objective=base, inequalities=tuple(rows))
    return penalty_encode(constrained).as_objective(), constrained


def ev_parking_from_data(u, d, values, M: int, E: int) -> ProblemInstance:
    """Admission instance from explicit windows, demands, and values.

    ``u`` is the 0/1 presence matrix (vehicle x interval), ``d`` the integer
    per-interval demand (zero outside the window), ``values`` the per-vehicle
    admission value. Maximizing total admitted value becomes minimizing its
    negation, subject to at most ``M`` present vehicles and at most ``E``
    delivered power per interval; both cap rows are kept for every interval
    and compiled with binary slacks, so ``M``, ``E``, and demands must be
    integers.
    """
    raw = _ev_parking_raw(u, d, values, M, E)
    params = {key: raw[key] for key in ("N", "K", "M", "E")}
    return _instance("ev-parking", raw, _meta(None, params, crafted=True))


def gen_ev_parking(N: int, K: int, M: int, E: int, seed: int = 0) -> ProblemInstance:
    """Random admission instance: contiguous windows, integer demands 1..10.

    Each vehicle draws an arrival and departure interval, per-interval
    demands uniform in {1..10} inside the window, and a value equal to its
    total demand times a uniform markup in [1.0, 1.5].
    """
    if N < 1 or K < 1:
        raise ValueError(f"need N, K >= 1, got N={N} K={K}")
    rng = np.random.default_rng(seed)
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
    raw = _ev_parking_raw(u, d, values, M, E)
    raw["markups"] = markups
    return _instance("ev-parking", raw, _meta(seed, {"N": N, "K": K, "M": M, "E": E}))


# ---------------------------------------------------------------------------
# Mean-variance portfolio selection


def _portfolio_raw(mu, sigma, B, lam) -> dict:
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    return {"N": mu.shape[0], "B": int(B), "lam": float(lam), "mu": mu.tolist(), "sigma": sigma.tolist()}


def _build_portfolio(raw: Mapping, meta: Mapping) -> _Built:
    n, B, lam = int(raw["N"]), int(raw["B"]), float(raw["lam"])
    mu = np.asarray(raw["mu"], dtype=np.float64)
    sigma = np.asarray(raw["sigma"], dtype=np.float64)
    if not 1 <= B <= n:
        raise ValueError(f"cardinality must satisfy 1 <= B <= {n}, got {B}")
    if mu.shape != (n,) or sigma.shape != (n, n):
        raise ValueError(f"returns {mu.shape} and covariance {sigma.shape} do not match {n} assets")
    if lam <= 0:
        raise ValueError(f"risk aversion must be positive, got {lam}")
    scale = lam / (2.0 * B * B)
    entries = []
    for i in range(n):
        entries.append((i, i, float(scale * sigma[i, i] - mu[i] / B)))
        for j in range(i + 1, n):
            if sigma[i, j] != 0.0 or sigma[j, i] != 0.0:
                entries.append((i, j, float(scale * (sigma[i, j] + sigma[j, i]))))
    constrained = ConstrainedModel(
        objective=QuboModel.from_entries(n, entries),
        equalities=(LinearConstraint(tuple(1.0 for _ in range(n)), float(B)),),
    )
    return penalty_encode(constrained).as_objective(), constrained


def portfolio_from_data(mu, sigma, B: int, lam: float = 1.0) -> ProblemInstance:
    """Selection instance from explicit returns and covariance.

    Picks exactly ``B`` of the assets at equal weight ``1/B``, minimizing
    ``(lam / 2B^2) x' Sigma x - (1/B) mu . x`` under the cardinality
    equality ``sum x = B``.
    """
    raw = _portfolio_raw(mu, sigma, B, lam)
    params = {key: raw[key] for key in ("N", "B", "lam")}
    return _instance("portfolio", raw, _meta(None, params, crafted=True))


def gen_portfolio(N: int, B: int, seed: int = 0, lam: float = 1.0) -> ProblemInstance:
    """Random selection instance with a factor-model covariance.

    Returns are uniform in [0, 0.1]; the covariance is ``F F' + diag(noise)``
    with factor loadings N(0, 0.1^2) over ``max(1, N // 4)`` factors and
    diagonal noise uniform in [0.001, 0.01], guaranteeing positive
    definiteness.
    """
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 0.1, size=N)
    factors = rng.normal(0.0, 0.1, size=(N, max(1, N // 4)))
    noise = rng.uniform(0.001, 0.01, size=N)
    sigma = factors @ factors.T + np.diag(noise)
    raw = _portfolio_raw(mu, sigma, B, lam)
    return _instance("portfolio", raw, _meta(seed, {"N": N, "B": B, "lam": lam}))


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
    if isinstance(src, QuboModel):
        model = model_to_json(src)
    elif isinstance(src, IsingModel):
        model = model_to_json(ising_to_qubo(src))
    else:
        model = None
    data = {
        "family": inst.family,
        "meta": dict(inst.meta),
        "raw": dict(inst.raw),
        "model": model,
    }
    if inst.constrained is not None:
        data["constrained"] = model_to_json(inst.constrained)
    return data


def instance_from_json(data: Mapping) -> ProblemInstance:
    """Rebuild an instance from its envelope via the family's ``build``.

    The raw payload is compiled by the same code the generators use, so
    objective source, constrained form, and energies all round-trip exactly.
    A stored ``model`` or ``constrained`` block must equal the rebuilt one;
    an edited or stale envelope raises ``ValueError``.
    """
    family = data["family"]
    if family not in FAMILIES:
        raise ValueError(f"unknown problem family {family!r}")
    inst = _instance(family, dict(data["raw"]), dict(data.get("meta", {})))
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
    """

    generate: Callable[..., ProblemInstance]
    build: Callable[[Mapping, Mapping], _Built]
    help: str
    flags: tuple[Flag, ...]


_N = Flag("--n", "n")
_SEED = Flag("--seed", "seed", default=0, help="master seed (default 0)")

FAMILIES: dict[str, Family] = {
    "maxcut-r3r": Family(gen_maxcut_r3r, _build_maxcut, "random 3-regular MAXCUT", (_N, _SEED)),
    "mis": Family(
        gen_mis, _build_mis, "maximum independent set on G(n, p)",
        (_N, Flag("--edge-prob", "edge_prob", float, 0.3), _SEED),
    ),
    "udmis": Family(
        functools.partial(gen_mis, unit_disc=True), _build_mis, "unit-disc maximum independent set",
        (_N, Flag("--side", "side", float, None), _SEED),
    ),
    "market-share": Family(
        gen_market_share, _build_market_share, "market-sharing exact-fit instance",
        (Flag("--m", "m", help="number of retailers"), _SEED),
    ),
    "labs": Family(
        gen_labs, _build_labs, "low-autocorrelation binary sequence",
        (Flag("--k", "k", help="sequence length"),),
    ),
    "qap": Family(
        gen_qap, _build_qap, "quadratic assignment problem",
        (_N, Flag("--penalty", "penalty", float, None), _SEED),
    ),
    "spin-glass": Family(
        gen_spin_glass, _build_spin_glass, "seeded spin glass",
        (
            Flag("--topology", "topology", str, "complete",
                 choices={"complete": "complete", "grid": "grid", "heavy-hex": "heavy-hex-like"}),
            _N,
            Flag("--dist", "dist", str, "pm1", choices={"pm1": "pm1", "gaussian": "gaussian"}),
            Flag("--cubic-terms", "cubic_terms", int, 0),
            _SEED,
        ),
    ),
    "ev-parking": Family(
        gen_ev_parking, _build_ev_parking, "EV charging/parking scheduling",
        (
            Flag("--sessions", "N", help="number of charging requests"),
            Flag("--intervals", "K", help="number of time intervals"),
            Flag("--spaces", "M", help="parking space capacity"),
            Flag("--energy", "E", help="per-interval power cap"),
            _SEED,
        ),
    ),
    "portfolio": Family(
        gen_portfolio, _build_portfolio, "mean-variance portfolio selection",
        (
            Flag("--assets", "N"),
            Flag("--budget", "B", help="number of assets to pick"),
            Flag("--lam", "lam", float, 1.0),
            _SEED,
        ),
    ),
}
