"""Binary optimization models and lossless conversions between them.

This module holds the representations everything else builds on: quadratic
binary objectives (:class:`QuboModel`), the equivalent spin form
(:class:`IsingModel`), a uniform assignment-to-energy abstraction
(:class:`DiagonalObjective`) shared by generators, solvers, and the
simulator, and linearly constrained models (:class:`ConstrainedModel`) with
their compilation into penalty form (:func:`penalty_encode`).

All model values are immutable after construction and safe to share between
parallel runs; every operation here is a pure function.

Conventions
-----------
* A binary assignment is a sequence of bits ``x`` in ``{0, 1}^n``.  When an
  assignment is packed into an integer index, bit ``i`` of the index is
  variable ``i`` (variable 0 is the least significant bit).
* ``QuboModel.terms`` maps ordered index pairs ``(i, j)`` with ``i <= j`` to
  real coefficients.  A diagonal entry ``(i, i)`` is the linear coefficient
  of ``x_i`` (``x_i^2 = x_i``); an off-diagonal entry is the full coefficient
  of the product ``x_i * x_j``.
* Spins relate to bits via ``z = 1 - 2 x`` (bit 0 is spin +1).

Energy program
--------------
QUBO models, Ising models (kept in spin form) and spin models with cubic
terms compile into one private per-variable program (:class:`_Program`).
The energy is the offset plus one contribution per variable, accumulated in
ascending variable order: variable ``k`` adds ``c_k(x_<k)`` when its bit is
set (bit form), or adds ``d_k(z_<k)`` for spin +1 and subtracts it for spin
-1 (spin form). Each contribution is itself a constant plus the
contributions of lower variables, so a model is a trie of monomials keyed by
their variables in descending order. Three readers share it:

* the full table, built by doubling into one preallocated array:
  ``E[2^k:2^(k+1)] = E[:2^k] + c_k`` for bits, or ``E[:2^k] - d_k`` above
  and ``E[:2^k] + d_k`` below for spins, where ``c_k`` and ``d_k`` are built
  the same way in one reused scratch buffer per level;
* the replay, which prices any array of packed indices with the same
  additions in the same order, skipping the same zero terms, so it equals
  the table element for element;
* ``value()``, the replay on one assignment's bits, which works at any
  width.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "InfeasibleConstraintError",
    "as_count",
    "check_real",
    "QuboModel",
    "IsingModel",
    "DiagonalObjective",
    "LinearConstraint",
    "ConstrainedModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "default_penalty",
    "penalty_encode",
    "density",
    "index_to_bits",
    "bits_to_index",
    "model_to_json",
]

#: Energies are compared in double precision with this tolerance.
ENERGY_TOL = 1e-9

_BITS, _SPINS = frozenset((0, 1)), frozenset((-1, 1))


class InfeasibleConstraintError(ValueError):
    """Raised when a constraint can never be satisfied by any assignment."""


def as_count(name: str, value, least: int | None = 1) -> int:
    """``value`` as an int: the one check for every size, count, index and seed.

    A float or a bool raises ``TypeError`` naming ``name``, a value below
    ``least`` (None for master seeds, which are hashed) ``ValueError``;
    numpy integers pass."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def check_real(name: str, value, positive: bool = False) -> None:
    """Refuse a ``value`` that is not a finite real: the one check for every
    real that qopt is handed.

    A bool or anything that is not a real number, such as a string, raises
    ``TypeError`` naming ``name``; NaN, an infinity, an int beyond the float
    range, and with ``positive`` a value at or below 0, ``ValueError``."""
    # A float skips the ABC test, which costs more than the rest. abs()
    # bounds ints too, which float() would overflow on; NaN fails it.
    error = TypeError
    if isinstance(value, float) or not isinstance(value, bool) and isinstance(value, numbers.Real):
        if abs(value) <= sys.float_info.max and not (positive and value <= 0):
            return
        error = ValueError
    raise error(f"{name} must be a {'positive finite real' if positive else 'finite real'}, got {value!r}")


def _as_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float, once :func:`check_real` has passed it."""
    check_real(name, value, positive)
    return float(value)


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Unpack an assignment index into its bit tuple (variable i at bit i)."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} variables")
    return tuple((index >> i) & 1 for i in range(n))


def bits_to_index(bits: Sequence[int]) -> int:
    """Pack a bit sequence into the integer index (variable i at bit i)."""
    out = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"assignment entry {b!r} at position {i} is not a bit")
        out |= int(b) << i
    return out


def _check_bits(x: Sequence[int], n: int) -> tuple[int, ...]:
    # Entries are checked before ``int`` sees them, so 0.9 is not read as 0.
    bits = tuple(x)
    if len(bits) != n:
        raise ValueError(f"assignment has length {len(bits)}, model has {n} variables")
    if not _BITS.issuperset(bits):
        raise ValueError("assignment entries must be 0 or 1")
    return tuple(map(int, bits))


# A program node is ``(const, ((k, child), ...))`` with ascending ``k``: its
# value is ``const`` followed by each child's contribution, gated by bit k.
_Node = tuple
_REPLAY_BLOCK = 1 << 16  # indices priced per replay pass; bounds the bit masks


def _compile(
    n: int, spin: bool, offset: float, monomials: Iterable[tuple[tuple[int, ...], float]]
) -> "_Program":
    # Monomial (v1 < ... < vd) adds its coefficient to the node reached from
    # the root through vd, then v(d-1), ..., v1; zero coefficients are dropped.
    root: list = [offset, {}]
    for variables, coeff in monomials:
        if coeff == 0.0:
            continue
        node = root
        for v in sorted(variables, reverse=True):
            node = node[1].setdefault(v, [0.0, {}])
        node[0] += coeff

    def freeze(node: list) -> _Node:
        return (node[0], tuple((k, freeze(child)) for k, child in sorted(node[1].items())))

    return _Program(n=n, spin=spin, root=freeze(root))


def _fill(node: _Node, spin: bool, out: np.ndarray, scratch: list[np.ndarray]) -> int:
    # Write the node's value for every pattern of the variables below its
    # last child into out[:2^t] by doubling, and return t. A child that
    # depends only on bits < t' is built over 2^t' patterns into scratch[0]
    # and broadcast over the blocks of the half it is added to.
    const, children = node
    out[0] = const
    size = 1
    for k, child in children:
        while size < 1 << k:
            out[size : 2 * size] = out[:size]
            size *= 2
        lo, hi = out[:size], out[size : 2 * size]
        if child[1]:
            width = 1 << _fill(child, spin, scratch[0], scratch[1:])
            c = scratch[0][:width]
            lo, hi = lo.reshape(-1, width), hi.reshape(-1, width)
        else:
            c = child[0]
        if spin:
            np.subtract(lo, c, out=hi)
            np.add(lo, c, out=lo)
        else:
            np.add(lo, c, out=hi)
        size *= 2
    return size.bit_length() - 1


def _replay(node: _Node, spin: bool, ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    # The same additions as _fill for each column of the (variable, pattern)
    # masks: ``ones[k]`` where bit k is set, ``zeros[k]`` where it is clear.
    const, children = node
    acc = np.full(ones.shape[1], const, dtype=np.float64)
    for k, child in children:
        c = _replay(child, spin, ones, zeros) if child[1] else child[0]
        if spin:
            np.subtract(acc, c, out=acc, where=ones[k])
            np.add(acc, c, out=acc, where=zeros[k])
        else:
            np.add(acc, c, out=acc, where=ones[k])
    return acc


def _replay_one(node: _Node, spin: bool, bits: Sequence[int]) -> float:
    # _replay for one assignment on Python floats, which round like float64.
    const, children = node
    acc = const
    for k, child in children:
        c = _replay_one(child, spin, bits) if child[1] else child[0]
        if spin:
            acc = acc - c if bits[k] else acc + c
        elif bits[k]:
            acc = acc + c
    return acc


def _depth(node: _Node) -> int:
    return 1 + max((_depth(child) for _, child in node[1]), default=0)


@dataclass(frozen=True)
class _Program:
    """Energy as an offset plus per-variable contributions; see the module notes."""

    n: int
    spin: bool
    root: _Node

    def table(self) -> np.ndarray:
        """Energies of all ``2^n`` patterns in index order."""
        out = np.empty(1 << self.n, dtype=np.float64)
        scratch = [np.empty(1 << max(self.n - d, 0)) for d in range(1, _depth(self.root) - 1)]
        size = 1 << _fill(self.root, self.spin, out, scratch)
        while size < out.size:
            out[size : 2 * size] = out[:size]
            size *= 2
        return out

    def at(self, block: np.ndarray) -> np.ndarray:
        """Replay on a 1-D block of packed indices; equal to ``table()[block]``."""
        ones = (block & (np.int64(1) << np.arange(self.n, dtype=np.int64)[:, None])) != 0
        return _replay(self.root, self.spin, ones, ~ones)

    def value(self, bits: Sequence[int]) -> float:
        """Replay on one assignment's bits, at any width."""
        return float(_replay_one(self.root, self.spin, bits))


@dataclass(frozen=True)
class QuboModel:
    """Quadratic binary objective ``min x^T Q x + offset`` over ``{0, 1}^n``.

    ``terms`` maps ordered pairs ``(i, j)`` with ``i <= j`` to coefficients;
    diagonal entries are linear terms.  The sense is always minimization.
    """

    n: int
    terms: Mapping[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_count("variable count", self.n, least=0))
        normalized: dict[tuple[int, int], float] = {}
        for key, coeff in dict(self.terms).items():
            i, j = as_count("term index", key[0], least=0), as_count("term index", key[1], least=0)
            if not (i <= j < self.n):
                raise ValueError(f"term index pair {key} invalid for n={self.n} (need 0 <= i <= j < n)")
            normalized[(i, j)] = _as_real(f"terms[{i}, {j}]", coeff)
        object.__setattr__(self, "terms", normalized)
        object.__setattr__(self, "offset", _as_real("offset", self.offset))

    @classmethod
    def from_entries(
        cls,
        n: int,
        entries: Iterable[tuple[int, int, float]],
        offset: float = 0.0,
    ) -> "QuboModel":
        """Build a model from ``(i, j, coeff)`` entries, accumulating duplicates.

        Index pairs are normalized to ``i <= j``; repeated pairs sum, and a
        pair whose sum is exactly zero is left out of ``terms``.
        """
        acc: dict[tuple[int, int], float] = {}
        for i, j, c in entries:
            key = (min(i, j), max(i, j))
            acc[key] = acc.get(key, 0.0) + _as_real(f"entry ({i}, {j}) coefficient", c)
        return cls(n=n, terms={key: c for key, c in acc.items() if c != 0.0}, offset=offset)

    def energy(self, x: Sequence[int]) -> float:
        """Exact objective value of an assignment, including the offset."""
        bits = _check_bits(x, self.n)
        total = self.offset
        for (i, j), c in self.terms.items():
            total += c * bits[i] * bits[j]
        return total

    def _program(self) -> _Program:
        monomials = (((i,) if i == j else (i, j), c) for (i, j), c in self.terms.items())
        return _compile(self.n, False, self.offset, monomials)

    def quadratic_pairs(self) -> set[tuple[int, int]]:
        """Distinct ``i < j`` pairs with a nonzero coupling coefficient."""
        return {(i, j) for (i, j), c in self.terms.items() if i < j and c != 0.0}

    def as_objective(self) -> "DiagonalObjective":
        """Diagonal-objective view of this model, with itself as ``source``."""
        return DiagonalObjective(n=self.n, source=self, program=self._program())


@dataclass(frozen=True)
class IsingModel:
    """Spin objective ``sum h_i z_i + sum J_ij z_i z_j + offset`` over ``{-1, +1}^n``."""

    n: int
    h: tuple[float, ...] = ()
    J: Mapping[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_count("spin count", self.n, least=0))
        h = self.h.tolist() if isinstance(self.h, np.ndarray) and self.h.ndim == 1 else self.h
        if not isinstance(h, Sequence):
            kind = "a mapping" if isinstance(h, Mapping) else f"a {np.ndim(h)}-D {type(h).__name__}"
            raise TypeError(f"h must be a sequence of {self.n} fields, got {kind}")
        h = tuple(_as_real("h", v) for v in h) if h else (0.0,) * self.n
        if len(h) != self.n:
            raise ValueError(f"field vector has length {len(h)}, model has {self.n} spins")
        couplings: dict[tuple[int, int], float] = {}
        for key, coeff in dict(self.J).items():
            i, j = as_count("coupling index", key[0], least=0), as_count("coupling index", key[1], least=0)
            if not (i < j < self.n):
                raise ValueError(f"coupling pair {key} invalid for n={self.n} (need 0 <= i < j < n)")
            couplings[(i, j)] = _as_real(f"J[{i}, {j}]", coeff)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", couplings)
        object.__setattr__(self, "offset", _as_real("offset", self.offset))

    def energy(self, z: Sequence[int]) -> float:
        """Exact spin energy; entries of ``z`` must be -1 or +1."""
        spins = tuple(z)
        if len(spins) != self.n:
            raise ValueError(f"spin vector has length {len(spins)}, model has {self.n} spins")
        if not _SPINS.issuperset(spins):
            raise ValueError("spin entries must be -1 or +1")
        spins = tuple(map(int, spins))
        total = self.offset
        for i, v in enumerate(spins):
            total += self.h[i] * v
        for (i, j), c in self.J.items():
            total += c * spins[i] * spins[j]
        return total

    def _program(self, cubic: Sequence[tuple[int, int, int, float]] = ()) -> _Program:
        monomials = [((i,), v) for i, v in enumerate(self.h)]
        monomials += [((i, j), c) for (i, j), c in self.J.items()]
        for a, b, c, w in cubic:
            triple = tuple(as_count("cubic term index", v, least=0) for v in (a, b, c))
            if len(set(triple)) != 3 or not all(v < self.n for v in triple):
                raise ValueError(f"cubic term {triple} needs three distinct spins in 0..{self.n - 1}")
            monomials.append((triple, _as_real(f"cubic term {triple} weight", w)))
        return _compile(self.n, True, self.offset, monomials)

    def as_objective(self, cubic: Sequence[tuple[int, int, int, float]] = ()) -> "DiagonalObjective":
        """Diagonal-objective view over bits via ``z = 1 - 2x``, with itself as ``source``.

        ``cubic`` adds ``w z_a z_b z_c`` for each ``(a, b, c, w)``; the view
        is then a polynomial with no quadratic source.
        """
        if cubic:
            return DiagonalObjective(n=self.n, program=self._program(cubic))
        return DiagonalObjective(n=self.n, source=self, program=self._program())


@dataclass(frozen=True, eq=False)
class DiagonalObjective:
    """A pure map from n-bit assignments to finite real energies.

    This is the shared evaluation contract: QUBO, Ising-view, polynomial, and
    native objectives (for example sequence autocorrelation energies) all
    reduce to it. ``program`` computes the energies: an object with
    ``table()`` (all ``2^n`` energies in index order), ``at(block)`` (the
    energies of a 1-D int64 block of packed indices, equal to
    ``table()[block]``) and ``value(bits)`` (one assignment, at any width).
    :meth:`energies_at` is the only caller of ``at``: it checks the indices
    and hands them over in blocks of at most ``2^16``.
    :func:`qopt.simulator.energy_table` is the only caller of ``table``: it
    checks the qubit cap before the ``2^n`` build and caches the result. The
    model views carry the per-variable program described in the module
    notes, so the three are one computation and agree bit for bit.

    ``source`` optionally points at the backing quadratic model so solvers
    can exploit structure.
    """

    n: int
    program: object = field(repr=False)
    source: object | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_count("variable count", self.n, least=0))

    def value(self, x: Sequence[int]) -> float:
        """Energy of one assignment; raises on length or bit-range mismatch."""
        e = float(self.program.value(_check_bits(x, self.n)))
        if not math.isfinite(e):
            raise ValueError(f"objective returned non-finite energy {e!r}")
        return e

    def energies_at(self, indices: np.ndarray) -> np.ndarray:
        """Energies for an array of packed assignment indices in ``[0, 2^n)``.

        Raises ``ValueError`` naming the first index outside that range.
        """
        idx = np.asarray(indices, dtype=np.int64)
        outside = (idx < 0) | (idx >> min(self.n, 63) != 0)
        if outside.any():
            raise ValueError(f"pattern index {idx[outside][0]} is outside [0, 2^{self.n}) for {self.n} variables")
        # Priced in blocks, so the program's (variable, index) temporaries stay bounded.
        flat = idx.ravel()
        out = np.empty(flat.shape, dtype=np.float64)
        for start in range(0, flat.size, _REPLAY_BLOCK):
            out[start : start + _REPLAY_BLOCK] = self.program.at(flat[start : start + _REPLAY_BLOCK])
        return out.reshape(idx.shape)

    def spin_model(self) -> IsingModel | None:
        """Spin form of the quadratic source, or None when there is none.

        An Ising view returns its source itself, a QUBO view
        ``qubo_to_ising(source)``; computed once and cached in ``_cache``.
        """
        if "spin_model" not in self._cache:
            src = self.source
            spin = qubo_to_ising(src) if isinstance(src, QuboModel) else src
            self._cache["spin_model"] = spin if isinstance(spin, IsingModel) else None
        return self._cache["spin_model"]

    def spin_couplings(self) -> tuple[tuple[tuple[int, float], ...], ...] | None:
        """Per variable, its nonzero spin-form couplings as ``(u, J_uv)`` in ascending ``u``; None with no spin form."""
        if "spin_couplings" not in self._cache:
            spin, rows = self.spin_model(), None
            if spin is not None:
                rows = [[] for _ in range(spin.n)]
                for u, v, c in sorted(e for (a, b), c in spin.J.items() if c != 0.0 for e in ((a, b, c), (b, a, c))):
                    rows[u].append((v, c))
            self._cache["spin_couplings"] = rows if rows is None else tuple(map(tuple, rows))
        return self._cache["spin_couplings"]


@dataclass(frozen=True)
class LinearConstraint:
    """One linear row ``coeffs . x (= or <=) bound`` over the binary variables."""

    coeffs: tuple[float, ...]
    bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_as_real("coeffs", c) for c in self.coeffs))
        object.__setattr__(self, "bound", _as_real("bound", self.bound))

    def is_integral(self) -> bool:
        return all(c.is_integer() for c in self.coeffs) and float(self.bound).is_integer()


@dataclass(frozen=True)
class ConstrainedModel:
    """A quadratic objective plus linear equality/inequality constraints.

    Equalities mean ``a . x = b``; inequalities mean ``c . x <= d``.  This is
    the pre-penalty form; :func:`penalty_encode` compiles it to a plain
    :class:`QuboModel`.
    """

    objective: QuboModel
    equalities: tuple[LinearConstraint, ...] = ()
    inequalities: tuple[LinearConstraint, ...] = ()

    def __post_init__(self) -> None:
        eqs = tuple(self.equalities)
        ineqs = tuple(self.inequalities)
        for con in (*eqs, *ineqs):
            if len(con.coeffs) != self.objective.n:
                raise ValueError(
                    f"constraint has {len(con.coeffs)} coefficients, objective has {self.objective.n} variables"
                )
        object.__setattr__(self, "equalities", eqs)
        object.__setattr__(self, "inequalities", ineqs)

    @property
    def n(self) -> int:
        return self.objective.n


def qubo_to_ising(q: QuboModel) -> IsingModel:
    """Exact spin form of a QUBO under ``z = 1 - 2x``; offsets are absorbed."""
    h = [0.0] * q.n
    couplings: dict[tuple[int, int], float] = {}
    offset = q.offset
    for (i, j), c in q.terms.items():
        if i == j:
            # c*x = c/2 - (c/2) z
            offset += c / 2.0
            h[i] -= c / 2.0
        else:
            # c*x_i*x_j = c/4 (1 - z_i - z_j + z_i z_j)
            offset += c / 4.0
            h[i] -= c / 4.0
            h[j] -= c / 4.0
            couplings[(i, j)] = couplings.get((i, j), 0.0) + c / 4.0
    return IsingModel(n=q.n, h=tuple(h), J=couplings, offset=offset)


def ising_to_qubo(m: IsingModel) -> QuboModel:
    """Exact QUBO form of a spin model under ``z = 1 - 2x``."""
    entries = []
    offset = m.offset
    for i, v in enumerate(m.h):
        if v != 0.0:
            # v*z = v - 2v*x
            offset += v
            entries.append((i, i, -2.0 * v))
    for (i, j), c in m.J.items():
        # c*z_i*z_j = c (1 - 2x_i - 2x_j + 4 x_i x_j)
        offset += c
        entries += [(i, i, -2.0 * c), (j, j, -2.0 * c), (i, j, 4.0 * c)]
    return QuboModel.from_entries(m.n, entries, offset)


def default_penalty(q: QuboModel) -> float:
    """Default penalty weight ``1 + sum |coefficients|``.

    This bounds any possible objective swing, so a unit constraint violation
    (the minimum for integral constraint data) always costs more than any
    objective gain.
    """
    return 1.0 + sum(abs(c) for c in q.terms.values())


def penalty_encode(cm: ConstrainedModel, penalty: float | None = None) -> QuboModel:
    """Compile a constrained model into an unconstrained penalty QUBO.

    Each inequality ``c . x <= d`` first becomes an equality
    ``c . x + s = d`` with a binary-expanded slack ``s`` of
    ``max(1, ceil(log2(d - min_x c.x + 1)))`` bits; inequality data must be
    integral or the slack range is undefined.  Every equality ``a . x = b``
    then contributes ``P * (a . x - b)^2``.  Slack bits are appended after the
    original variables in constraint order (inequality order, bit significance
    ascending).

    With the default ``P`` (see :func:`default_penalty`) and integral
    constraint data, the unconstrained optimum restricted to the original
    variables coincides with the constrained optimum.  Real-coefficient
    equalities are accepted, but then a sufficiently large ``penalty`` is the
    caller's responsibility, since violations can be arbitrarily small.

    Raises :class:`InfeasibleConstraintError` for constraints no assignment
    can satisfy (for example ``0 = 1``, or an inequality whose bound is below
    the minimum of its left side).
    """
    if not cm.equalities and not cm.inequalities:
        return cm.objective
    q = cm.objective
    p = _as_real("penalty", default_penalty(q) if penalty is None else penalty, positive=True)

    # Every constraint is normalized into (sparse coefficients, bound) over the
    # extended variable set; inequalities gain slack columns first.
    rows: list[tuple[dict[int, float], float]] = []
    next_var = q.n
    for con in cm.equalities:
        coeffs = {i: c for i, c in enumerate(con.coeffs) if c != 0.0}
        if not coeffs:
            if con.bound != 0.0:
                raise InfeasibleConstraintError(f"constant equality 0 = {con.bound} is infeasible")
            continue
        rows.append((coeffs, con.bound))
    for con in cm.inequalities:
        if not con.is_integral():
            raise ValueError("inequality constraints need integer data; the slack range is undefined otherwise")
        lo = sum(min(c, 0.0) for c in con.coeffs)
        span = int(round(con.bound - lo))
        if span < 0:
            raise InfeasibleConstraintError(
                f"inequality with bound {con.bound} is below the minimum {lo} of its left side"
            )
        coeffs = {i: c for i, c in enumerate(con.coeffs) if c != 0.0}
        bits = max(1, span.bit_length())
        for t in range(bits):
            coeffs[next_var] = float(1 << t)
            next_var += 1
        rows.append((coeffs, con.bound))

    entries = [(i, j, c) for (i, j), c in q.terms.items()]
    offset = q.offset
    for coeffs, bound in rows:
        # P * (sum_i a_i x_i - b)^2, expanded with x_i^2 = x_i.
        offset += p * bound * bound
        items = sorted(coeffs.items())
        for k, (i, a) in enumerate(items):
            entries.append((i, i, p * (a * a - 2.0 * bound * a)))
            entries += [(i, jj, p * 2.0 * a * b2) for jj, b2 in items[k + 1 :]]

    return QuboModel.from_entries(next_var, entries, offset)


def density(model: QuboModel | IsingModel) -> float:
    """Fraction of present quadratic couplings out of ``n (n - 1) / 2``."""
    if model.n < 2:
        raise ValueError(f"density is undefined for n={model.n} (need n >= 2)")
    if isinstance(model, QuboModel):
        pairs = len(model.quadratic_pairs())
    elif isinstance(model, IsingModel):
        pairs = sum(1 for c in model.J.values() if c != 0.0)
    else:
        raise TypeError(f"density needs a quadratic model, got {type(model).__name__}")
    return pairs / (model.n * (model.n - 1) / 2)


def model_to_json(model: QuboModel | ConstrainedModel) -> dict:
    """Canonical JSON form: ``{"n", "terms", "offset"}`` plus ``"constraints"``.

    Terms serialize as sorted ``[i, j, coeff]`` triples; the constraints key is
    present only for constrained models.
    """
    if isinstance(model, ConstrainedModel):
        data = model_to_json(model.objective)
        data["constraints"] = {
            "equalities": [{"coeffs": list(c.coeffs), "bound": c.bound} for c in model.equalities],
            "inequalities": [{"coeffs": list(c.coeffs), "bound": c.bound} for c in model.inequalities],
        }
        return data
    if not isinstance(model, QuboModel):
        raise TypeError(f"cannot serialize {type(model).__name__} with the model schema")
    return {
        "n": model.n,
        "terms": [[i, j, c] for (i, j), c in sorted(model.terms.items())],
        "offset": model.offset,
    }

