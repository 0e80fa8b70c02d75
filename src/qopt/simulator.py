"""Exact statevector simulation of diagonal-Hamiltonian algorithms.

Everything simulated here has a diagonal problem Hamiltonian, so a problem
is fully described by its assignment-to-energy map and the simulator only
ever needs the 2^n energy table plus single-qubit mixing rotations. That
makes the following exact (up to double precision) on a desk-scale machine:

* alternating-operator ansatz states (:func:`qaoa_state`), with plain or
  warm-started mixers, and the exact gradient of their energy
  (:func:`qaoa_value_and_gradient`),
* Trotterized annealing (:func:`anneal_trotter`),
* Gibbs / imaginary-time distributions (:func:`gibbs_distribution`),
* expectation, CVaR, exact sampling, and ground-state overlap.

Conventions
-----------
Amplitudes are indexed by bit pattern with variable ``i`` at bit ``i`` of
the index. A phase layer with angle ``g`` multiplies each amplitude by
``exp(-1j * g * E(x))``. A mixing layer with angle ``beta`` applies the
single-qubit rotation ``[[cos b, i sin b], [i sin b, cos b]]`` (an X-axis
rotation by ``2*beta``) to every qubit; the warm-start variant tilts the
rotation axis per qubit so its initial product state is fixed.

Both layers are exact kernels over the energy table, which
:func:`energy_table` builds once per objective and caches on it: a model
view doubles its per-variable program into one array (see
:mod:`qopt.model`), and an evaluator-only objective prices every index.
The phase takes one complex ``exp`` per distinct energy and gathers it
through each pattern's level index, which equals
``exp(-1j * g * table)`` element for element. The mixer updates each qubit
in place: the bit-flipped partners, scaled by the off-diagonal, go to one
scratch buffer per call, the state is scaled by the diagonal, and the two
are added, so the plus-state mixer
does the same floating-point operations as a plain 2x2 update. Samples
(:class:`SampleSet`) keep the same packing: the distinct measured patterns
are an ascending ``int64`` index array with aligned counts and energies,
and bit tuples appear only in the derived ``counts``/``energies`` views
and in JSON output. The state
size is capped (default 24 qubits, about 256 MiB of amplitudes); the
``QOPT_STATEVECTOR_CAP`` environment variable overrides the cap.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from qopt.model import DiagonalObjective, bits_to_index, index_to_bits

__all__ = [
    "CapacityError",
    "statevector_cap",
    "Statevector",
    "QaoaParams",
    "WarmStart",
    "SampleSet",
    "GibbsTable",
    "energy_table",
    "qaoa_state",
    "qaoa_value_and_gradient",
    "expectation",
    "sample",
    "cvar",
    "anneal_trotter",
    "gibbs_distribution",
    "ground_state_overlap",
    "dump_statevector",
    "load_statevector",
]

DEFAULT_CAP = 24
_CAP_ENV = "QOPT_STATEVECTOR_CAP"
_NORM_TOL = 1e-10
_MAGIC = b"QSV1"
_PACKED_BITS = 62  # widest pattern a SampleSet packs into an int64 index


class CapacityError(RuntimeError):
    """The requested state exceeds the configured qubit cap."""


def statevector_cap() -> int:
    """Current simulator cap in qubits (environment-overridable)."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_cap(n: int) -> None:
    cap = statevector_cap()
    if n > cap:
        raise CapacityError(f"{n} qubits exceed the simulator cap of {cap}")


@dataclass
class Statevector:
    """Dense complex state over ``2^n`` basis patterns (variable i at bit i).

    Operations mutate amplitudes in place for speed; take :meth:`copy` when
    a snapshot is needed. The norm is validated on construction.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"qubit count must be non-negative, got {self.n}")
        _check_cap(self.n)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm^2 is {norm}, not 1")
        self.amplitudes = amps

    @classmethod
    def plus(cls, n: int) -> "Statevector":
        """Uniform superposition |+...+>."""
        _check_cap(n)
        amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
        return cls(n=n, amplitudes=amps)

    @classmethod
    def basis(cls, n: int, bits: Sequence[int]) -> "Statevector":
        """Computational basis state for the given assignment."""
        _check_cap(n)
        if len(bits) != n:
            raise ValueError(f"assignment has length {len(bits)}, expected {n}")
        pattern = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"assignment entry {b!r} at position {i} is not a bit")
            pattern |= int(b) << i
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[pattern] = 1.0
        return cls(n=n, amplitudes=amps)

    def copy(self) -> "Statevector":
        return Statevector(n=self.n, amplitudes=self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles for the alternating-operator ansatz."""

    p: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError(f"layer count must be non-negative, got {self.p}")
        gammas = tuple(float(g) for g in self.gammas)
        betas = tuple(float(b) for b in self.betas)
        if len(gammas) != self.p or len(betas) != self.p:
            raise ValueError(
                f"need exactly p={self.p} angles per list, got {len(gammas)} and {len(betas)}"
            )
        if any(not math.isfinite(v) for v in (*gammas, *betas)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)


@dataclass(frozen=True)
class WarmStart:
    """Warm-started initial state and tilted mixer configuration.

    ``c_star`` holds per-variable relaxed solution values in [0, 1]; each is
    clamped into ``[epsilon, 1 - epsilon]`` before the per-qubit angle
    ``theta_i = 2 asin(sqrt(c_i))`` is taken, so no qubit starts exactly at
    a pole and every basis state keeps nonzero amplitude for epsilon > 0.
    The matching mixer rotates each qubit about its own initial-state axis
    (eigenaxis ``cos(theta) Z + sin(theta) X``), which keeps the initial
    product state stationary under mixing; this is one construction among
    the several the literature sketches.
    """

    c_star: tuple[float, ...]
    epsilon: float = 0.25

    def __post_init__(self) -> None:
        cs = tuple(float(c) for c in self.c_star)
        if any(not 0.0 <= c <= 1.0 for c in cs):
            raise ValueError("relaxed solution values must lie in [0, 1]")
        if not 0.0 <= self.epsilon <= 0.5:
            raise ValueError(f"clamp width must lie in [0, 0.5], got {self.epsilon}")
        object.__setattr__(self, "c_star", cs)

    def thetas(self) -> tuple[float, ...]:
        lo, hi = self.epsilon, 1.0 - self.epsilon
        return tuple(2.0 * math.asin(math.sqrt(min(max(c, lo), hi))) for c in self.c_star)


class SampleSet:
    """Measurement outcomes of ``shots`` basis measurements on ``n`` qubits.

    The sampled patterns are stored as packed basis indices (variable ``i``
    at bit ``i``): ``indices`` is the ascending ``int64`` array of distinct
    patterns that were hit, ``index_counts`` how often each one was drawn,
    and ``index_energies`` (``None`` until :meth:`with_energies`) the energy
    of each. All three arrays are read-only and aligned, and CVaR, sorting
    and best-pattern lookups work on them directly.

    Bit tuples exist only at the edges: the constructor takes tuple-keyed
    ``counts``/``energies`` mappings, and the :attr:`counts` and
    :attr:`energies` properties rebuild such dicts on each access (in index
    order), for output and inspection. Packing limits patterns to 62
    variables.
    """

    __slots__ = ("n", "shots", "seed", "indices", "index_counts", "index_energies")

    def __init__(
        self,
        counts: Mapping[tuple[int, ...], int],
        shots: int,
        seed: int,
        energies: Mapping[tuple[int, ...], float] | None = None,
    ) -> None:
        counts = {tuple(int(b) for b in k): int(v) for k, v in dict(counts).items()}
        if sum(counts.values()) != shots:
            raise ValueError("counts must sum to the shot total")
        lengths = {len(k) for k in counts}
        if len(lengths) > 1:
            raise ValueError("all patterns must have the same length")
        n = lengths.pop() if lengths else 0
        if n > _PACKED_BITS:
            raise ValueError(f"{n}-bit patterns exceed the {_PACKED_BITS}-bit index packing limit")
        patterns = sorted(counts, key=bits_to_index)
        cached = None
        if energies is not None:
            table = {tuple(int(b) for b in k): float(v) for k, v in dict(energies).items()}
            if set(table) != set(counts):
                raise ValueError("cached energies must cover exactly the sampled patterns")
            cached = np.array([table[k] for k in patterns], dtype=np.float64)
        self._fill(
            n,
            np.array([bits_to_index(k) for k in patterns], dtype=np.int64),
            np.array([counts[k] for k in patterns], dtype=np.int64),
            shots,
            seed,
            cached,
        )

    @classmethod
    def _from_arrays(cls, n, indices, index_counts, shots, seed, index_energies=None):
        # Trusted fast path: ``indices`` ascend and the arrays are aligned.
        out = cls.__new__(cls)
        out._fill(n, indices, index_counts, shots, seed, index_energies)
        return out

    def _fill(self, n, indices, index_counts, shots, seed, index_energies) -> None:
        self.n = int(n)
        self.shots = int(shots)
        self.seed = seed
        self.indices = _frozen(indices, np.int64)
        self.index_counts = _frozen(index_counts, np.int64)
        self.index_energies = (
            None if index_energies is None else _frozen(index_energies, np.float64)
        )

    @property
    def counts(self) -> dict[tuple[int, ...], int]:
        """Shot count per sampled bit pattern, in ascending index order."""
        return {
            index_to_bits(i, self.n): c
            for i, c in zip(self.indices.tolist(), self.index_counts.tolist())
        }

    @property
    def energies(self) -> dict[tuple[int, ...], float] | None:
        """Cached energy per sampled bit pattern, or ``None`` if not attached."""
        if self.index_energies is None:
            return None
        return {
            index_to_bits(i, self.n): e
            for i, e in zip(self.indices.tolist(), self.index_energies.tolist())
        }

    def _key(self) -> tuple:
        energies = None if self.index_energies is None else self.index_energies.tobytes()
        return (
            self.n, self.shots, self.seed,
            self.indices.tobytes(), self.index_counts.tobytes(), energies,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"SampleSet(n={self.n}, shots={self.shots}, seed={self.seed}, "
            f"patterns={self.indices.size}, energies={self.index_energies is not None})"
        )

    def with_energies(self, obj: DiagonalObjective) -> "SampleSet":
        """Attach energies under ``obj``, priced in one batched evaluation.

        Raises ``ValueError`` on a variable-count mismatch or if any sampled
        pattern has a non-finite energy.
        """
        _check_variables(self.n, obj)
        return self._priced(obj.energies_at(self.indices))

    def _priced(self, energies) -> "SampleSet":
        # Attach one energy per hit index, refusing any that is not finite.
        energies = np.asarray(energies, dtype=np.float64)
        bad = ~np.isfinite(energies)
        if bad.any():
            raise ValueError(f"evaluator returned non-finite energy {energies[bad][0]!r}")
        return SampleSet._from_arrays(
            self.n, self.indices, self.index_counts, self.shots, self.seed, energies
        )

    def energy_values(self) -> np.ndarray:
        """All sampled energies, one entry per shot, ascending."""
        if self.index_energies is None:
            raise ValueError("no energies cached; attach them with with_energies()")
        out = np.repeat(self.index_energies, self.index_counts)
        out.sort()
        return out

    def best(self) -> tuple[tuple[int, ...], float]:
        """Lowest-energy observed pattern and its energy.

        Ties go to the lexicographically smallest bit tuple, which is not
        the smallest index: ``(0, 1)`` (index 2) beats ``(1, 0)`` (index 1).
        """
        if self.index_energies is None:
            raise ValueError("no energies cached; attach them with with_energies()")
        low = self.index_energies.min()
        ties = self.indices[self.index_energies == low]
        return min(index_to_bits(i, self.n) for i in ties.tolist()), float(low)


def _check_variables(n: int, obj: DiagonalObjective) -> None:
    if obj.n != n:
        raise ValueError(f"samples have {n} variables, objective has {obj.n}")


def _frozen(values, dtype) -> np.ndarray:
    # A private read-only copy, so no caller can edit a set after the fact.
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GibbsTable:
    """Exact Gibbs distribution of a diagonal objective.

    ``z`` may overflow to inf for extreme ``beta * energy`` products;
    ``log_z`` is always finite and exact. With imaginary-time evolution for
    time ``tau``, amplitudes are suppressed by ``exp(-tau E)``, so the
    resulting measurement distribution equals this table at ``beta = 2 tau``.
    """

    beta: float
    probabilities: np.ndarray
    z: float
    log_z: float


def _cached_table(obj: DiagonalObjective) -> np.ndarray | None:
    # The table energy_table cached on obj, without building one.
    return obj._cache.get("energy_table")


def energy_table(obj: DiagonalObjective) -> np.ndarray:
    """Full 2^n energy table for ``obj``, cached on the objective.

    The objective builds it: a model view doubles its per-variable program
    into one array, and an evaluator-only objective prices every index.
    """
    table = _cached_table(obj)
    if table is None:
        _check_cap(obj.n)
        table = obj.table()
        table.setflags(write=False)
        obj._cache["energy_table"] = table
    return table


def _energy_levels(obj: DiagonalObjective) -> tuple[np.ndarray, np.ndarray]:
    """Distinct energies of ``obj`` and each pattern's position among them.

    ``levels[level_of]`` reproduces :func:`energy_table` exactly; both arrays
    are cached on the objective next to the table.
    """
    found = obj._cache.get("energy_levels")
    if found is None:
        levels, level_of = np.unique(energy_table(obj), return_inverse=True)
        levels.setflags(write=False)
        level_of.setflags(write=False)
        found = obj._cache["energy_levels"] = (levels, level_of)
    return found


def _energy_order(obj: DiagonalObjective) -> tuple[np.ndarray, np.ndarray]:
    """A stable ascending order of :func:`energy_table` and the table in it.

    Both arrays are cached on the objective next to the table.
    """
    found = obj._cache.get("energy_order")
    if found is None:
        table = energy_table(obj)
        order = np.argsort(table, kind="stable")
        ordered = table[order]
        order.setflags(write=False)
        ordered.setflags(write=False)
        found = obj._cache["energy_order"] = (order, ordered)
    return found


def _apply_phase(amps: np.ndarray, levels: np.ndarray, level_of: np.ndarray, angle: float) -> None:
    # One complex exp per distinct energy, then a gather: element for element
    # this is exp(-1j * angle * table), since levels[level_of] == table.
    amps *= np.exp(-1j * angle * levels)[level_of]


def _apply_mixer(
    amps: np.ndarray,
    scratch: np.ndarray,
    n: int,
    beta: float,
    thetas: Sequence[float] | None = None,
) -> None:
    # One 2x2 rotation per qubit, in place. Bit i has stride 2^i, so axis 1 of
    # the (high, 2, low) reshape addresses exactly that qubit and reversing it
    # pairs every amplitude with its bit-flipped partner. Per qubit: the
    # partner times the off-diagonal goes to ``scratch``, the state is scaled
    # by the diagonal, and the two are added; ``scratch`` is a caller-owned
    # buffer of the state's size.
    cb = math.cos(beta)
    isb = 1j * math.sin(beta)
    for i in range(n):
        shape = (1 << (n - 1 - i), 2, 1 << i)
        view = amps.reshape(shape)
        flipped = scratch.reshape(shape)
        if thetas is None:
            np.multiply(view[:, ::-1, :], isb, out=flipped)
            view *= cb
        else:
            ct, st = math.cos(thetas[i]), math.sin(thetas[i])
            np.multiply(view[:, ::-1, :], isb * st, out=flipped)
            view[:, 0, :] *= cb + isb * ct
            view[:, 1, :] *= cb - isb * ct
        view += flipped


def _apply_generator(out: np.ndarray, amps: np.ndarray, n: int, thetas: Sequence[float] | None) -> None:
    # ``out = B @ amps`` for the mixer's generator ``B = sum_i B_i``, so that
    # the mixing layer is ``exp(1j * beta * B)``: ``B_i = X_i``, or
    # ``cos(theta_i) Z_i + sin(theta_i) X_i`` under a warm start. Same
    # (high, 2, low) views as :func:`_apply_mixer`.
    out[:] = 0.0
    for i in range(n):
        shape = (1 << (n - 1 - i), 2, 1 << i)
        src = amps.reshape(shape)
        dst = out.reshape(shape)
        if thetas is None:
            dst += src[:, ::-1, :]
        else:
            ct, st = math.cos(thetas[i]), math.sin(thetas[i])
            dst += st * src[:, ::-1, :]
            dst[:, 0, :] += ct * src[:, 0, :]
            dst[:, 1, :] -= ct * src[:, 1, :]


def _initial_state(obj: DiagonalObjective, initial) -> tuple[Statevector, tuple[float, ...] | None]:
    if initial == "plus" or initial is None:
        return Statevector.plus(obj.n), None
    if isinstance(initial, WarmStart):
        if len(initial.c_star) != obj.n:
            raise ValueError(
                f"warm start has {len(initial.c_star)} entries for {obj.n} variables"
            )
        thetas = initial.thetas()
        amps = np.ones(1, dtype=np.complex128)
        for theta in thetas:
            qubit = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=np.complex128)
            # Later qubits vary slower, matching bit i at stride 2^i.
            amps = np.kron(qubit, amps)
        return Statevector(n=obj.n, amplitudes=amps), thetas
    raise ValueError(f"unknown initial state {initial!r}; use 'plus' or a WarmStart")


def qaoa_state(
    obj: DiagonalObjective,
    params: QaoaParams,
    initial: str | WarmStart = "plus",
) -> Statevector:
    """State after ``p`` alternating phase/mixing layers.

    Layer ``j`` multiplies amplitudes by ``exp(-1j * gamma_j * E(x))`` and
    then rotates every qubit by ``2 * beta_j`` about X (or about its tilted
    warm-start axis). ``p = 0`` returns the initial state unchanged.
    """
    sv, thetas = _initial_state(obj, initial)
    if params.p == 0:
        return sv
    levels, level_of = _energy_levels(obj)
    scratch = np.empty_like(sv.amplitudes)
    for gamma, beta in zip(params.gammas, params.betas):
        _apply_phase(sv.amplitudes, levels, level_of, gamma)
        _apply_mixer(sv.amplitudes, scratch, sv.n, beta, thetas)
    return sv


def qaoa_value_and_gradient(
    obj: DiagonalObjective,
    params: QaoaParams,
    initial: str | WarmStart = "plus",
) -> tuple[float, np.ndarray]:
    """Energy expectation of :func:`qaoa_state` and its exact gradient.

    The gradient is ordered like the angles: ``p`` entries for the gammas,
    then ``p`` for the betas. It comes from the adjoint method (Jones and
    Gacon, arXiv:2009.02823): one forward pass, the co-state ``lam = E psi``,
    and a backward walk that un-applies each layer (negated angle) on both
    ``psi`` and ``lam``, so memory stays at a few states for any ``p``. With
    the mixer ``exp(1j * beta * B)`` and the phase ``exp(-1j * gamma * E)``,
    ``d/d beta_j = 2 Re <lam|iB|psi>`` and ``d/d gamma_j = 2 Re <lam|-iE|psi>``.
    The value equals ``expectation(qaoa_state(obj, params, initial), obj)``
    bit for bit.
    """
    sv = qaoa_state(obj, params, initial)
    thetas = initial.thetas() if isinstance(initial, WarmStart) else None
    p, n, psi = params.p, sv.n, sv.amplitudes
    value = expectation(sv, obj)
    table = energy_table(obj)
    levels, level_of = _energy_levels(obj)
    lam = table * psi
    scratch = np.empty_like(psi)
    grad = np.zeros(2 * p)
    for j in reversed(range(p)):
        # psi is the state after layer j, lam the co-state pulled back to it.
        _apply_generator(scratch, psi, n, thetas)
        grad[p + j] = -2.0 * np.vdot(lam, scratch).imag
        _apply_mixer(psi, scratch, n, -params.betas[j], thetas)
        _apply_mixer(lam, scratch, n, -params.betas[j], thetas)
        np.multiply(psi, table, out=scratch)
        grad[j] = 2.0 * np.vdot(lam, scratch).imag
        if j:
            _apply_phase(psi, levels, level_of, -params.gammas[j])
            _apply_phase(lam, levels, level_of, -params.gammas[j])
    return value, grad


def expectation(sv: Statevector, obj: DiagonalObjective) -> float:
    """Exact energy expectation ``sum |amp(x)|^2 E(x)``."""
    if sv.n != obj.n:
        raise ValueError(f"state has {sv.n} qubits, objective has {obj.n} variables")
    return float(sv.probabilities() @ energy_table(obj))


def sample(
    sv: Statevector,
    shots: int,
    seed: int = 0,
    obj: DiagonalObjective | None = None,
) -> SampleSet:
    """Aggregate ``shots`` i.i.d. basis measurements of the state.

    Deterministic given the seed: one multinomial draw over the basis
    probabilities, whose nonzero entries become the result's ascending
    ``indices`` and ``index_counts``. When ``obj`` is passed, the hit
    patterns are priced by one gather from ``energy_table(obj)`` (which fits,
    since the state does) and cached on the result, which CVaR and the
    solvers need.
    """
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    probs = sv.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    hit = np.flatnonzero(draws)
    out = SampleSet._from_arrays(sv.n, hit, draws[hit], shots, seed)
    if obj is None:
        return out
    _check_variables(sv.n, obj)
    return out._priced(energy_table(obj)[hit])


def cvar(
    values: SampleSet | Statevector,
    alpha: float,
    obj: DiagonalObjective | None = None,
) -> float:
    """Average of the best (lowest-energy) alpha-fraction.

    For a :class:`SampleSet`, expands the cached per-index energies to one
    entry per shot, sorts them ascending and averages the lowest
    ``ceil(alpha * shots)``, without building the bit-tuple views;
    ``alpha = 1`` is the plain mean, and any alpha small enough to include
    a single sample returns the best observed energy. For a :class:`Statevector` (with ``obj``), the
    same tail average is taken over the exact distribution, splitting the
    boundary pattern fractionally.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if isinstance(values, SampleSet):
        if values.index_energies is None:
            if obj is None:
                raise ValueError("sample set has no cached energies; pass obj")
            values = values.with_energies(obj)
        energies = values.energy_values()
        take = math.ceil(alpha * values.shots)
        return float(energies[:take].mean())
    if isinstance(values, Statevector):
        if obj is None:
            raise ValueError("computing CVaR from a state requires the objective")
        if values.n != obj.n:
            raise ValueError(f"state has {values.n} qubits, objective has {obj.n} variables")
        order, sorted_e = _energy_order(obj)
        sorted_p = values.probabilities()[order]
        cum = np.cumsum(sorted_p)
        # Everything strictly below the alpha boundary is taken in full, the
        # boundary state contributes the leftover fraction.
        k = int(np.searchsorted(cum, alpha, side="left"))
        full = sorted_p[:k] @ sorted_e[:k]
        taken = float(cum[k - 1]) if k > 0 else 0.0
        if k < len(sorted_e):
            full += (alpha - taken) * sorted_e[k]
        return float(full / alpha)
    raise TypeError(f"cannot compute CVaR of {type(values).__name__}")


def anneal_trotter(
    obj: DiagonalObjective,
    T: float,
    steps: int,
    schedule: Callable[[float], float] | None = None,
) -> Statevector:
    """First-order Trotterized anneal from the uniform state.

    The interpolating generator is ``lam * H_problem`` against the standard
    transverse mixer weighted by ``1 - lam``, discretized at step midpoints:
    step ``k`` applies a phase layer with angle ``dt * lam(t_k / T)`` and a
    mixing layer with X-rotation angle ``2 * dt * (1 - lam(t_k / T))`` where
    ``t_k = (k + 1/2) dt``. The schedule must satisfy ``lam(0) = 0`` and
    ``lam(1) = 1``; it defaults to linear.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"total time must be positive and finite, got {T}")
    if schedule is None:
        schedule = lambda s: s  # noqa: E731 - the linear ramp
    lam0, lam1 = float(schedule(0.0)), float(schedule(1.0))
    if abs(lam0) > 1e-12 or abs(lam1 - 1.0) > 1e-12:
        raise ValueError(f"schedule must run from 0 to 1, got lam(0)={lam0}, lam(1)={lam1}")
    sv = Statevector.plus(obj.n)
    levels, level_of = _energy_levels(obj)
    scratch = np.empty_like(sv.amplitudes)
    dt = T / steps
    for k in range(steps):
        lam = float(schedule((k + 0.5) / steps))
        _apply_phase(sv.amplitudes, levels, level_of, dt * lam)
        _apply_mixer(sv.amplitudes, scratch, sv.n, dt * (1.0 - lam))
    return sv


def gibbs_distribution(obj: DiagonalObjective, beta: float) -> GibbsTable:
    """Exact Gibbs weights ``exp(-beta E(x)) / Z`` over all assignments.

    Weights are computed against the shifted exponent ``-beta (E - E_min)``
    so the largest weight is exactly 1 and nothing overflows; ``log_z`` is
    exact, ``z`` may round to inf for extreme products.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")
    table = energy_table(obj)
    shifted = -beta * (table - table.min())
    weights = np.exp(shifted)
    total = weights.sum()
    probs = weights / total
    log_z = float(logsumexp(-beta * table))
    with np.errstate(over="ignore"):
        z = float(np.exp(np.float64(log_z)))
    return GibbsTable(beta=beta, probabilities=probs, z=z, log_z=log_z)


def ground_state_overlap(sv: Statevector, obj: DiagonalObjective, tol: float = 1e-9) -> float:
    """Probability mass the state puts on the exact argmin set."""
    if sv.n != obj.n:
        raise ValueError(f"state has {sv.n} qubits, objective has {obj.n} variables")
    table = energy_table(obj)
    mask = table <= table.min() + tol
    return float(sv.probabilities()[mask].sum())


def dump_statevector(sv: Statevector, path) -> None:
    """Debug dump: magic, qubit count, then little-endian amplitude pairs."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _MAGIC, sv.n))
        fh.write(sv.amplitudes.astype("<c16").tobytes())


def load_statevector(path) -> Statevector:
    """Inverse of :func:`dump_statevector`."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("truncated statevector file")
        magic, n = struct.unpack("<4sI", header)
        if magic != _MAGIC:
            raise ValueError(f"not a statevector file (magic {magic!r})")
        data = fh.read()
    amps = np.frombuffer(data, dtype="<c16")
    if amps.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} amplitudes, found {amps.shape[0]}")
    return Statevector(n=n, amplitudes=amps.astype(np.complex128))
