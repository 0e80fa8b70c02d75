"""Exact statevector simulation of diagonal-Hamiltonian algorithms.

Everything simulated here has a diagonal problem Hamiltonian, so a problem
is fully described by its assignment-to-energy map and the simulator only
ever needs the 2^n energy table plus single-qubit mixing rotations. That
makes the following exact (up to double precision) on a desk-scale machine:

* alternating-operator ansatz states (:func:`qaoa_state`) from the plus
  state, and the exact gradient of their energy
  (:func:`qaoa_value_and_gradient`),
* the depth-1 plus-state energy of a QUBO or Ising source in closed form,
  for many angle pairs at once and without a statevector
  (:func:`qaoa_p1_energy`); mean-mode QAOA training scores its p=1 grid
  and takes its p=1 gradients from it,
* Trotterized annealing (:func:`anneal_trotter`),
* Gibbs / imaginary-time distributions (:func:`gibbs_distribution`),
* expectation, CVaR, exact sampling, and ground-state overlap.

Conventions
-----------
Amplitudes are indexed by bit pattern with variable ``i`` at bit ``i`` of
the index. A phase layer with angle ``g`` multiplies each amplitude by
``exp(-1j * g * E(x))``. A mixing layer with angle ``beta`` applies the
single-qubit rotation ``[[cos b, i sin b], [i sin b, cos b]]`` (an X-axis
rotation by ``2*beta``) to every qubit.

Both layers are exact kernels over the energy table, which
:func:`energy_table` builds once per objective and caches on it from the
objective's program (a model view doubles its per-variable program into
one array; see :mod:`qopt.model`).
The phase takes one complex ``exp`` per distinct energy and gathers it
through each pattern's level index into the run's scratch buffer, which
equals ``exp(-1j * g * table)`` element for element. The mixer and its
generator ``B = sum_i X_i`` share one layer kernel, which applies the
qubits in order, a group at a time. A state below 2^12 amplitudes is one
group, updated in place. A larger one is cut into groups of at most 9
qubits, each applied to cache-sized tiles of at most 2^15 amplitudes
(512 KiB), gathered into a contiguous buffer so that every qubit of the
group has a contiguous run of at least 64 amplitudes; the lowest group's
tiles are transposed, and the top group of a state of at most two tiles
stays in place. Per qubit, the bit-flipped partners, scaled by the
off-diagonal, go to a buffer, the state is scaled by the diagonal, and the
two are added, so however it is tiled, each amplitude goes through the
same floating-point operations as in a plain 2x2 update, qubit by qubit.
The mixer's tiles live in the caller's scratch buffer; the generator
gathers into at most two tiles of its own.

A layered run on an objective of two or more variables whose table equals
its own reverse bit for bit, ``E(x) == E(not x)`` for every pattern (MaxCut,
spin glasses without fields, LABS), runs *folded* on half the statevector
(Shaydulin, Hadfield, Hogg and Safro, arXiv:2012.04713). The plus state, the
phase and the X mixer all commute with flipping every bit, so amplitude
``2^n - 1 - x`` always equals amplitude ``x`` and only the lower half,
``x < 2^(n-1)``, is kept. One cached array describes the fold:
:func:`_kept_table` is the table's lower half on such an objective and the
whole table otherwise. A run starts with one amplitude per entry of it, and
its phases and energy sums read it. Brute force and Grover scan it and hand
the positions they find to :func:`_unfold`, which returns the ascending
patterns they stand for (on a half, each position and its complement), so
neither does mirror arithmetic; brute force keeps its optimum set as packed
``int64`` indices, as a sample set does. Qubits
``0..n-2`` are updated exactly as in a full run; under qubit ``n-1`` the
partner of ``x`` is the mirror of its upper partner, ``2^(n-1) - 1 - x``, so
the update reads the half reversed. The kernels recognise a folded state
from its size alone. Every sum over the 2^n patterns first rebuilds the full
array of its terms as the half followed by its mirror, so it adds the same
numbers in the same order as a full run. By induction over the layers each
kept amplitude goes through the same floating-point operations as in the
full run, and the dropped half stays its exact mirror, so states, values and
gradients are bit-identical. :func:`qaoa_state` and :func:`anneal_trotter`
still return the full state; objectives that are not mirrors keep the full
run.

Samples (:class:`SampleSet`) keep the same packing: a sample set is its
arrays, the distinct measured patterns as a strictly ascending ``int64``
index array with aligned counts and energies. :func:`sample` always takes
the objective and prices the hit patterns from its cached table, so no set
exists without energies; bit patterns appear only where a result is
reported (:meth:`SampleSet.best` and JSON output). :func:`sample`,
:func:`cvar` of a sample set and the sampled CVaR evaluations of
:func:`qopt.solvers.qaoa_solve` share three steps: the probabilities
``|amp|^2`` of a full or folded run, mirrored to 2^n and divided by their
sum once that norm^2 is checked; one seeded multinomial draw; and the mean
of the lowest shots' energies. A training evaluation runs them on its
run's amplitudes and builds no :class:`Statevector` or :class:`SampleSet`.
The state size is capped (default 24 qubits, about 256 MiB of
amplitudes); the ``QOPT_STATEVECTOR_CAP`` environment variable overrides
the cap.

Every reduction over the 2^n amplitudes (the expectation, the gradient's
inner products, CVaR of a state, and in :mod:`qopt.solvers` the pair
correlations) is an elementwise product followed by numpy's ``sum``, never
a BLAS dot. numpy sums one array in a fixed pairwise order on one thread.
OpenBLAS splits a long dot across its thread pool, so the rounding of the
result would follow the host's CPU count (or ``OPENBLAS_NUM_THREADS``) and
a replay from the same seed could end on different angles; waking the pool
also costs more than the sum.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qopt.model import (
    ENERGY_TOL,
    DiagonalObjective,
    _as_real,
    as_count,
    bits_to_index,
    check_real,
    index_to_bits,
)

__all__ = [
    "CapacityError",
    "statevector_cap",
    "Statevector",
    "QaoaParams",
    "SampleSet",
    "energy_table",
    "qaoa_state",
    "qaoa_value_and_gradient",
    "qaoa_p1_energy",
    "expectation",
    "sample",
    "cvar",
    "anneal_trotter",
    "gibbs_distribution",
    "ground_state_overlap",
]

DEFAULT_CAP = 24
_CAP_ENV = "QOPT_STATEVECTOR_CAP"
_NORM_TOL = 1e-10
_PACKED_BITS = 62  # widest pattern a SampleSet packs into an int64 index
_TILE_BITS = 15  # a layer-kernel tile holds at most 2^15 amplitudes (512 KiB)
_RUN_BITS = 6  # shortest contiguous run a tile leaves any qubit: 2^6 amplitudes


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
    if as_count("qubit count", n, least=0) > cap:
        raise CapacityError(f"{n} qubits exceed the simulator cap of {cap}")


@dataclass
class Statevector:
    """Dense complex state over ``2^n`` basis patterns (variable i at bit i).

    No qopt function writes into a state's amplitudes: each operation
    returns a new state or a number. The norm is validated on construction.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.n = as_count("qubit count", self.n, least=0)
        _check_cap(self.n)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        _probabilities(amps, self.n)  # checks the norm
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
        pattern = bits_to_index(bits)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[pattern] = 1.0
        return cls(n=n, amplitudes=amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles for the alternating-operator ansatz."""

    p: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_count("layer count", self.p, least=0))
        gammas = tuple(_as_real("gammas", g) for g in self.gammas)
        betas = tuple(_as_real("betas", b) for b in self.betas)
        if len(gammas) != self.p or len(betas) != self.p:
            raise ValueError(
                f"need exactly p={self.p} angles per list, got {len(gammas)} and {len(betas)}"
            )
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Measurement outcomes of ``shots`` basis measurements on ``n`` qubits.

    The sampled patterns are stored as packed basis indices (variable ``i``
    at bit ``i``): ``indices`` is the strictly ascending ``int64`` array of
    distinct patterns that were hit, ``index_counts`` how often each one was
    drawn, and ``index_energies`` the energy of each; every set carries its
    energies. The constructor checks the seed (at least 0) and the arrays
    (at least one shot, indices in ``[0, 2^n)``, aligned shapes, counts of
    at least 1 that sum to ``shots``, finite energies) and keeps read-only
    copies, so CVaR, sorting and best-pattern lookups work on them directly.
    Packing limits patterns to 62 variables.
    """

    n: int
    shots: int
    seed: int
    indices: np.ndarray
    index_counts: np.ndarray
    index_energies: np.ndarray

    def __post_init__(self) -> None:
        for name, least in (("n", None), ("shots", 1), ("seed", 0)):
            object.__setattr__(self, name, as_count(name, getattr(self, name), least))
        if not 0 <= self.n <= _PACKED_BITS:
            raise ValueError(f"{self.n}-bit patterns do not fit the {_PACKED_BITS}-bit index packing limit")
        indices = _frozen(self.indices, np.int64)
        counts = _frozen(self.index_counts, np.int64)
        if indices.ndim != 1 or counts.shape != indices.shape:
            raise ValueError(f"indices {indices.shape} and counts {counts.shape} must be aligned 1-D arrays")
        if indices.size and (indices[0] < 0 or indices[-1] >= 1 << self.n):
            raise ValueError(f"pattern indices must lie in [0, 2^{self.n})")
        if (indices[1:] <= indices[:-1]).any():
            raise ValueError("pattern indices must be strictly ascending")
        if (counts < 1).any():
            raise ValueError("every sampled pattern needs a count of at least 1")
        if counts.sum() != self.shots:
            raise ValueError("counts must sum to the shot total")
        energies = _frozen(self.index_energies, np.float64)
        if energies.shape != indices.shape:
            raise ValueError(f"energies {energies.shape} must align with indices {indices.shape}")
        bad = ~np.isfinite(energies)
        if bad.any():
            raise ValueError(f"sampled pattern {indices[bad][0]} has non-finite energy {energies[bad][0]!r}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "index_counts", counts)
        object.__setattr__(self, "index_energies", energies)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        return (
            self.n, self.shots, self.seed,
            self.indices.tobytes(), self.index_counts.tobytes(), self.index_energies.tobytes(),
        )

    def energy_values(self) -> np.ndarray:
        """All sampled energies, one entry per shot, ascending."""
        out = np.repeat(self.index_energies, self.index_counts)
        out.sort()
        return out

    def best(self) -> tuple[tuple[int, ...], float]:
        """Lowest-energy observed pattern and its energy.

        Ties go to the lexicographically smallest bit tuple, which is not
        the smallest index: ``(0, 1)`` (index 2) beats ``(1, 0)`` (index 1).
        """
        low = self.index_energies.min()
        ties = self.indices[self.index_energies == low]
        return min(index_to_bits(i, self.n) for i in ties.tolist()), float(low)


def _check_state(sv: Statevector, obj: DiagonalObjective) -> None:
    if sv.n != obj.n:
        raise ValueError(f"state has {sv.n} qubits, objective has {obj.n} variables")


def _frozen(values, dtype) -> np.ndarray:
    # A private read-only copy, so no caller can edit a set after the fact.
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def energy_table(obj: DiagonalObjective) -> np.ndarray:
    """Full 2^n energy table for ``obj``, cached on the objective.

    The only public way to a table: the current qubit cap is checked on
    every call, before the objective's program builds the table (a model
    view doubles its per-variable program into one array) and before a
    cached one is read, so a table cached under a higher cap is not read
    under a lower one.
    """
    _check_cap(obj.n)
    table = obj._cache.get("energy_table")
    if table is None:
        table = obj.program.table()
        table.setflags(write=False)
        obj._cache["energy_table"] = table
    return table


def _energy_levels(obj: DiagonalObjective) -> tuple[np.ndarray, np.ndarray]:
    """Distinct energies of ``obj`` and each pattern's position among them.

    ``levels[level_of]`` reproduces :func:`_kept_table`, the part of the
    table that every layered run reads (see the module docstring); a lower
    half holds every distinct energy, since the upper half is its mirror.
    Both arrays are cached on the objective next to the table.
    """
    found = obj._cache.get("energy_levels")
    if found is None:
        levels, level_of = np.unique(_kept_table(obj), return_inverse=True)
        # ``level_of`` stays writeable: np.take copies read-only indices.
        levels.setflags(write=False)
        found = obj._cache["energy_levels"] = (levels, level_of)
    return found


def _kept_table(obj: DiagonalObjective) -> np.ndarray:
    """The read-only lower half of :func:`energy_table` if the table equals
    its own reverse bit for bit, else the table itself; cached on the objective.

    Reversing the table maps each pattern to its complement, so the half is
    kept when ``E(x) == E(not x)`` for every ``x``: a layered run is then
    folded (see the module docstring), and brute force and Grover scan only
    the half. Below two variables the table is kept whole: a folded run would
    hold one amplitude, numpy multiplies a one-element array in place on
    another loop than longer arrays, and the two can round a complex product
    differently, so the fold would not be bit-identical (nor save anything).

    :func:`energy_table` is called first, so the cap is checked on every
    call. Each mirror pair is compared once, as int64 bits.
    """
    table = energy_table(obj)
    kept = obj._cache.get("kept_table")
    if kept is None:
        bits, half = table.view(np.int64), table.size // 2
        mirror = obj.n >= 2 and np.array_equal(bits[:half], bits[: half - 1 : -1])
        kept = obj._cache["kept_table"] = table[:half] if mirror else table
    return kept


def _unfold(obj: DiagonalObjective, positions: np.ndarray) -> np.ndarray:
    """The ascending patterns that ascending positions of :func:`_kept_table`
    stand for: the positions themselves, followed, when the kept table is
    the lower half, by their complements ``2^n - 1 - x`` in reverse order."""
    if _kept_table(obj).size == 1 << obj.n:
        return positions
    return np.concatenate([positions, ((1 << obj.n) - 1) - positions[::-1]])


def _folded(amps: np.ndarray, n: int) -> bool:
    # A folded run holds the lower half of a mirror-symmetric 2^n array.
    return n >= 2 and amps.size == 1 << (n - 1)


def _whole(values: np.ndarray, n: int) -> np.ndarray:
    # The 2^n array that ``values`` stands for: a folded half is followed by
    # its mirror image, since pattern 2^n - 1 - x is the complement of x.
    return np.concatenate([values, values[::-1]]) if _folded(values, n) else values


def _apply_phase(amps: np.ndarray, scratch: np.ndarray, levels: np.ndarray, level_of: np.ndarray, angle: float) -> None:
    # One complex exp per distinct energy, gathered into ``scratch`` (a
    # caller-owned buffer of the state's size) and multiplied in: element for
    # element this is exp(-1j * angle * kept) for the run's kept table, since
    # levels[level_of] == kept.
    # Nothing else of the state's size is allocated: the levels are made
    # complex before the product, so numpy casts no buffer for it; the exp
    # is taken in place; and the indices are in range, so mode "wrap"
    # gathers the same values, where the default "raise" would gather into
    # a temporary first.
    phases = levels.astype(np.complex128)
    phases *= -1j * angle
    np.exp(phases, out=phases)
    np.take(phases, level_of, out=scratch, mode="wrap")
    amps *= scratch


@functools.cache
def _groups(m: int) -> tuple[tuple[int, int], ...]:
    """The qubit ranges ``[s, e)`` the layer kernel applies one group at a time.

    Each group is small enough that a tile of ``2^_TILE_BITS`` amplitudes
    (or the whole state, if smaller) leaves every qubit of the group a
    contiguous run of at least ``2^_RUN_BITS`` amplitudes.
    """
    count = -(-m // (min(m, _TILE_BITS) - _RUN_BITS))
    bounds = [m * i // count for i in range(count + 1)]
    return tuple(zip(bounds, bounds[1:]))


@functools.cache
def _block_shapes(size: int, g: int) -> tuple[tuple[int, int, int], ...]:
    # The (blocks, 2, half) view of a ``size``-long array for each of its top
    # ``g`` bits, lowest first.
    return tuple((1 << (g - 1 - i), 2, size >> (g - i)) for i in range(g))


def _apply_x(src: np.ndarray, dst: np.ndarray, n: int, beta: float | None = None) -> None:
    """The layer kernel: the mixer on ``src`` in place, or the generator into ``dst``.

    With an angle, ``src`` becomes ``exp(1j * beta * B) src`` and ``dst``,
    the caller's buffer of the state's size, is scratch. With ``beta`` None,
    ``dst`` becomes ``B src`` for ``B = sum_i X_i`` and ``src`` is left as
    it is. A folded state (see the module docstring) takes qubit ``n-1``
    last, against its mirror.

    The qubits go in order, one group of :func:`_groups` at a time (below
    ``2^(2 * _RUN_BITS)`` amplitudes, one group in place). Each tile, the
    group's ``2^g`` patterns by a block of the other bits, is gathered into
    a contiguous buffer whose top bits are the group's, updated there and
    written back; the lowest group's tiles are transposed blocks, and the
    top group of a state of at most two tiles needs no gather. The mixer's
    buffers are two tiles of ``dst`` (or ``dst`` and ``src`` itself when
    one tile is the whole state); the generator's are one or two tiles of
    its own.

    Per qubit, bit i of the group splits the tile into blocks of two halves,
    and reversing the halves pairs every amplitude with its bit-flipped
    partner. The mixer puts the partners times ``i sin beta`` in a buffer,
    scales the tile by ``cos beta`` and adds the two: the same operations as
    a plain 2x2 update. The generator adds the partners to a sum that starts
    at zero.
    """
    size = src.size
    m = size.bit_length() - 1
    mix = beta is not None
    cb = isb = None
    if mix:
        # numpy scalars of the values a Python float and complex would be
        # converted to, which saves that conversion on every call.
        cb = np.complex128(math.cos(beta))
        isb = np.complex128(1j * math.sin(beta))
    if m < 2 * _RUN_BITS:
        groups, tile = ((0, m),), size
        if not mix:
            dst.fill(0.0)
    else:
        groups, tile = _groups(m), min(size, 1 << _TILE_BITS)
        if mix:
            buf, sums = (dst, src) if tile == size else (dst[:tile], dst[tile : 2 * tile])
        else:
            buf = dst if tile == size else np.empty(tile, dtype=np.complex128)
            sums = np.empty(tile, dtype=np.complex128)
    for s, e in groups:
        g = e - s
        if e == m and size <= 2 * tile:
            # The top group of a state that fits two tiles is updated in
            # place: its runs are long, and the state with its partners
            # stays in cache, so a gather would only add passes.
            corners = (None,)
        else:
            width = min(1 << s, tile >> g)
            rows = (tile >> g) // width
            shape = (1 << g, rows, width)
            src3 = src.reshape(-1, 1 << g, 1 << s)
            dst3 = dst.reshape(-1, 1 << g, 1 << s)
            corners = [(h, c) for h in range(0, src3.shape[0], rows) for c in range(0, 1 << s, width)]
        for corner in corners:
            if corner is None:
                tile_src, tile_dst, partner = src, src if mix else dst, dst if mix else None
            else:
                h, c = corner
                view = src3[h : h + rows, :, c : c + width].transpose(1, 0, 2)
                np.copyto(buf.reshape(shape), view)
                tile_src, tile_dst, partner = buf, buf if mix else sums, sums if mix else None
                if not mix:
                    out = dst3[h : h + rows, :, c : c + width].transpose(1, 0, 2)
                    if s:
                        np.copyto(sums.reshape(shape), out)
                    else:
                        sums.fill(0.0)
            for blocks in _block_shapes(tile_src.size, g):
                if not mix:
                    view3 = tile_dst.reshape(blocks)
                    view3 += tile_src.reshape(blocks)[:, ::-1, :]
                    continue
                if blocks[0] == 1:
                    # One block: its halves are contiguous, and so are their
                    # partners, so the products need no copy.
                    half = blocks[2]
                    np.multiply(tile_src[half:], isb, partner[:half])
                    np.multiply(tile_src[:half], isb, partner[half:])
                else:
                    partner.reshape(blocks)[...] = tile_src.reshape(blocks)[:, ::-1, :]
                    partner *= isb
                tile_src *= cb
                tile_src += partner
            if corner is not None:
                np.copyto(view if mix else out, tile_dst.reshape(shape))
    if _folded(src, n):
        # Qubit n-1 of a folded state: the partner of x is 2^(n-1) - 1 - x.
        if mix:
            np.multiply(src[::-1], isb, out=dst)
            src *= cb
            src += dst
        else:
            dst += src[::-1]


# The kernel under the names its two uses are called, and counted, by:
# ``_apply_mixer(amps, scratch, n, beta)`` sets ``amps = exp(1j * beta * B)
# amps``, and ``_apply_generator(amps, out, n)`` sets ``out = B @ amps``.
_apply_mixer = _apply_generator = _apply_x


def _imag_inner(a: np.ndarray, b: np.ndarray, n: int) -> float:
    # Im <a|b> (``np.vdot(a, b).imag``) over all 2^n patterns as an
    # elementwise product and one fixed-order numpy sum, not a BLAS call
    # (see the module docstring).
    prod = np.conj(a)
    prod *= b
    # numpy sums a 1-D array in the same pairwise order whatever its stride,
    # so the strided ``imag`` view and its contiguous unfolded copy agree.
    return float(_whole(prod.imag, n).sum())


def _energy_sum(amps: np.ndarray, table: np.ndarray, n: int) -> float:
    # sum |amp(x)|^2 E(x) over all 2^n patterns, in numpy's fixed order;
    # ``table`` is the run's kept table, or the whole table for a full state.
    weighted = np.abs(amps) ** 2
    weighted *= table
    return float(_whole(weighted, n).sum())


def _start(obj: DiagonalObjective) -> np.ndarray:
    """The plus state of a layered run, one amplitude per entry of
    :func:`_kept_table`: a half state when the run is folded, which the
    kernels and sums recognise by its size (see the module docstring)."""
    return np.full(_kept_table(obj).size, 2.0 ** (-obj.n / 2), dtype=np.complex128)


def _evolve(obj: DiagonalObjective, gammas: Sequence[float], betas: Sequence[float]) -> np.ndarray:
    """Amplitudes after the phase and mixing layers, folded when :func:`_start` is."""
    amps = _start(obj)
    levels, level_of = _energy_levels(obj)
    scratch = np.empty_like(amps)
    for gamma, beta in zip(gammas, betas):
        _apply_phase(amps, scratch, levels, level_of, gamma)
        _apply_mixer(amps, scratch, obj.n, beta)
    return amps


def qaoa_state(obj: DiagonalObjective, params: QaoaParams) -> Statevector:
    """State after ``p`` alternating phase/mixing layers from the plus state.

    Layer ``j`` multiplies amplitudes by ``exp(-1j * gamma_j * E(x))`` and
    then rotates every qubit by ``2 * beta_j`` about X. ``p = 0`` returns
    the plus state.
    """
    if params.p == 0:
        return Statevector.plus(obj.n)
    amps = _evolve(obj, params.gammas, params.betas)
    return Statevector(n=obj.n, amplitudes=_whole(amps, obj.n))


def qaoa_value_and_gradient(obj: DiagonalObjective, params: QaoaParams) -> tuple[float, np.ndarray]:
    """Energy expectation of :func:`qaoa_state` and its exact gradient.

    The gradient is ordered like the angles: ``p`` entries for the gammas,
    then ``p`` for the betas. It comes from the adjoint method (Jones and
    Gacon, arXiv:2009.02823). With the phase ``P_j = exp(-1j * gamma_j * E)``
    and the mixer ``M_j = exp(1j * beta_j * B)``, the forward pass keeps
    each layer's pre-mixer state ``phi_j = P_j psi_j``. The co-state starts
    as ``lam = E psi`` in the final state's buffer, and the backward loop
    un-applies only it: ``lam'_j = M_j^dagger lam_j``. Since ``B`` commutes
    with its own mixer, ``d/d beta_j = -2 Im <lam'_j|B phi_j>`` and
    ``d/d gamma_j = 2 Im <lam'_j|E phi_j>``, so a layer costs one mixer pass
    forward, one back and one generator sweep.

    The loop keeps the last ``k = min(p, 2^(cap - m))`` pre-mixer states,
    where ``2^m`` is the length of the run's array (``m = n - 1`` folded)
    and ``cap`` is :func:`statevector_cap`, so the kept states never hold
    more than one ``2^cap`` state. Below them it recomputes ``phi_j`` from
    the plus state in the buffer of ``phi_(j+1)``, which is no longer read,
    by the forward pass's own operations: ``j`` more mixer passes for layer
    ``j``, and the gradient does not depend on the cap.

    The value equals ``expectation(qaoa_state(obj, params), obj)``
    bit for bit. Each inner product is an elementwise product and a
    fixed-order numpy sum, never a BLAS call, so the result does not depend
    on the BLAS thread count.
    """
    psi = _start(obj)
    p, n = params.p, obj.n
    table = _kept_table(obj)
    levels, level_of = _energy_levels(obj)
    m = psi.size.bit_length() - 1
    kept = min(p, 1 << (statevector_cap() - m))
    phis = []
    scratch = np.empty_like(psi)
    for j, (gamma, beta) in enumerate(zip(params.gammas, params.betas)):
        _apply_phase(psi, scratch, levels, level_of, gamma)
        if j >= p - kept:
            phis.append(psi.copy())
        _apply_mixer(psi, scratch, n, beta)
    value = _energy_sum(psi, table, n)
    lam = psi  # the final state's buffer becomes the co-state E psi
    lam *= table
    grad = np.zeros(2 * p)
    for j in reversed(range(p)):
        if phis:
            phi = phis.pop()
        else:
            # No copy was kept of phi_j: rerun the forward pass to it in
            # phi_(j+1)'s buffer, with the same operations, so bit for bit.
            phi.fill(2.0 ** (-n / 2))
            for gamma, beta in zip(params.gammas[:j], params.betas[:j]):
                _apply_phase(phi, scratch, levels, level_of, gamma)
                _apply_mixer(phi, scratch, n, beta)
            _apply_phase(phi, scratch, levels, level_of, params.gammas[j])
        _apply_mixer(lam, scratch, n, -params.betas[j])
        _apply_generator(phi, scratch, n)
        grad[p + j] = -2.0 * _imag_inner(lam, scratch, n)
        np.multiply(phi, table, out=scratch)
        grad[j] = 2.0 * _imag_inner(lam, scratch, n)
        if j:
            _apply_phase(lam, scratch, levels, level_of, -params.gammas[j])
    return value, grad


def _p1_couplings(obj: DiagonalObjective) -> tuple:
    """Arrays of ``obj.spin_model()`` for :func:`qaoa_p1_energy`, built from its coupling lists.

    Returns the fields ``h``; each variable's couplings, in ascending
    neighbour order; the coupled pairs ``u < v`` in row-major order with
    their couplings; for each pair, the couplings of ``u`` and of ``v`` to
    the union of their other neighbours, in ascending order; and the offset.
    Zero couplings are left out, and each row is zero-padded to the longest,
    so a product of cosines over it equals the product over the whole row of
    the coupling matrix: a zero contributes ``cos 0 = 1``, and numpy
    multiplies along a row in index order. The build holds ``O(pairs *
    width)``, never an ``n x n`` matrix: about 3.5 MiB at n=4096 on a
    3-regular graph. All are cached on the objective next to its energy table.
    """
    found = obj._cache.get("p1_couplings")
    if found is None:
        src = obj.spin_model()
        if src is None:
            raise TypeError("the p=1 closed form needs a QUBO or Ising source behind the objective")
        keys = sorted(k for k, c in src.J.items() if c != 0.0)
        nbrs = [{} for _ in range(src.n)]
        for u, v in keys:  # row-major, so each variable's neighbours arrive ascending
            nbrs[u][v] = nbrs[v][u] = src.J[u, v]
        us, vs = np.array(keys, dtype=np.intp).reshape(-1, 2).T.copy()
        others = [sorted((nbrs[u].keys() | nbrs[v].keys()) - {u, v}) for u, v in keys]
        found = obj._cache["p1_couplings"] = (
            np.array(src.h, dtype=np.float64), _padded([list(row.values()) for row in nbrs]),
            us, vs, np.array([src.J[k] for k in keys], dtype=np.float64),
            _padded([[nbrs[u].get(w, 0.0) for w in ws] for (u, _), ws in zip(keys, others)]),
            _padded([[nbrs[v].get(w, 0.0) for w in ws] for (_, v), ws in zip(keys, others)]),
            src.offset,
        )
    return found


def _padded(rows: list) -> np.ndarray:
    # The lists as the rows of one float array, zero-padded to the longest.
    width = max(map(len, rows), default=0)
    return np.array([row + [0.0] * (width - len(row)) for row in rows], dtype=np.float64).reshape(len(rows), width)


def qaoa_p1_energy(obj: DiagonalObjective, gammas, betas) -> np.ndarray:
    """Depth-1 plus-state energy of a quadratic objective at each angle pair.

    ``gammas`` and ``betas`` are equal-length arrays; entry ``k`` of the
    result is ``expectation(qaoa_state(obj, QaoaParams(1, (g_k,), (b_k,))),
    obj)`` to rounding, with no statevector. ``obj`` needs a spin form
    (:meth:`~qopt.model.DiagonalObjective.spin_model`, which QUBO and Ising
    views have). In it ``E = sum h_u Z_u + sum J_uv Z_u Z_v + offset``, and
    the exact p=1 expectations (Ozaeta, van Dam, McMahon, arXiv:2012.03421)
    are, with products over ``w != u`` and over ``w`` not in ``{u, v}``::

        <Z_u> = sin 2b' sin(2g h_u) prod cos(2g J_uw)
        <Z_u Z_v> = 1/2 sin 4b' sin(2g J_uv) [cos(2g h_u) prod cos(2g J_uw)
                                            + cos(2g h_v) prod cos(2g J_vw)]
                  - 1/2 sin^2 2b' [cos(2g (h_u + h_v)) prod cos(2g (J_uw + J_vw))
                                 - cos(2g (h_u - h_v)) prod cos(2g (J_uw - J_vw))]

    where ``b' = -b``, since qopt's mixer is ``exp(+i b X)`` per qubit. The
    angles may be complex, and the result is then complex: the imaginary
    part of ``qaoa_p1_energy(obj, [g + 1e-30j], [b])`` over ``1e-30`` is the
    exact ``g`` derivative (a complex step). The products run over the
    nonzero couplings only (``cos 0 = 1``), so a pair costs the degrees of
    its two variables and a call ``O(len(gammas) * pairs * degree)``; the
    sums are numpy's fixed order, never BLAS.
    """
    h, fields, us, vs, j_pair, rows_u, rows_v, offset = _p1_couplings(obj)
    g2 = 2.0 * np.asarray(gammas)[:, None]
    b2 = -2.0 * np.asarray(betas)[:, None]
    sin2b = np.sin(b2)
    g3 = g2[:, :, None]
    field_prod = np.cos(g3 * fields).prod(axis=-1)
    energy = (h * (sin2b * np.sin(g2 * h) * field_prod)).sum(axis=-1)
    h_u, h_v = h[us], h[vs]
    first = np.sin(g2 * j_pair) * (
        np.cos(g2 * h_u) * np.cos(g3 * rows_u).prod(axis=-1)
        + np.cos(g2 * h_v) * np.cos(g3 * rows_v).prod(axis=-1)
    )
    second = (
        np.cos(g2 * (h_u + h_v)) * np.cos(g3 * (rows_u + rows_v)).prod(axis=-1)
        - np.cos(g2 * (h_u - h_v)) * np.cos(g3 * (rows_u - rows_v)).prod(axis=-1)
    )
    zz = 0.5 * np.sin(2.0 * b2) * first - 0.5 * sin2b**2 * second
    return energy + (j_pair * zz).sum(axis=-1) + offset


def expectation(sv: Statevector, obj: DiagonalObjective) -> float:
    """Exact energy expectation ``sum |amp(x)|^2 E(x)``.

    The sum is numpy's fixed pairwise order over the elementwise products,
    not a BLAS dot, whose rounding would change with the BLAS thread count.
    """
    _check_state(sv, obj)
    return _energy_sum(sv.amplitudes, energy_table(obj), sv.n)


def _probabilities(amps: np.ndarray, n: int) -> np.ndarray:
    # The measurement probabilities of a full or folded run over all 2^n
    # patterns: |amp|^2, mirrored when folded, over its sum, the norm^2,
    # which every Statevector, sample and sampled evaluation checks here.
    probs = _whole(np.abs(amps) ** 2, n)
    norm = float(probs.sum())
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm^2 is {norm}, not 1")
    probs /= norm
    return probs


def _draw(probs: np.ndarray, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # One seeded multinomial draw of ``shots`` over ``probs``: the ascending
    # indices of the patterns hit and how often each was drawn.
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    hit = (draws != 0).nonzero()[0]
    return hit, draws[hit]


def _tail_mean(energies: np.ndarray, counts: np.ndarray, alpha: float) -> float:
    # The mean of the lowest ceil(alpha * shots) of the shots' energies, with
    # ``energies[k]`` drawn ``counts[k]`` times.
    values = np.repeat(energies, counts)
    values.sort()
    return float(values[: math.ceil(alpha * values.size)].mean())


def sample(sv: Statevector, shots: int, seed: int = 0, *, obj: DiagonalObjective) -> SampleSet:
    """Aggregate ``shots`` i.i.d. basis measurements of the state, priced under ``obj``.

    Deterministic given the seed: one multinomial draw over the basis
    probabilities ``|amp|^2``, divided by their sum once the norm is
    checked, whose nonzero entries become the result's ascending
    ``indices`` and ``index_counts``. The hit patterns are priced by one
    gather from ``energy_table(obj)`` (which fits, since the state does)
    into ``index_energies``, which CVaR and the solvers read. A sampled
    CVaR training evaluation makes the same draw from its run's amplitudes.
    """
    shots, seed = as_count("shots", shots), as_count("seed", seed, least=0)
    _check_state(sv, obj)
    hit, counts = _draw(_probabilities(sv.amplitudes, sv.n), shots, seed)
    return SampleSet(
        n=sv.n, shots=shots, seed=seed, indices=hit, index_counts=counts, index_energies=energy_table(obj)[hit]
    )


def cvar(
    values: SampleSet | Statevector,
    alpha: float,
    obj: DiagonalObjective | None = None,
) -> float:
    """Average of the best (lowest-energy) alpha-fraction.

    For a :class:`SampleSet`, repeats each distinct pattern's energy by its
    count, sorts the shots' energies ascending and averages the lowest
    ``ceil(alpha * shots)``; ``alpha = 1`` is the plain mean, and any alpha
    small enough to include a single sample returns the best observed
    energy. ``obj`` is not read for a sample set. Sampled CVaR training
    takes the same tail mean straight from the draw. For a
    :class:`Statevector` (with ``obj``), the same tail average is taken
    over the exact distribution, splitting the boundary pattern
    fractionally; each call sorts the cached energy table stably (ties in
    index order) and caches nothing beside the table.
    """
    _check_alpha(alpha)
    if isinstance(values, SampleSet):
        return _tail_mean(values.index_energies, values.index_counts, alpha)
    if isinstance(values, Statevector):
        if obj is None:
            raise ValueError("computing CVaR from a state requires the objective")
        _check_state(values, obj)
        table = energy_table(obj)
        order = np.argsort(table, kind="stable")
        sorted_e = table[order]
        sorted_p = values.probabilities()[order]
        cum = np.cumsum(sorted_p)
        # Everything strictly below the alpha boundary is taken in full, the
        # boundary state contributes the leftover fraction.
        k = int(np.searchsorted(cum, alpha, side="left"))
        full = (sorted_p[:k] * sorted_e[:k]).sum()
        taken = float(cum[k - 1]) if k > 0 else 0.0
        if k < len(sorted_e):
            full += (alpha - taken) * sorted_e[k]
        return float(full / alpha)
    raise TypeError(f"cannot compute CVaR of {type(values).__name__}")


def _check_alpha(alpha) -> None:
    # CVaR's tail fraction, for cvar() and CVaR training alike.
    check_real("alpha", alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def anneal_trotter(obj: DiagonalObjective, T: float, steps: int) -> Statevector:
    """First-order Trotterized anneal from the uniform state on the linear ramp.

    The interpolating generator is ``lam * H_problem`` against the standard
    transverse mixer weighted by ``1 - lam``, with ``lam = t / T`` rising
    linearly from 0 to 1 and discretized at step midpoints: step ``k``
    applies a phase layer with angle ``dt * lam_k`` and a mixing layer with
    X-rotation angle ``2 * dt * (1 - lam_k)``, where ``lam_k = (k + 1/2) /
    steps``.
    """
    steps = as_count("steps", steps)
    check_real("T", T, positive=True)
    dt = T / steps
    lams = [(k + 0.5) / steps for k in range(steps)]
    amps = _evolve(obj, [dt * lam for lam in lams], [dt * (1.0 - lam) for lam in lams])
    return Statevector(n=obj.n, amplitudes=_whole(amps, obj.n))


def gibbs_distribution(obj: DiagonalObjective, beta: float) -> np.ndarray:
    """Exact Gibbs probabilities ``exp(-beta E(x)) / Z`` over all assignments.

    Weights are computed against the shifted exponent ``-beta (E - E_min)``
    so the largest weight is exactly 1 and nothing overflows. Imaginary-time
    evolution for time ``tau`` suppresses amplitudes by ``exp(-tau E)``, so
    its measurement distribution equals this one at ``beta = 2 tau``.
    """
    check_real("beta", beta)
    if not beta >= 0.0:
        raise ValueError(f"beta must be at least 0, got {beta}")
    table = energy_table(obj)
    weights = np.exp(-beta * (table - table.min()))
    return weights / weights.sum()


def ground_state_overlap(sv: Statevector, obj: DiagonalObjective) -> float:
    """Probability mass the state puts on the argmin set, to ``ENERGY_TOL``."""
    _check_state(sv, obj)
    table = energy_table(obj)
    mask = table <= table.min() + ENERGY_TOL
    return float(sv.probabilities()[mask].sum())

