"""Benchmarking toolkit for quantum and classical binary-optimization heuristics.

The package is organized around a small set of layers:

* :mod:`qopt.model` - QUBO/Ising/polynomial objectives, constraints, and
  penalty compilation.
* :mod:`qopt.problems` - seeded generators for the benchmark problem families.
* :mod:`qopt.preprocess` - component decomposition and variable fixing.
* :mod:`qopt.simulator` - exact statevector simulation of diagonal-phase
  circuits (alternating-operator ansatz, trotterized annealing, Gibbs states).
* :mod:`qopt.solvers` - brute force, simulated annealing, amplitude-threshold
  adaptive search, the alternating-operator solver, and its recursive
  variant.
* :mod:`qopt.bench` - benchmark execution, metrics, and report emission.
* :mod:`qopt.cli` - the ``qopt`` command-line interface.
"""

from qopt.bench import (
    CSV_HEADER,
    BenchmarkConfig,
    BenchmarkRecord,
    approximation_ratio,
    emit_junit,
    emit_report,
    run_benchmark,
    success_metrics,
)
from qopt.model import (
    ConstrainedModel,
    DiagonalObjective,
    InfeasibleConstraintError,
    IsingModel,
    LinearConstraint,
    QuboModel,
    bits_to_index,
    default_penalty,
    density,
    index_to_bits,
    ising_to_qubo,
    model_to_json,
    penalty_encode,
    qubo_to_ising,
)
from qopt.preprocess import (
    decompose_components,
    fix_variables,
)
from qopt.problems import (
    ProblemInstance,
    gen_ev_parking,
    gen_labs,
    gen_market_share,
    gen_maxcut_r3r,
    gen_mis,
    gen_portfolio,
    gen_qap,
    gen_spin_glass,
    instance_from_json,
    instance_to_json,
    labs_energy,
)
from qopt.simulator import (
    CapacityError,
    QaoaParams,
    SampleSet,
    Statevector,
    anneal_trotter,
    cvar,
    energy_table,
    expectation,
    gibbs_distribution,
    ground_state_overlap,
    qaoa_state,
    sample,
    statevector_cap,
)
from qopt.solvers import (
    SolveResult,
    brute_force,
    grover_adaptive_search,
    qaoa_solve,
    recursive_qaoa,
    simulated_annealing,
    solve_result_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BenchmarkConfig",
    "BenchmarkRecord",
    "CSV_HEADER",
    "CapacityError",
    "ConstrainedModel",
    "DiagonalObjective",
    "InfeasibleConstraintError",
    "IsingModel",
    "LinearConstraint",
    "ProblemInstance",
    "QaoaParams",
    "QuboModel",
    "SampleSet",
    "SolveResult",
    "Statevector",
    "anneal_trotter",
    "approximation_ratio",
    "bits_to_index",
    "brute_force",
    "cvar",
    "decompose_components",
    "default_penalty",
    "density",
    "emit_junit",
    "emit_report",
    "energy_table",
    "expectation",
    "fix_variables",
    "gen_ev_parking",
    "gen_labs",
    "gen_market_share",
    "gen_maxcut_r3r",
    "gen_mis",
    "gen_portfolio",
    "gen_qap",
    "gen_spin_glass",
    "gibbs_distribution",
    "ground_state_overlap",
    "grover_adaptive_search",
    "index_to_bits",
    "instance_from_json",
    "instance_to_json",
    "ising_to_qubo",
    "labs_energy",
    "model_to_json",
    "penalty_encode",
    "qaoa_solve",
    "qaoa_state",
    "qubo_to_ising",
    "recursive_qaoa",
    "run_benchmark",
    "sample",
    "simulated_annealing",
    "solve_result_to_json",
    "statevector_cap",
    "success_metrics",
]
