"""Symbolic computation and verification for Chevalley groups with graph
automorphisms in characteristic 2: root arithmetic, commutator collection,
parabolic decompositions from cocharacters, and an independent matrix model
for the rank-2 checks."""

from .coeffring import (
    Polynomial,
    VariableRegistry,
    SOLVABLE_CANDIDATE,
    UNSOLVABLE_OVER_K,
    classify_square_obstruction,
)
from .chevalley import (
    GraphAut,
    GroupWord,
    LieVector,
    RadicalElement,
    RootElement,
    TorusValue,
    WeylRep,
    adjoint,
    centralizer_system,
    collect,
    conjugate,
    conjugate_generic,
    generic_radical_element,
    word,
    word_equal,
)
from .matrixoracle import (
    GF,
    PolyRing,
    enumerate_m_conjugacy,
    evaluate_word,
    exact_word,
    lie_adjoint,
    lie_vector_matrix,
    matrix_oracle_check,
)
from .parabolic import limit_along, rparabolic
from .rootsys import (
    Cocharacter,
    Root,
    RootMap,
    RootSystem,
    compose_word,
    extends_to_ambient,
    fixed_cocharacter_lattice,
    longest_element,
    minus_one_realization,
    pairing,
    root_system,
    subsystem_roots,
    verify_w0_identities,
)
from .scenarios import Report, run_scenario, scenario_names

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
