"""Simplicial models and solvability analysis for cross-chain transactions.

The package builds the cross-chain transaction coordination problem as an
explicit task on finite simplicial complexes, machine-checks the structural
properties of its carrier map, decides unsolvability through a connectivity
obstruction backed by a bounded search for carried simplicial maps, and
demonstrates the failure mode concretely with an asynchronous two-phase
commit simulator subject to fork suspension.
"""
from __future__ import annotations

from .cbt import (
    CbtConfig,
    build_carrier_map,
    build_colorless_task,
    build_input_complex,
    build_output_complex,
    build_task,
)
from .connectivity import (
    BettiReport,
    connected_components,
    reduced_betti,
)
from .errors import (
    BadResilience,
    CbtopoError,
    DimensionOutOfRange,
    EmptyInput,
    InvalidSchedule,
    InvalidTask,
    MalformedSimplex,
    MalformedTrace,
    NotColored,
    ResourceBound,
    UnknownVertex,
)
from .forksim import (
    CommitProtocol,
    ExecutionTrace,
    ExhaustiveMode,
    Message,
    NodeState,
    RandomMode,
    ScheduleAction,
    SimEvent,
    Simulation,
    TwoPhaseCommit,
    Violation,
    ViolationReport,
    check_trace,
    find_violation,
    get_protocol,
    run,
)
from .simplicial import (
    BlockRef,
    Complex,
    Simplex,
    SubdivisionResult,
    SubdivisionVertex,
    Value,
    Vertex,
    barycentric_subdivide,
    make_complex,
)
from .solvability import (
    SolvabilityReport,
    Verdict,
    connectivity_obstruction,
    decide,
    search_carried_simplicial_map,
)
from .tasks import (
    CarrierMap,
    PropertyCheck,
    Task,
    colorless_projection,
    restrict_to_skeleton,
    verify_monotonic,
    verify_name_preserving,
    verify_rigid,
)

__version__ = "0.1.0"
