"""Core simulation engine: the paper's linearised state-space technique.

Public surface:

* block framework — :class:`AnalogueBlock`, :class:`LinearBlock`,
  :class:`Netlist`, :class:`SystemAssembler`
* integration — :func:`make_integrator`, :class:`AdamsBashforth`,
  :class:`ForwardEuler`, :class:`RungeKutta2`, :class:`RungeKutta4`
* the solver — :class:`LinearisedStateSpaceSolver`, :class:`SolverSettings`
* digital kernel — :class:`DigitalEventKernel`, :class:`DigitalProcess`,
  :class:`AnalogueInterface`
* support — :class:`PWLTable`, :class:`CompanionTable`, stability helpers,
  result containers
"""

from .batch import BatchedSolver, BatchResult
from .block import (
    AnalogueBlock,
    BatchedLinearisation,
    BlockLinearisation,
    LinearBlock,
    Terminal,
)
from .builder import (
    BuildContext,
    BuiltSystem,
    SystemBuilder,
    solver_settings_for_frequency,
)
from .digital import AnalogueInterface, DigitalEventKernel, DigitalProcess
from .elimination import (
    AssemblyStructure,
    BatchedAssembler,
    BatchedGlobalLinearisation,
    BatchedReducedSystem,
    ReducedSystem,
    SystemAssembler,
)
from .errors import (
    ConfigurationError,
    ConnectionError_,
    ConvergenceError,
    SimulationError,
    SingularLaneError,
    SingularSystemError,
    StabilityError,
    StepSizeError,
    TableRangeError,
)
from .integrators import (
    AdamsBashforth,
    BackwardEuler,
    ExplicitIntegrator,
    ForwardEuler,
    RungeKutta2,
    RungeKutta4,
    Trapezoidal,
    make_integrator,
)
from .linearise import (
    finite_difference_jacobian,
    linearise_block,
    linearise_block_lanes,
    linearise_block_numerically,
    linearise_lanes_numerically,
)
from .netlist import Net, Netlist
from .pwl import CompanionTable, PWLTable, build_companion_table, build_table
from .registry import BLOCK_REGISTRY, BlockRegistry, ParameterField, RegistryEntry, register_block
from .results import SimulationResult, SolverStats, Stopwatch, Trace, TraceRecorder
from .solver import LinearisedStateSpaceSolver, SolverSettings
from .spec import (
    BlockSpec,
    ConnectionSpec,
    ControllerSpec,
    ExcitationSpec,
    FrequencyStepSpec,
    InterfaceControlSpec,
    InterfaceProbeSpec,
    ProbeSpec,
    SolverHints,
    SystemSpec,
)
from .stability import (
    diagonal_dominance_step_limit,
    is_diagonally_dominant,
    is_spectrally_stable,
    minimum_time_constant,
    spectral_radius,
    spectral_step_limit,
    stiffness_ratio,
)
from .stepper import BatchedStepController, StepControlSettings, StepSizeController

__all__ = [
    # block framework
    "AnalogueBlock",
    "BlockLinearisation",
    "BatchedLinearisation",
    "LinearBlock",
    "Terminal",
    "Net",
    "Netlist",
    "AssemblyStructure",
    "SystemAssembler",
    "ReducedSystem",
    # batched (lane-parallel) execution
    "BatchedAssembler",
    "BatchedGlobalLinearisation",
    "BatchedReducedSystem",
    "BatchedSolver",
    "BatchResult",
    "BatchedStepController",
    # declarative system description
    "BLOCK_REGISTRY",
    "BlockRegistry",
    "ParameterField",
    "RegistryEntry",
    "register_block",
    "BlockSpec",
    "ConnectionSpec",
    "ControllerSpec",
    "ExcitationSpec",
    "FrequencyStepSpec",
    "InterfaceControlSpec",
    "InterfaceProbeSpec",
    "ProbeSpec",
    "SolverHints",
    "SystemSpec",
    "BuildContext",
    "BuiltSystem",
    "SystemBuilder",
    "solver_settings_for_frequency",
    # integration
    "ExplicitIntegrator",
    "ForwardEuler",
    "AdamsBashforth",
    "RungeKutta2",
    "RungeKutta4",
    "BackwardEuler",
    "Trapezoidal",
    "make_integrator",
    # solver
    "LinearisedStateSpaceSolver",
    "SolverSettings",
    "StepControlSettings",
    "StepSizeController",
    # digital
    "DigitalEventKernel",
    "DigitalProcess",
    "AnalogueInterface",
    # support
    "PWLTable",
    "CompanionTable",
    "build_table",
    "build_companion_table",
    "finite_difference_jacobian",
    "linearise_block",
    "linearise_block_numerically",
    "linearise_block_lanes",
    "linearise_lanes_numerically",
    "SimulationResult",
    "SolverStats",
    "Trace",
    "TraceRecorder",
    "Stopwatch",
    "spectral_radius",
    "spectral_step_limit",
    "is_spectrally_stable",
    "is_diagonally_dominant",
    "diagonal_dominance_step_limit",
    "minimum_time_constant",
    "stiffness_ratio",
    # errors
    "SimulationError",
    "ConfigurationError",
    "ConnectionError_",
    "SingularSystemError",
    "SingularLaneError",
    "StabilityError",
    "ConvergenceError",
    "StepSizeError",
    "TableRangeError",
]
