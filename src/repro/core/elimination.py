"""System assembly and automatic elimination of non-state variables.

Section III-E of the paper: "When combining the three component blocks
together, the terminal variables of each component block will be
represented by state variables and eliminated.  This enables the whole
energy harvester model to be described by state equations [...]".

The :class:`SystemAssembler` gathers the per-block linearisations into the
global linearised model of Eq. (2),

.. math::

   \\begin{bmatrix}\\dot x \\\\ 0\\end{bmatrix} =
   \\begin{bmatrix}J_{xx} & J_{xy} \\\\ J_{yx} & J_{yy}\\end{bmatrix}
   \\begin{bmatrix}x \\\\ y\\end{bmatrix} +
   \\begin{bmatrix}e_x \\\\ e_y\\end{bmatrix}

solves the algebraic part ``J_yy y = -(J_yx x + e_y)`` for the terminal
variables (Eq. 4) and substitutes back, yielding the reduced state model

.. math::

   \\dot x = A_r x + b_r, \\qquad
   A_r = J_{xx} - J_{xy} J_{yy}^{-1} J_{yx}, \\quad
   b_r = e_x - J_{xy} J_{yy}^{-1} e_y

which is what the explicit integrator advances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .block import (
    AnalogueBlock,
    BatchedLinearisation,
    BlockLinearisation,
    PreparedBlockLineariser,
)
from .errors import ConfigurationError, SingularLaneError, SingularSystemError
from .linearise import linearise_block, linearise_block_lanes
from .netlist import Net, Netlist

__all__ = [
    "AssemblyStructure",
    "GlobalLinearisation",
    "ReducedSystem",
    "SystemAssembler",
    "BatchedGlobalLinearisation",
    "BatchedReducedSystem",
    "BatchedAssembler",
]


@dataclass(frozen=True)
class AssemblyStructure:
    """Topology-derived indexing of the assembled global system.

    Everything here depends only on the *structure* of the netlist (block
    names, state/terminal counts, wiring pattern) — not on any component
    parameter value.  Design-exploration loops evaluate many candidates
    that share one topology and differ only in parameters, so this one-time
    setup can be computed once and handed to every
    :class:`SystemAssembler` built for a same-topology candidate instead
    of being rebuilt per candidate (see :mod:`repro.analysis.engine`).

    The ``signature`` tuple identifies the topology; an assembler only
    adopts a structure whose signature matches its own netlist, so passing
    a stale structure degrades to a fresh computation, never to silent
    mis-indexing.
    """

    signature: Tuple
    terminal_to_net: Dict[str, int]
    state_offsets: Dict[str, int]
    alg_offsets: Dict[str, int]
    terminal_maps: Dict[str, np.ndarray]
    n_states: int
    n_terminals: int
    n_algebraic: int

    @staticmethod
    def signature_of(blocks: Sequence[AnalogueBlock], nets: Sequence[Net]) -> Tuple:
        """Hashable topology key of a (blocks, nets) pair."""
        block_part = tuple(
            (block.name, block.n_states, block.n_algebraic, tuple(block.terminal_names))
            for block in blocks
        )
        net_part = tuple(
            (net.name, tuple(str(t) for t in net.terminals)) for net in nets
        )
        return (block_part, net_part)

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "AssemblyStructure":
        """Compute the structural indexing of a validated netlist."""
        netlist.validate()
        return cls._compute(netlist.blocks, netlist.build_nets(), netlist)

    @classmethod
    def _compute(
        cls, blocks: Sequence[AnalogueBlock], nets: Sequence[Net], netlist: Netlist
    ) -> "AssemblyStructure":
        terminal_to_net = netlist.terminal_index_map()

        state_offsets: Dict[str, int] = {}
        offset = 0
        for block in blocks:
            state_offsets[block.name] = offset
            offset += block.n_states

        alg_offsets: Dict[str, int] = {}
        row = 0
        for block in blocks:
            alg_offsets[block.name] = row
            row += block.n_algebraic

        terminal_maps: Dict[str, np.ndarray] = {}
        for block in blocks:
            indices = [
                terminal_to_net[str(block.terminal(tname))]
                for tname in block.terminal_names
            ]
            terminal_maps[block.name] = np.asarray(indices, dtype=int)

        return cls(
            signature=cls.signature_of(blocks, nets),
            terminal_to_net=terminal_to_net,
            state_offsets=state_offsets,
            alg_offsets=alg_offsets,
            terminal_maps=terminal_maps,
            n_states=offset,
            n_terminals=len(nets),
            n_algebraic=row,
        )


class _BlockPlan(NamedTuple):
    """Where one block's linearisation lands in the global system.

    Resolved once per :class:`SystemAssembler`, so a step does no netlist
    look-ups: ``states``/``rows`` slice the global state vector and the
    algebraic rows, ``terminals`` gathers the block's ports (a slice when
    they are contiguous), ``views`` are the ``jxx``/``ex``/``jyx``/``ey``
    destinations in the assembler's buffers and ``jxy_index``/``jyy_index``
    the flat positions of its coupling entries.
    """

    block: AnalogueBlock
    states: slice
    terminals: Union[slice, np.ndarray]
    rows: slice
    shapes: Tuple[Tuple[int, ...], ...]
    views: Tuple[np.ndarray, ...]
    jxy_index: np.ndarray
    jyy_index: np.ndarray


@dataclass
class GlobalLinearisation:
    """The assembled global Jacobian blocks of Eq. (2) at one time point."""

    jxx: np.ndarray
    jxy: np.ndarray
    ex: np.ndarray
    jyx: np.ndarray
    jyy: np.ndarray
    ey: np.ndarray

    @property
    def n_states(self) -> int:
        """Dimension of the global state vector."""
        return self.jxx.shape[0]

    @property
    def n_terminals(self) -> int:
        """Number of global shared terminal (non-state) variables."""
        return self.jyy.shape[1]


@dataclass
class ReducedSystem:
    """Pure state-space model after terminal-variable elimination.

    ``dx/dt = a_reduced @ x + b_reduced``; ``y_solution`` holds the value
    of the eliminated terminal variables at the linearisation point so that
    they can still be probed and recorded.
    """

    a_reduced: np.ndarray
    b_reduced: np.ndarray
    y_solution: np.ndarray
    elimination_matrix: np.ndarray
    elimination_offset: np.ndarray

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """State derivative of the reduced model at state ``x``."""
        return self.a_reduced @ x + self.b_reduced

    def terminal_values(self, x: np.ndarray) -> np.ndarray:
        """Terminal variables implied by state ``x`` under the local model."""
        return self.elimination_matrix @ x + self.elimination_offset


class SystemAssembler:
    """Maps block-local variables into the global system and eliminates ``y``.

    Parameters
    ----------
    netlist:
        A validated :class:`Netlist` containing all blocks and connections.
    structure:
        Optional precomputed :class:`AssemblyStructure` from a previous
        same-topology assembly.  It is adopted only when its signature
        matches this netlist's topology; otherwise the structure is
        recomputed from scratch, so a stale or mismatched structure can
        never corrupt the indexing.
    """

    def __init__(
        self, netlist: Netlist, *, structure: Optional[AssemblyStructure] = None
    ) -> None:
        netlist.validate()
        self._netlist = netlist
        self._blocks: List[AnalogueBlock] = netlist.blocks
        self._nets: List[Net] = netlist.build_nets()

        if structure is not None and structure.signature == AssemblyStructure.signature_of(
            self._blocks, self._nets
        ):
            self._structure = structure
        else:
            self._structure = AssemblyStructure._compute(
                self._blocks, self._nets, netlist
            )
        s = self._structure
        self._terminal_to_net: Dict[str, int] = s.terminal_to_net
        self._state_offsets: Dict[str, int] = s.state_offsets
        self._n_states = s.n_states
        self._n_terminals = s.n_terminals
        self._n_algebraic = s.n_algebraic

        # assemble() scatters into these buffers; the entries no block owns
        # stay zero
        self._buffers = (
            np.zeros((s.n_states, s.n_states)),
            np.zeros((s.n_states, s.n_terminals)),
            np.zeros(s.n_states),
            np.zeros((s.n_algebraic, s.n_states)),
            np.zeros((s.n_algebraic, s.n_terminals)),
            np.zeros(s.n_algebraic),
        )
        self._plan = [self._plan_block(block) for block in self._blocks]

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    @property
    def structure(self) -> AssemblyStructure:
        """Reusable topology-derived indexing (shareable across candidates)."""
        return self._structure
    @property
    def n_states(self) -> int:
        """Total number of global state variables."""
        return self._n_states

    @property
    def n_terminals(self) -> int:
        """Total number of global shared terminal variables."""
        return self._n_terminals

    @property
    def blocks(self) -> List[AnalogueBlock]:
        """Blocks in assembly order."""
        return list(self._blocks)

    @property
    def nets(self) -> List[Net]:
        """Shared terminal nets in assembly order."""
        return list(self._nets)

    def state_names(self) -> List[str]:
        """Qualified (``block.state``) names of the global state vector."""
        names: List[str] = []
        for block in self._blocks:
            names.extend(block.qualified_state_names())
        return names

    def net_names(self) -> List[str]:
        """Names of the global terminal variables."""
        return [net.name for net in self._nets]

    def state_slice(self, block_name: str) -> slice:
        """Slice of the global state vector owned by ``block_name``."""
        offset = self._state_offsets[block_name]
        block = self._netlist.block(block_name)
        return slice(offset, offset + block.n_states)

    def state_index(self, block_name: str, state_name: str) -> int:
        """Global index of a specific block state variable."""
        block = self._netlist.block(block_name)
        local = block.state_names.index(state_name)
        return self._state_offsets[block_name] + local

    def net_index(self, block_name: str, terminal_name: str) -> int:
        """Global terminal-variable index seen by ``block.terminal``."""
        block = self._netlist.block(block_name)
        return self._terminal_to_net[str(block.terminal(terminal_name))]

    # ------------------------------------------------------------------ #
    # local/global scatter-gather
    # ------------------------------------------------------------------ #
    def _plan_block(self, block: AnalogueBlock) -> _BlockPlan:
        s = self._structure
        offset = s.state_offsets[block.name]
        states = slice(offset, offset + block.n_states)
        r0 = s.alg_offsets[block.name]
        rows = slice(r0, r0 + block.n_algebraic)
        terminal_idx = s.terminal_maps[block.name]
        terminals: Union[slice, np.ndarray] = terminal_idx
        if terminal_idx.size and bool(np.all(np.diff(terminal_idx) == 1)):
            terminals = slice(int(terminal_idx[0]), int(terminal_idx[-1]) + 1)
        jxx, _, ex, jyx, _, ey = self._buffers

        def flat(row_slice: slice) -> np.ndarray:
            # row-major, so repeated terminals keep the last write like a
            # fancy-index scatter does
            grid = np.arange(row_slice.start, row_slice.stop)[:, None] * self._n_terminals
            return (grid + terminal_idx[None, :]).ravel()

        return _BlockPlan(
            block=block,
            states=states,
            terminals=terminals,
            rows=rows,
            shapes=BlockLinearisation.expected_shapes(
                block.n_states, block.n_terminals, block.n_algebraic
            ),
            views=(jxx[states, states], ex[states], jyx[rows, states], ey[rows]),
            jxy_index=flat(states),
            jyy_index=flat(rows),
        )

    def initial_state(self) -> np.ndarray:
        """Concatenate the blocks' initial states into the global vector."""
        x0 = np.zeros(self._n_states)
        for plan in self._plan:
            x0[plan.states] = plan.block.initial_state()
        return x0

    # ------------------------------------------------------------------ #
    # assembly and elimination
    # ------------------------------------------------------------------ #
    def assemble(
        self, t: float, x_global: np.ndarray, y_global: np.ndarray
    ) -> GlobalLinearisation:
        """Linearise every block and scatter into the global Jacobian blocks.

        The result views this assembler's buffers, which the next call
        overwrites: a caller that keeps it past that call must copy it.
        """
        jxy = self._buffers[1].reshape(-1)
        jyy = self._buffers[4].reshape(-1)
        for plan in self._plan:
            lin: BlockLinearisation = linearise_block(
                plan.block, t, x_global[plan.states], y_global[plan.terminals], plan.shapes
            )
            jxx_view, ex_view, jyx_view, ey_view = plan.views
            jxx_view[...] = lin.jxx
            ex_view[...] = lin.ex
            jyx_view[...] = lin.jyx
            ey_view[...] = lin.ey
            # the coupling entries are summed onto zero, as into a fresh
            # matrix, so a -0.0 lands as 0.0
            jxy[plan.jxy_index] = lin.jxy.ravel() + 0.0
            jyy[plan.jyy_index] = lin.jyy.ravel() + 0.0
        return GlobalLinearisation(*self._buffers)

    def eliminate(self, lin: GlobalLinearisation, x_global: np.ndarray) -> ReducedSystem:
        """Solve Eq. (4) for the terminal variables and reduce the model.

        Raises :class:`SingularSystemError` when ``J_yy`` is singular, which
        indicates a wiring problem (floating port, conflicting sources).
        """
        jyy = lin.jyy
        if jyy.shape[0] != jyy.shape[1]:
            raise SingularSystemError(
                f"algebraic system is not square ({jyy.shape[0]}x{jyy.shape[1]})"
            )
        if jyy.size == 0:
            a_reduced = lin.jxx.copy()
            b_reduced = lin.ex.copy()
            empty = np.zeros((0,))
            return ReducedSystem(
                a_reduced=a_reduced,
                b_reduced=b_reduced,
                y_solution=empty,
                elimination_matrix=np.zeros((0, lin.n_states)),
                elimination_offset=empty,
            )
        try:
            # y = -Jyy^{-1} (Jyx x + ey)  =  M x + c
            # One factorisation serves both right-hand sides: stack
            # [Jyx | ey] and solve the multi-RHS system in a single call.
            rhs = np.empty((jyy.shape[0], lin.jyx.shape[1] + 1))
            rhs[:, :-1] = lin.jyx
            rhs[:, -1] = lin.ey
            solution = np.linalg.solve(jyy, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "terminal-variable elimination failed: J_yy is singular "
                f"({exc}); check block wiring"
            ) from exc
        elimination_matrix = -solution[:, :-1]
        elimination_offset = -solution[:, -1]
        y_solution = elimination_matrix @ x_global + elimination_offset
        a_reduced = lin.jxx + lin.jxy @ elimination_matrix
        b_reduced = lin.ex + lin.jxy @ elimination_offset
        return ReducedSystem(
            a_reduced=a_reduced,
            b_reduced=b_reduced,
            y_solution=y_solution,
            elimination_matrix=elimination_matrix,
            elimination_offset=elimination_offset,
        )

    def reduce(
        self, t: float, x_global: np.ndarray, y_global: Optional[np.ndarray] = None
    ) -> ReducedSystem:
        """Convenience: assemble then eliminate in one call."""
        if y_global is None:
            y_global = np.zeros(self._n_terminals)
        lin = self.assemble(t, x_global, y_global)
        return self.eliminate(lin, x_global)

    # ------------------------------------------------------------------ #
    # nonlinear residual evaluation (used by the implicit baselines)
    # ------------------------------------------------------------------ #
    def full_residual(
        self, t: float, x_global: np.ndarray, y_global: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate the exact (non-linearised) ``f_x`` and ``f_y`` globally.

        Returns ``(dxdt, residual_y)``.  The implicit Newton-Raphson
        baseline uses this to iterate on the true nonlinear equations, as a
        conventional HDL/SPICE simulator would.
        """
        dxdt = np.zeros(self._n_states)
        res_y = np.zeros(self._n_algebraic)
        for plan in self._plan:
            block = plan.block
            x_local = x_global[plan.states]
            y_local = y_global[plan.terminals]
            dxdt[plan.states] = block.derivatives(t, x_local, y_local)
            if block.n_algebraic:
                res_y[plan.rows] = block.algebraic_residual(t, x_local, y_local)
        return dxdt, res_y


# ---------------------------------------------------------------------- #
# batched (lane-parallel) assembly and elimination
# ---------------------------------------------------------------------- #
_NO_CONSTANT_FIELDS: frozenset = frozenset()


@dataclass
class _PreparedGroup:
    """One block group of a prepared batched assembly.

    Carries the group's scatter indices (precomputed from the shared
    :class:`AssemblyStructure`) plus the block's
    :class:`~repro.core.block.PreparedBlockLineariser` when available;
    ``prepared is None`` keeps the group on the generic
    :func:`~repro.core.linearise.linearise_block_lanes` dispatch.
    """

    lanes: List[AnalogueBlock]
    sl: slice
    terminal_idx: np.ndarray
    rows: Optional[slice]
    prepared: Optional[PreparedBlockLineariser]
    constant: frozenset


@dataclass
class BatchedGlobalLinearisation:
    """The assembled Jacobian blocks of ``B`` lanes, stacked lane-first."""

    jxx: np.ndarray
    jxy: np.ndarray
    ex: np.ndarray
    jyx: np.ndarray
    jyy: np.ndarray
    ey: np.ndarray

    @property
    def n_lanes(self) -> int:
        """Number of stacked lanes ``B``."""
        return self.jxx.shape[0]

    def lane(self, i: int) -> GlobalLinearisation:
        """The i-th lane as a scalar :class:`GlobalLinearisation` (views)."""
        return GlobalLinearisation(
            jxx=self.jxx[i],
            jxy=self.jxy[i],
            ex=self.ex[i],
            jyx=self.jyx[i],
            jyy=self.jyy[i],
            ey=self.ey[i],
        )


@dataclass
class BatchedReducedSystem:
    """Reduced state models of ``B`` lanes after terminal elimination.

    The stacked sibling of :class:`ReducedSystem`: ``a_reduced`` has shape
    ``(B, n, n)``, ``b_reduced`` has shape ``(B, n)`` and so on.  All
    products go through stacked ``matmul`` so every lane's derivative and
    terminal values are bit-identical to its scalar :class:`ReducedSystem`.
    """

    a_reduced: np.ndarray
    b_reduced: np.ndarray
    y_solution: np.ndarray
    elimination_matrix: np.ndarray
    elimination_offset: np.ndarray

    @property
    def n_lanes(self) -> int:
        """Number of stacked lanes ``B``."""
        return self.a_reduced.shape[0]

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """State derivatives ``A_r x + b_r`` of all lanes at states ``x`` (B, n)."""
        return np.matmul(self.a_reduced, x[..., None])[..., 0] + self.b_reduced

    def terminal_values(self, x: np.ndarray) -> np.ndarray:
        """Terminal variables implied by states ``x`` under the local models."""
        return (
            np.matmul(self.elimination_matrix, x[..., None])[..., 0]
            + self.elimination_offset
        )

    def lane(self, i: int) -> ReducedSystem:
        """The i-th lane as a scalar :class:`ReducedSystem` (views)."""
        return ReducedSystem(
            a_reduced=self.a_reduced[i],
            b_reduced=self.b_reduced[i],
            y_solution=self.y_solution[i],
            elimination_matrix=self.elimination_matrix[i],
            elimination_offset=self.elimination_offset[i],
        )

    def select(self, keep: np.ndarray) -> "BatchedReducedSystem":
        """Sub-batch containing only the lanes selected by ``keep``."""
        return BatchedReducedSystem(
            a_reduced=self.a_reduced[keep],
            b_reduced=self.b_reduced[keep],
            y_solution=self.y_solution[keep],
            elimination_matrix=self.elimination_matrix[keep],
            elimination_offset=self.elimination_offset[keep],
        )


class BatchedAssembler:
    """Assembles and eliminates ``B`` same-topology systems in lock-step.

    The lane-parallel sibling of :class:`SystemAssembler`: each lane is one
    candidate's assembler (same netlist topology, its own block parameter
    values), and every per-step quantity is held in stacked ``(B, ...)``
    arrays so one NumPy call sweeps all lanes.  The scalar assemblers'
    shared :class:`AssemblyStructure` provides the indexing; block groups
    are linearised through the batched block API
    (:func:`repro.core.linearise.linearise_block_lanes`) with a
    loop-over-lanes fallback for unported blocks.

    All linear algebra uses stacked ``np.linalg.solve``/``matmul``, which
    process each lane through the same LAPACK/BLAS routines as the scalar
    path — per-lane results are bit-identical to a scalar
    :class:`SystemAssembler` run, which is what makes the batched solver's
    fixed-step byte-identity contract possible.
    """

    def __init__(self, assemblers: Sequence[SystemAssembler]) -> None:
        if not assemblers:
            raise ConfigurationError("BatchedAssembler needs at least one lane")
        first = assemblers[0].structure
        for assembler in assemblers[1:]:
            if assembler.structure.signature != first.signature:
                raise ConfigurationError(
                    "all lanes of a batched assembly must share one topology; "
                    "group candidates by topology hash before batching"
                )
        self._assemblers = list(assemblers)
        self._structure = first
        # lanes of sibling blocks, grouped in assembly order
        self._block_lanes: List[List[AnalogueBlock]] = [
            [assembler.blocks[i] for assembler in self._assemblers]
            for i in range(len(self._assemblers[0].blocks))
        ]
        # batched-refresh state (see prepare())
        self._groups: Optional[List[_PreparedGroup]] = None
        self._workspace: Optional[BatchedGlobalLinearisation] = None
        self._static_scattered = False
        # optional compiled elimination (see enable_compiled_eliminate())
        self._eliminate_backend = "off"
        self._eliminate_kernel = None
        self._eliminate_pending = False

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    @property
    def n_lanes(self) -> int:
        """Number of lanes ``B``."""
        return len(self._assemblers)

    @property
    def n_states(self) -> int:
        """Global state count (shared by every lane)."""
        return self._structure.n_states

    @property
    def n_terminals(self) -> int:
        """Global terminal-variable count (shared by every lane)."""
        return self._structure.n_terminals

    @property
    def structure(self) -> AssemblyStructure:
        """The shared topology-derived indexing."""
        return self._structure

    def lane_assembler(self, i: int) -> SystemAssembler:
        """The scalar assembler backing lane ``i``."""
        return self._assemblers[i]

    def select(self, keep: np.ndarray) -> "BatchedAssembler":
        """Sub-batch containing only the lanes selected by ``keep`` indices."""
        clone = BatchedAssembler([self._assemblers[int(i)] for i in keep])
        if self._workspace is not None:
            clone.prepare()
        if self._eliminate_backend != "off":
            clone.enable_compiled_eliminate(self._eliminate_backend)
        return clone

    def initial_state(self) -> np.ndarray:
        """Stacked initial global state vectors, shape ``(B, n_states)``."""
        return np.stack([assembler.initial_state() for assembler in self._assemblers])

    # ------------------------------------------------------------------ #
    # batched refresh preparation
    # ------------------------------------------------------------------ #
    def prepare(self) -> bool:
        """Bind the batched refresh fast path to this assembler's lane set.

        Asks every block group for a
        :class:`~repro.core.block.PreparedBlockLineariser` and allocates a
        persistent scatter workspace; subsequent :meth:`assemble` calls run
        through :meth:`_assemble_prepared`, which re-scatters only the
        fields each group declares non-constant (groups without a prepared
        lineariser keep the generic dispatch and re-scatter everything).
        Returns ``True`` when at least one group produced a prepared
        lineariser, i.e. when preparation can save work at all.  The
        produced linearisations are bit-identical to the unprepared path
        by the :class:`PreparedBlockLineariser` contract, so flipping this
        on never changes results.

        The workspace arrays are reused across calls — callers must treat
        the returned :class:`BatchedGlobalLinearisation` as transient and
        must not mutate or retain its fields past the next refresh.
        """
        s = self._structure
        b = self.n_lanes
        groups: List[_PreparedGroup] = []
        any_prepared = False
        for lanes in self._block_lanes:
            rep = lanes[0]
            offset = s.state_offsets[rep.name]
            sl = slice(offset, offset + rep.n_states)
            rows: Optional[slice] = None
            if rep.n_algebraic:
                r0 = s.alg_offsets[rep.name]
                rows = slice(r0, r0 + rep.n_algebraic)
            prepared = rep.batched_lineariser(lanes)
            if prepared is not None:
                any_prepared = True
            groups.append(
                _PreparedGroup(
                    lanes=list(lanes),
                    sl=sl,
                    terminal_idx=s.terminal_maps[rep.name],
                    rows=rows,
                    prepared=prepared,
                    constant=(
                        frozenset(prepared.constant)
                        if prepared is not None
                        else frozenset()
                    ),
                )
            )
        self._groups = groups
        self._workspace = BatchedGlobalLinearisation(
            jxx=np.zeros((b, s.n_states, s.n_states)),
            jxy=np.zeros((b, s.n_states, s.n_terminals)),
            ex=np.zeros((b, s.n_states)),
            jyx=np.zeros((b, s.n_algebraic, s.n_states)),
            jyy=np.zeros((b, s.n_algebraic, s.n_terminals)),
            ey=np.zeros((b, s.n_algebraic)),
        )
        self._static_scattered = False
        return any_prepared

    def unprepare(self) -> None:
        """Drop the batched-refresh fast path; assemble() goes generic again."""
        self._groups = None
        self._workspace = None
        self._static_scattered = False

    @property
    def prepared(self) -> bool:
        """Whether the batched-refresh fast path is active."""
        return self._workspace is not None

    def _assemble_prepared(
        self, t: float, x_global: np.ndarray, y_global: np.ndarray
    ) -> BatchedGlobalLinearisation:
        """Scatter into the persistent workspace, skipping constant fields.

        On the first call every field is scattered (and shape-validated);
        afterwards a field is re-scattered only when its group declares it
        non-constant.  Accumulation fields (``jxy``/``jyy`` use ``+=`` over
        possibly-repeated net columns) are zeroed over the group's private
        row range first, which reproduces the zero-workspace semantics of
        the generic :meth:`assemble` exactly — row ranges of different
        groups are disjoint by construction.
        """
        ws = self._workspace
        assert ws is not None and self._groups is not None
        first = not self._static_scattered
        for grp in self._groups:
            rep = grp.lanes[0]
            sl = grp.sl
            terminal_idx = grp.terminal_idx
            if grp.prepared is not None:
                lin = grp.prepared.lineariser(
                    t, x_global[:, sl], y_global[:, terminal_idx]
                )
                constant = grp.constant
            else:
                lin = linearise_block_lanes(
                    grp.lanes, t, x_global[:, sl], y_global[:, terminal_idx]
                )
                constant = _NO_CONSTANT_FIELDS
            if first:
                lin.validate(
                    self.n_lanes, rep.n_states, rep.n_terminals, rep.n_algebraic
                )
            if first or "jxx" not in constant:
                ws.jxx[:, sl, sl] = lin.jxx
            if first or "ex" not in constant:
                ws.ex[:, sl] = lin.ex
            if rep.n_terminals and (first or "jxy" not in constant):
                if not first:
                    ws.jxy[:, sl, :] = 0.0
                ws.jxy[:, sl, terminal_idx] += lin.jxy
            if grp.rows is not None:
                rows = grp.rows
                if first or "jyx" not in constant:
                    ws.jyx[:, rows, sl] = lin.jyx
                if rep.n_terminals and (first or "jyy" not in constant):
                    if not first:
                        ws.jyy[:, rows, :] = 0.0
                    ws.jyy[:, rows, terminal_idx] += lin.jyy
                if first or "ey" not in constant:
                    ws.ey[:, rows] = lin.ey
        self._static_scattered = True
        return ws

    # ------------------------------------------------------------------ #
    # compiled elimination
    # ------------------------------------------------------------------ #
    def enable_compiled_eliminate(self, backend: str) -> None:
        """Opt in to a jitted fused elimination for ``backend`` (``"numba"``).

        The kernel is engaged lazily: the first :meth:`eliminate` call
        after this runs both the stacked-NumPy path and the kernel on the
        same live data and adopts the kernel only if every output array is
        bitwise identical — any deviation (or an unavailable backend)
        silently keeps the NumPy path, so reproducibility can never
        regress.  Unknown backends are ignored.
        """
        self._eliminate_backend = str(backend)
        self._eliminate_kernel = None
        self._eliminate_pending = backend == "numba"

    # ------------------------------------------------------------------ #
    # assembly and elimination
    # ------------------------------------------------------------------ #
    def assemble(
        self, t: float, x_global: np.ndarray, y_global: np.ndarray
    ) -> BatchedGlobalLinearisation:
        """Linearise every block group and scatter into stacked Jacobians.

        When :meth:`prepare` has bound the fast path, the scatter runs
        through the persistent workspace with constant fields skipped; the
        result is bit-identical either way.
        """
        if self._workspace is not None:
            return self._assemble_prepared(t, x_global, y_global)
        b = self.n_lanes
        s = self._structure
        jxx = np.zeros((b, s.n_states, s.n_states))
        jxy = np.zeros((b, s.n_states, s.n_terminals))
        ex = np.zeros((b, s.n_states))
        jyx = np.zeros((b, s.n_algebraic, s.n_states))
        jyy = np.zeros((b, s.n_algebraic, s.n_terminals))
        ey = np.zeros((b, s.n_algebraic))

        for lanes in self._block_lanes:
            rep = lanes[0]
            offset = s.state_offsets[rep.name]
            sl = slice(offset, offset + rep.n_states)
            terminal_idx = s.terminal_maps[rep.name]
            x_local = x_global[:, sl]
            y_local = y_global[:, terminal_idx]
            lin: BatchedLinearisation = linearise_block_lanes(lanes, t, x_local, y_local)

            jxx[:, sl, sl] = lin.jxx
            ex[:, sl] = lin.ex
            if rep.n_terminals:
                jxy[:, sl, terminal_idx] += lin.jxy
            if rep.n_algebraic:
                r0 = s.alg_offsets[rep.name]
                rows = slice(r0, r0 + rep.n_algebraic)
                jyx[:, rows, sl] = lin.jyx
                if rep.n_terminals:
                    jyy[:, rows, terminal_idx] += lin.jyy
                ey[:, rows] = lin.ey

        return BatchedGlobalLinearisation(
            jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey
        )

    def eliminate(
        self, lin: BatchedGlobalLinearisation, x_global: np.ndarray
    ) -> BatchedReducedSystem:
        """Solve Eq. (4) for all lanes with one stacked linear solve.

        Raises :class:`SingularLaneError` naming the offending lanes when
        any lane's ``J_yy`` is singular, so the caller can retire exactly
        those lanes and keep the rest marching.
        """
        jyy = lin.jyy
        b = lin.n_lanes
        n_states = lin.jxx.shape[1]
        if jyy.shape[1] != jyy.shape[2]:
            raise SingularSystemError(
                f"algebraic system is not square ({jyy.shape[1]}x{jyy.shape[2]})"
            )
        if jyy.shape[1] == 0:
            empty = np.zeros((b, 0))
            # copy: lin may alias the persistent prepared workspace, and
            # the reduced system must outlive the next refresh
            return BatchedReducedSystem(
                a_reduced=lin.jxx.copy(),
                b_reduced=lin.ex.copy(),
                y_solution=empty,
                elimination_matrix=np.zeros((b, 0, n_states)),
                elimination_offset=empty,
            )
        if self._eliminate_kernel is not None:
            try:
                em, eo, a_red, b_red = self._eliminate_kernel(
                    lin.jxx, lin.jxy, lin.ex, lin.jyx, jyy, lin.ey
                )
            except np.linalg.LinAlgError:
                pass  # singular lane: the NumPy path below assigns blame
            else:
                y_solution = np.matmul(em, x_global[..., None])[..., 0] + eo
                return BatchedReducedSystem(
                    a_reduced=a_red,
                    b_reduced=b_red,
                    y_solution=y_solution,
                    elimination_matrix=em,
                    elimination_offset=eo,
                )
        rhs = np.empty((b, jyy.shape[1], n_states + 1))
        rhs[:, :, :-1] = lin.jyx
        rhs[:, :, -1] = lin.ey
        try:
            solution = np.linalg.solve(jyy, rhs)
        except np.linalg.LinAlgError:
            # identify the offending lanes with the same per-lane solve the
            # scalar path runs, so the blame criterion matches exactly
            bad = []
            for i in range(b):
                try:
                    np.linalg.solve(jyy[i], rhs[i])
                except np.linalg.LinAlgError:
                    bad.append(i)
            if not bad:  # pragma: no cover - solve failed but no lane blamed
                bad = list(range(b))
            raise SingularLaneError(
                "terminal-variable elimination failed: J_yy is singular in "
                f"lane(s) {bad}; check block wiring of those candidates",
                lane_indices=bad,
            ) from None
        elimination_matrix = -solution[:, :, :-1]
        elimination_offset = -solution[:, :, -1]
        y_solution = (
            np.matmul(elimination_matrix, x_global[..., None])[..., 0]
            + elimination_offset
        )
        a_reduced = lin.jxx + np.matmul(lin.jxy, elimination_matrix)
        b_reduced = lin.ex + np.matmul(lin.jxy, elimination_offset[..., None])[..., 0]
        if self._eliminate_pending:
            # one-shot on-data verification: adopt the jitted fused
            # elimination only if it reproduces the stacked-NumPy result
            # bit-for-bit on this march's live arrays
            self._eliminate_pending = False
            from .kernels import get_eliminate_kernel

            kernel = get_eliminate_kernel(self._eliminate_backend)
            if kernel is not None:
                try:
                    k_em, k_eo, k_a, k_b = kernel(
                        lin.jxx, lin.jxy, lin.ex, lin.jyx, jyy, lin.ey
                    )
                except Exception:  # pragma: no cover - jit runtime failure
                    kernel = None
                else:
                    if not (
                        np.array_equal(k_em, elimination_matrix)
                        and np.array_equal(k_eo, elimination_offset)
                        and np.array_equal(k_a, a_reduced)
                        and np.array_equal(k_b, b_reduced)
                    ):
                        kernel = None
                self._eliminate_kernel = kernel
        return BatchedReducedSystem(
            a_reduced=a_reduced,
            b_reduced=b_reduced,
            y_solution=y_solution,
            elimination_matrix=elimination_matrix,
            elimination_offset=elimination_offset,
        )

    def reduce(
        self, t: float, x_global: np.ndarray, y_global: Optional[np.ndarray] = None
    ) -> BatchedReducedSystem:
        """Convenience: assemble then eliminate in one call."""
        if y_global is None:
            y_global = np.zeros((self.n_lanes, self.n_terminals))
        lin = self.assemble(t, x_global, y_global)
        return self.eliminate(lin, x_global)
