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

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .block import (
    LINEARISATION_FIELDS,
    AnalogueBlock,
    BlockLinearisation,
    PreparedBlockLineariser,
)
from .errors import ConfigurationError, SingularLaneError, SingularSystemError
from .linearise import (
    _DEFAULT_EPS,
    fast_path_counts,
    linearise_block,
    linearise_block_lanes,
)
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
    parameter value.  Each :class:`SystemAssembler` computes its own.

    The ``signature`` tuple identifies the topology:
    :class:`BatchedAssembler` refuses lanes whose signatures differ.
    """

    signature: Tuple
    terminal_to_net: Dict[str, int]
    state_offsets: Dict[str, int]
    alg_offsets: Dict[str, int]
    terminal_maps: Dict[str, np.ndarray]
    n_states: int
    n_terminals: int
    n_algebraic: int

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

        block_part = tuple(
            (block.name, block.n_states, block.n_algebraic, tuple(block.terminal_names))
            for block in blocks
        )
        net_part = tuple(
            (net.name, tuple(str(t) for t in net.terminals)) for net in nets
        )
        return cls(
            signature=(block_part, net_part),
            terminal_to_net=terminal_to_net,
            state_offsets=state_offsets,
            alg_offsets=alg_offsets,
            terminal_maps=terminal_maps,
            n_states=offset,
            n_terminals=len(nets),
            n_algebraic=row,
        )


logger = logging.getLogger("repro.elimination")

#: the fields Eq. (4) reads besides ``jxx``/``ex``: while all are constant
#: the solve, and ``jxy`` times its solution, can be held
_SOLVE_FIELDS = frozenset(("jxy", "jyx", "jyy", "ey"))


def _terminal_index(terminal_idx: np.ndarray) -> Union[slice, np.ndarray]:
    """A block's global terminal columns as a basic slice when contiguous
    (gathers a view, scatters without fancy indexing), else the array."""
    if terminal_idx.size and bool(np.all(np.diff(terminal_idx) == 1)):
        return slice(int(terminal_idx[0]), int(terminal_idx[-1]) + 1)
    return terminal_idx


def _log_refused(refused: Sequence[str]) -> None:
    if refused:
        logger.debug(
            "prepare: block(s) %s override linearise below their batched fast "
            "path; they are linearised through linearise on every refresh",
            ", ".join(repr(name) for name in refused),
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

    Every :meth:`assemble` linearises every block and scatters every
    field, and every :meth:`eliminate` solves Eq. (4); the Newton
    baselines use it that way.  The linearised solver refreshes through a
    one-lane :class:`BatchedAssembler` over it instead, which holds what
    the operating point cannot change, with bitwise the same results.

    Parameters
    ----------
    netlist:
        A validated :class:`Netlist` containing all blocks and connections.
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self._netlist = netlist
        self._blocks: List[AnalogueBlock] = netlist.blocks
        self._nets: List[Net] = netlist.build_nets()
        self._structure = AssemblyStructure._compute(self._blocks, self._nets, netlist)
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
        """This assembler's topology-derived indexing."""
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
        terminals = _terminal_index(terminal_idx)
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
        return ReducedSystem(
            a_reduced=lin.jxx + lin.jxy @ elimination_matrix,
            b_reduced=lin.ex + lin.jxy @ elimination_offset,
            y_solution=elimination_matrix @ x_global + elimination_offset,
            elimination_matrix=elimination_matrix,
            elimination_offset=elimination_offset,
        )

    # ------------------------------------------------------------------ #
    # nonlinear residual evaluation (used by the implicit baselines)
    # ------------------------------------------------------------------ #
    def full_residual(
        self, t: float, x_global: np.ndarray, y_global: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate the exact (non-linearised) ``f_x`` and ``f_y`` globally.

        Returns ``(dxdt, residual_y)``.  The implicit Newton-Raphson
        baseline uses this to iterate on the true nonlinear equations, as a
        conventional HDL/SPICE simulator would.  Each global row is written
        by exactly one block: the blocks' ``states`` and ``rows`` slices are
        disjoint.
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

    @cached_property
    def _readers(self) -> List[List[Tuple[_BlockPlan, np.ndarray]]]:
        """For each column of ``[x, y]``, the blocks whose equations read it
        (the block owning the state, or every block wired to the net), in
        assembly order, each with the rows of ``[f_x, f_y]`` it writes.

        Built on the first :meth:`step_jacobian`, so that the solvers that
        never take one do not pay for it on every system build.
        """
        n = self._n_states
        readers: List[List[Tuple[_BlockPlan, np.ndarray]]] = [
            [] for _ in range(n + self._n_terminals)
        ]
        for plan in self._plan:
            rows = np.r_[plan.states, n + plan.rows.start : n + plan.rows.stop]
            columns = list(range(plan.states.start, plan.states.stop))
            nets = self._structure.terminal_maps[plan.block.name].tolist()
            columns += sorted({n + net for net in nets})
            for column in columns:
                readers[column].append((plan, rows))
        return readers

    def step_jacobian(
        self,
        t: float,
        z: np.ndarray,
        state_rows: Callable[[slice, np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Central-difference Jacobian of a row-local residual of ``z = [x, y]``.

        The residual's state rows of each block are
        ``state_rows(states, x[states], f_x)`` (``f_x`` the block's
        :meth:`~repro.core.block.AnalogueBlock.derivatives`, ``states`` its
        slice of the global state vector); its algebraic rows are the
        block's ``algebraic_residual`` -- the layout :meth:`full_residual`
        assembles.  Column ``j`` is perturbed by ``±h_j`` exactly as
        :func:`~repro.core.linearise.finite_difference_jacobian` does, but
        only the blocks that read ``z_j`` are re-evaluated, like a circuit
        simulator stamping each device into its own rows and columns.
        Every other entry of the column stays 0: each row is written by
        exactly one block, so a row of a block that does not read ``z_j``
        has the same value ``a`` at both points and the dense differences
        give ``(a - a) / 2h = 0`` there too.  The result is bitwise the
        dense matrix wherever the residual is finite; where a row is not,
        the dense matrix holds NaN and this one 0, and the residual itself
        is non-finite, so a Newton iteration on it cannot converge either
        way.
        """
        jac = np.zeros((self._n_states + self._n_algebraic, z.size))
        for j, readers in enumerate(self._readers):
            h = _DEFAULT_EPS * max(1.0, abs(z[j]))
            plus = z.copy()
            minus = z.copy()
            plus[j] += h
            minus[j] -= h
            two_h = 2.0 * h
            for plan, rows in readers:
                jac[rows, j] = (
                    self._block_rows(plan, t, plus, state_rows)
                    - self._block_rows(plan, t, minus, state_rows)
                ) / two_h
        return jac

    def _block_rows(
        self,
        plan: _BlockPlan,
        t: float,
        z: np.ndarray,
        state_rows: Callable[[slice, np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """One block's rows of a :meth:`step_jacobian` residual at ``z``."""
        block = plan.block
        x_local = z[: self._n_states][plan.states]
        y_local = z[self._n_states :][plan.terminals]
        f_x = np.asarray(block.derivatives(t, x_local, y_local), dtype=float)
        r_x = state_rows(plan.states, x_local, f_x)
        if not block.n_algebraic:
            return r_x
        return np.concatenate([r_x, block.algebraic_residual(t, x_local, y_local)])


# ---------------------------------------------------------------------- #
# batched (lane-parallel) assembly and elimination
# ---------------------------------------------------------------------- #

class _Scatter(NamedTuple):
    """One field write of a block group into the batched workspace.

    ``target[index] = lin.<field>``; when ``clear`` is an index, the
    write accumulates instead (``+=`` over possibly repeated net columns)
    after zeroing ``target[clear]``, the group's own rows, as into a
    fresh matrix.
    """

    field: str
    target: np.ndarray
    index: tuple
    clear: Optional[tuple]


@dataclass
class _PreparedGroup:
    """One block group of the batched assembly, bound by ``prepare()``.

    Carries the group's gather indices (its state slice, its terminal
    columns as a basic slice when contiguous) plus the block's
    :class:`~repro.core.block.PreparedBlockLineariser` when available;
    ``prepared is None`` leaves the group to
    :func:`~repro.core.linearise.linearise_block_lanes`, the stack of its
    lanes' scalar linearisations, each checked against ``shapes``.
    ``scatters`` writes every field into the workspace; ``refresh`` only
    the fields not declared constant.
    """

    lanes: List[AnalogueBlock]
    sl: slice
    terminals: Union[slice, np.ndarray]
    shapes: Tuple[Tuple[int, ...], ...]
    prepared: Optional[PreparedBlockLineariser]
    constant: frozenset
    scatters: Tuple[_Scatter, ...]
    refresh: Tuple[_Scatter, ...]


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
    """Assembles and eliminates ``B`` same-topology systems at once.

    The lane-parallel sibling of :class:`SystemAssembler`: each lane is one
    candidate's assembler (same netlist topology, its own block parameter
    values, its own time point), and every per-step quantity is held in
    stacked ``(B, ...)`` arrays so one NumPy call sweeps all lanes.  The
    first lane's :class:`AssemblyStructure` provides the indexing; every
    lane's must carry the same signature.  A block group is linearised
    through its :meth:`~repro.core.block.AnalogueBlock.batched_lineariser`
    when it has one, else as the stack of its lanes' scalar
    linearisations (:func:`repro.core.linearise.linearise_block_lanes`),
    and scattered into one persistent workspace (see :meth:`prepare`).

    All linear algebra uses stacked ``np.linalg.solve``/``matmul``, which
    process each lane through the same LAPACK/BLAS routines as the
    unstacked :class:`SystemAssembler` — per-lane results are
    bit-identical to it.  The scalar solver refreshes through a one-lane
    instance, so a single run and every batched lane share this one
    refresh path.
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
        # the bound refresh (see prepare()); the first assemble binds it
        self._groups: Optional[List[_PreparedGroup]] = None
        self._refresh_groups: List[_PreparedGroup] = []
        self._workspace: Optional[BatchedGlobalLinearisation] = None
        self._static_scattered = False
        # the held Eq. (4) solve (see prepare())
        self._hold_solve = False
        self._held: Optional[Tuple[np.ndarray, ...]] = None

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
        return BatchedAssembler([self._assemblers[int(i)] for i in keep])

    def initial_state(self) -> np.ndarray:
        """Stacked initial global state vectors, shape ``(B, n_states)``."""
        return np.stack([assembler.initial_state() for assembler in self._assemblers])

    # ------------------------------------------------------------------ #
    # assembly and elimination
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Bind the refresh to this lane set's block linearisers.

        Asks every block group for a
        :class:`~repro.core.block.PreparedBlockLineariser` and allocates
        the persistent scatter workspace.  :meth:`assemble` prepares
        itself on first use; call this again after anything that changes
        the model (a control write), since prepared linearisers hold
        parameter and control values as lane constants.  It drops the
        held Eq. (4) solve too.

        A group whose ``linearise`` override would be bypassed by its
        batched fast path is linearised through its scalar ``linearise``
        (see :func:`~repro.core.linearise.fast_path_counts`) and declares
        nothing constant.  When every group declares ``jxy``, ``jyx``,
        ``jyy`` and ``ey`` constant, the first :meth:`eliminate` keeps
        ``M``, ``c``, ``jxy @ M`` and ``jxy @ c``, and later ones apply the
        same operations to them minus the solve: bitwise a fresh solve.
        """
        s = self._structure
        b = self.n_lanes
        ws = BatchedGlobalLinearisation(
            jxx=np.zeros((b, s.n_states, s.n_states)),
            jxy=np.zeros((b, s.n_states, s.n_terminals)),
            ex=np.zeros((b, s.n_states)),
            jyx=np.zeros((b, s.n_algebraic, s.n_states)),
            jyy=np.zeros((b, s.n_algebraic, s.n_terminals)),
            ey=np.zeros((b, s.n_algebraic)),
        )
        lanes_axis = slice(None)
        groups: List[_PreparedGroup] = []
        refused: List[str] = []
        for lanes in self._block_lanes:
            rep = lanes[0]
            offset = s.state_offsets[rep.name]
            sl = slice(offset, offset + rep.n_states)
            terminals = _terminal_index(s.terminal_maps[rep.name])
            scatters = [
                _Scatter("jxx", ws.jxx, (lanes_axis, sl, sl), None),
                _Scatter("ex", ws.ex, (lanes_axis, sl), None),
            ]
            if rep.n_terminals:
                scatters.append(
                    _Scatter("jxy", ws.jxy, (lanes_axis, sl, terminals), (lanes_axis, sl))
                )
            if rep.n_algebraic:
                r0 = s.alg_offsets[rep.name]
                rows = slice(r0, r0 + rep.n_algebraic)
                scatters.append(_Scatter("jyx", ws.jyx, (lanes_axis, rows, sl), None))
                if rep.n_terminals:
                    scatters.append(
                        _Scatter(
                            "jyy", ws.jyy, (lanes_axis, rows, terminals), (lanes_axis, rows)
                        )
                    )
                scatters.append(_Scatter("ey", ws.ey, (lanes_axis, rows), None))
            prepared = None
            if fast_path_counts(lanes):
                prepared = rep.batched_lineariser(lanes)
            else:
                refused.append(rep.name)
            constant = frozenset(prepared.constant) if prepared is not None else frozenset()
            groups.append(
                _PreparedGroup(
                    lanes=list(lanes),
                    sl=sl,
                    terminals=terminals,
                    shapes=BlockLinearisation.expected_shapes(
                        rep.n_states, rep.n_terminals, rep.n_algebraic
                    ),
                    prepared=prepared,
                    constant=constant,
                    scatters=tuple(scatters),
                    refresh=tuple(op for op in scatters if op.field not in constant),
                )
            )
        _log_refused(refused)
        self._groups = groups
        self._refresh_groups = [
            grp for grp in groups if len(grp.constant) < len(LINEARISATION_FIELDS)
        ]
        self._hold_solve = all(_SOLVE_FIELDS <= grp.constant for grp in groups)
        self._held = None
        self._workspace = ws
        self._static_scattered = False

    def assemble(
        self, t: np.ndarray, x_global: np.ndarray, y_global: np.ndarray
    ) -> BatchedGlobalLinearisation:
        """Linearise every block group and scatter into stacked Jacobians.

        ``t`` holds each lane's own time point, shape ``(B,)``.  The
        result is the persistent workspace, which the next call
        overwrites: treat it as transient, and neither mutate nor retain
        its fields past the next refresh.

        The first call after :meth:`prepare` linearises every group and
        scatters every field (and validates its shapes); afterwards a group
        whose six fields are all declared constant is skipped, and a group
        re-scatters only the fields it does not declare constant, as
        :meth:`prepare` decided.  A stacked-scalar group's shapes are
        checked on every call.  The accumulated coupling fields
        (``jxy``/``jyy`` use ``+=`` over possibly repeated net columns) are
        zeroed over the group's own rows first, as into a fresh matrix;
        row ranges of different groups are disjoint by construction.
        """
        if self._workspace is None:
            self.prepare()
        first = not self._static_scattered
        for grp in self._groups if first else self._refresh_groups:
            x_local = x_global[:, grp.sl]
            y_local = y_global[:, grp.terminals]
            if grp.prepared is not None:
                lin = grp.prepared.lineariser(t, x_local, y_local)
            else:
                lin = linearise_block_lanes(grp.lanes, t, x_local, y_local, grp.shapes)
            if first:
                rep = grp.lanes[0]
                lin.validate(
                    self.n_lanes, rep.n_states, rep.n_terminals, rep.n_algebraic
                )
            for field, target, index, clear in grp.scatters if first else grp.refresh:
                if clear is None:
                    target[index] = getattr(lin, field)
                else:
                    target[clear] = 0.0
                    target[index] += getattr(lin, field)
        self._static_scattered = True
        return self._workspace

    def eliminate(
        self, lin: BatchedGlobalLinearisation, x_global: np.ndarray
    ) -> BatchedReducedSystem:
        """Solve Eq. (4) for all lanes with one stacked linear solve.

        Raises :class:`SingularLaneError` naming the offending lanes when
        any lane's ``J_yy`` is singular, so the caller can retire exactly
        those lanes and keep the rest marching.  While :meth:`prepare`
        holds the solve, the elimination fields are the held, read-only
        arrays: rebind a reduced system's fields, never write into them.
        """
        if self._held is not None:
            m, c, jxy_m, jxy_c = self._held
            return BatchedReducedSystem(
                a_reduced=lin.jxx + jxy_m,
                b_reduced=lin.ex + jxy_c,
                y_solution=np.matmul(m, x_global[..., None])[..., 0] + c,
                elimination_matrix=m,
                elimination_offset=c,
            )
        jyy = lin.jyy
        b = lin.n_lanes
        n_states = lin.jxx.shape[1]
        if jyy.shape[1] != jyy.shape[2]:
            raise SingularSystemError(
                f"algebraic system is not square ({jyy.shape[1]}x{jyy.shape[2]})"
            )
        if jyy.shape[1] == 0:
            empty = np.zeros((b, 0))
            # copy: lin is the persistent workspace, and the reduced
            # system must outlive the next refresh
            return BatchedReducedSystem(
                a_reduced=lin.jxx.copy(),
                b_reduced=lin.ex.copy(),
                y_solution=empty,
                elimination_matrix=np.zeros((b, 0, n_states)),
                elimination_offset=empty,
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
        jxy_m = np.matmul(lin.jxy, elimination_matrix)
        jxy_c = np.matmul(lin.jxy, elimination_offset[..., None])[..., 0]
        if self._hold_solve:
            # read-only: the reduced systems of later refreshes share them
            self._held = (elimination_matrix, elimination_offset, jxy_m, jxy_c)
            for array in self._held:
                array.flags.writeable = False
        return BatchedReducedSystem(
            a_reduced=lin.jxx + jxy_m,
            b_reduced=lin.ex + jxy_c,
            y_solution=y_solution,
            elimination_matrix=elimination_matrix,
            elimination_offset=elimination_offset,
        )
