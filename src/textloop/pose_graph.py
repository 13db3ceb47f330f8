"""Pose graph optimization over SE(3) relative-pose edges.

Nodes are absolute poses; each edge measures the pose of node j expressed in
node i's frame.  Levenberg-Marquardt with analytic Jacobians and a sparse
normal-equation solve.  The first node is held fixed to pin the gauge freedom.
Residuals, Jacobians, costs and the retraction are evaluated for all edges
(or nodes) at once on stacked arrays: rotations (N, 3, 3), translations
(N, 3), one row per edge or node.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, identity as sparse_identity
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .geometry import (
    Pose,
    adjoint,
    exp_map_stacked,
    log_map_stacked,
    se3_right_jacobian_inverse,
    stack_poses,
)
from .loop_closure import LoopConstraint

ODOM_SIGMA_T = 0.02
ODOM_SIGMA_R = 0.005

_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12
_COST_FLOOR = 1e-20


class SingularNormalEquations(RuntimeError):
    """The damped normal equations could not be solved."""


@dataclass(frozen=True)
class PoseGraphEdge:
    i: int
    j: int
    measured: Pose
    information: np.ndarray

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError(f"edge endpoints must differ, got {self.i}")
        info = np.asarray(self.information, dtype=float).reshape(6, 6)
        object.__setattr__(self, "information", info)


@dataclass(frozen=True)
class OptimizationReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool


def _inverse(rot, trans):
    # Pose.inverse; like the Pose it makes, the rotation keeps the transposed
    # layout, which decides how BLAS rounds the products taken with it
    rot_t = np.swapaxes(rot, -1, -2)
    return rot_t, (-rot_t @ trans[..., None])[..., 0]


def _compose(rot_a, trans_a, rot_b, trans_b):
    return rot_a @ rot_b, (rot_a @ trans_b[..., None])[..., 0] + trans_a


def _quadratic(r, info) -> np.ndarray:
    """r_k^T info_k r_k for each row k."""
    return ((r[:, None, :] @ info) @ r[:, :, None])[:, 0, 0]


class _EdgeStack:
    """The edges as arrays: endpoints, inverted measurements, information."""

    def __init__(self, edges):
        self.i = np.array([e.i for e in edges], dtype=np.int64)
        self.j = np.array([e.j for e in edges], dtype=np.int64)
        self.meas_inv = _inverse(*stack_poses([e.measured for e in edges]))
        self.info = np.array([e.information for e in edges]).reshape(-1, 6, 6)


class PoseGraph:
    def __init__(self, nodes):
        self.nodes: list[Pose] = list(nodes)
        self.edges: list[PoseGraphEdge] = []
        self._edge_stack: _EdgeStack | None = None

    @classmethod
    def from_odometry(
        cls, poses, sigma_t: float = ODOM_SIGMA_T, sigma_r: float = ODOM_SIGMA_R
    ) -> "PoseGraph":
        """Chain graph whose edges measure the odometry increments."""
        graph = cls(poses)
        info = np.diag([1.0 / sigma_t**2] * 3 + [1.0 / sigma_r**2] * 3)
        for k in range(len(graph.nodes) - 1):
            measured = graph.nodes[k].inverse() @ graph.nodes[k + 1]
            graph.edges.append(PoseGraphEdge(k, k + 1, measured, info))
        return graph

    def add_edge(self, i: int, j: int, measured: Pose, information: np.ndarray) -> None:
        n = len(self.nodes)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside node range {n}")
        self.edges.append(PoseGraphEdge(i, j, measured, information))

    def add_loop(self, constraint: LoopConstraint) -> None:
        self.add_edge(
            constraint.frame_i,
            constraint.frame_j,
            constraint.relative_pose,
            constraint.information,
        )

    def _edges(self) -> _EdgeStack:
        """The edges as arrays, made again when edges were added."""
        if self._edge_stack is None or len(self._edge_stack.i) != len(self.edges):
            self._edge_stack = _EdgeStack(self.edges)
        return self._edge_stack

    def _relative(self, nodes):
        """Relative poses x = nodes[i]^-1 nodes[j] and (E, 6) residuals of all edges."""
        rot, trans = stack_poses(self.nodes) if nodes is None else nodes
        edges = self._edges()
        x = _compose(*_inverse(rot[edges.i], trans[edges.i]), rot[edges.j], trans[edges.j])
        return x, log_map_stacked(*_compose(*edges.meas_inv, *x))

    def edge_jacobians(self, nodes=None):
        """Residuals (E, 6) and their (E, 6, 6) derivatives for right perturbations of i and j.

        nodes are stacked (rotations, translations), as stack_poses makes
        them; by default self.nodes.
        """
        x, r = self._relative(nodes)
        jr_inv = se3_right_jacobian_inverse(r)
        return r, -jr_inv @ adjoint(*_inverse(*x)), jr_inv

    def cost(self, nodes=None, huber_delta: float | None = None) -> float:
        """Sum over edges of r^T info r, Huber-robustified past huber_delta^2."""
        s = _quadratic(self._relative(nodes)[1], self._edges().info)
        if huber_delta is not None:
            over = ~(s <= huber_delta * huber_delta)
            s[over] = 2.0 * huber_delta * np.sqrt(s[over]) - huber_delta * huber_delta
        total = 0.0
        for value in s.tolist():  # left to right: np.sum would round differently
            total += value
        return total

    def _linearize(self, nodes, huber_delta):
        r, j_i, j_j = self.edge_jacobians(nodes)
        edges = self._edges()
        info = edges.info
        if huber_delta is not None:
            s = _quadratic(r, info)
            weight = np.ones(len(s))
            over = ~(s <= huber_delta * huber_delta)
            weight[over] = huber_delta / np.sqrt(s[over])
            info = info * weight[:, None, None]
        jacs = (j_i, j_j)
        jt_info = [np.swapaxes(jac, 1, 2) @ info for jac in jacs]
        # per edge the blocks (i, i), (i, j), (j, i), (j, j) in this order, and
        # b in edge order, so that duplicates sum in the order they always have
        var = np.stack([edges.i - 1, edges.j - 1], axis=1)  # -1: node 0, held fixed
        row, col = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        blocks = np.stack([jt_info[a] @ jacs[c] for a, c in zip(row, col)], axis=1)
        keep = (var[:, row] >= 0) & (var[:, col] >= 0)
        span = np.arange(6)
        rows = np.repeat(6 * var[:, row][keep][:, None] + span, 6, axis=1)
        cols = np.tile(6 * var[:, col][keep][:, None] + span, 6)
        dim = 6 * (len(self.nodes) - 1)
        h = coo_matrix(
            (blocks[keep].ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim)
        ).tocsr()
        grad = np.stack([(jt @ r[:, :, None])[:, :, 0] for jt in jt_info], axis=1)
        b = np.zeros(dim)
        np.add.at(b, (6 * var[var >= 0][:, None] + span).ravel(), grad[var >= 0].ravel())
        return h, b

    @staticmethod
    def _solve(h, b, lam):
        dim = h.shape[0]
        system = (h + lam * sparse_identity(dim, format="csr")).tocsc()
        with warnings.catch_warnings():
            warnings.simplefilter("error", MatrixRankWarning)
            try:
                delta = spsolve(system, -b)
            except MatrixRankWarning as exc:
                raise SingularNormalEquations("normal equations are singular") from exc
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        if not np.all(np.isfinite(delta)):
            raise SingularNormalEquations("normal equation solve produced non-finite step")
        return delta

    @staticmethod
    def _retract(nodes, delta):
        """nodes[k] exp(delta_k) for k >= 1; node 0 stays."""
        rot, trans = nodes
        step_rot, step_trans = exp_map_stacked(delta.reshape(-1, 6))
        moved_rot, moved_trans = rot.copy(), trans.copy()
        moved_rot[1:], moved_trans[1:] = _compose(rot[1:], trans[1:], step_rot, step_trans)
        return moved_rot, moved_trans

    def optimize(
        self,
        max_iterations: int = 100,
        lambda_init: float = 1e-6,
        huber_delta: float | None = None,
        tolerance: float = 1e-12,
    ) -> OptimizationReport:
        """Minimize the weighted residual cost in place; node 0 never moves."""
        nodes = stack_poses(self.nodes)
        cost = self.cost(nodes, huber_delta)
        initial = cost
        if len(self.nodes) <= 1 or not self.edges:
            return OptimizationReport(initial, cost, 0, True)
        lam = lambda_init
        converged = False
        iteration = 0
        while iteration < max_iterations:
            if cost < _COST_FLOOR:
                converged = True
                break
            h, b = self._linearize(nodes, huber_delta)
            improved = False
            while lam <= _LAMBDA_MAX:
                delta = self._solve(h, b, lam)
                trial = self._retract(nodes, delta)
                trial_cost = self.cost(trial, huber_delta)
                if trial_cost < cost:
                    decrease = cost - trial_cost
                    nodes = trial
                    cost = trial_cost
                    lam = max(lam * 0.3, _LAMBDA_MIN)
                    improved = True
                    step = float(np.max(np.abs(delta)))
                    if step < tolerance or decrease <= tolerance * (1.0 + cost):
                        converged = True
                    break
                lam *= 10.0
            iteration += 1
            if not improved:
                # no damped step reduces the cost: already at a local minimum
                converged = True
                break
            if converged:
                break
        rot, trans = nodes
        self.nodes = [self.nodes[0]] + [Pose(r, t) for r, t in zip(rot[1:], trans[1:])]
        return OptimizationReport(initial, cost, iteration, converged)
