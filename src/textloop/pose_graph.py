"""Pose graph optimization over SE(3) relative-pose edges.

Nodes are absolute poses; each edge measures the pose of node j expressed in
node i's frame.  Levenberg-Marquardt with analytic Jacobians and a sparse
normal-equation solve.  The first node is held fixed to pin the gauge freedom.
The edges are stacked arrays, one row per edge, that add_edges extends a whole
stack at a time.  Residuals, Jacobians, costs and the retraction are evaluated
for all edges (or nodes) at once: rotations (N, 3, 3), translations (N, 3).
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
    compose_stacked,
    exp_map_stacked,
    inverse_stacked,
    log_map_stacked,
    relative_stacked,
    se3_right_jacobian_inverse,
    stack_poses,
)

ODOM_SIGMA_T = 0.02
ODOM_SIGMA_R = 0.005

_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12
_COST_FLOOR = 1e-20


class SingularNormalEquations(RuntimeError):
    """The damped normal equations could not be solved."""


@dataclass(frozen=True)
class OptimizationReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool


def _quadratic(r, info) -> np.ndarray:
    """r_k^T info_k r_k for each row k."""
    return ((r[:, None, :] @ info) @ r[:, :, None])[:, 0, 0]


class PoseGraph:
    def __init__(self, nodes):
        self.nodes: list[Pose] = list(nodes)
        # one row per edge: the node pair (i, j), the measurement of node j in
        # node i's frame, inverted as inverse_stacked makes it, and information
        self.edges = np.empty((0, 2), dtype=np.int64)
        self.rot_inv, self.trans_inv = inverse_stacked(np.empty((0, 3, 3)), np.empty((0, 3)))
        self.info = np.empty((0, 6, 6))

    @classmethod
    def from_odometry(
        cls, poses, sigma_t: float = ODOM_SIGMA_T, sigma_r: float = ODOM_SIGMA_R
    ) -> "PoseGraph":
        """Chain graph whose edges measure the odometry increments."""
        graph = cls(poses)
        k = np.arange(len(graph.nodes) - 1)
        info = np.diag([1.0 / sigma_t**2] * 3 + [1.0 / sigma_r**2] * 3)
        graph.add_edges(k, k + 1, relative_stacked(*stack_poses(graph.nodes), k, k + 1), info)
        return graph

    def add_edges(self, i, j, measured, information) -> None:
        """Append edges measuring node j[k] in node i[k]'s frame, in row order.

        measured is (rotations (E, 3, 3), translations (E, 3)), C-contiguous as
        stack_poses makes them; information is E (6, 6) matrices, or one for all.
        """
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        n = len(self.nodes)
        bad = (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n) | (i == j)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"edge ({i[k]}, {j[k]}) must join two different nodes of {n}")
        rot, trans = measured
        info = np.broadcast_to(np.reshape(information, (-1, 6, 6)), (len(i), 6, 6))
        self.edges = np.concatenate([self.edges, np.stack([i, j], axis=1)])
        # joined before the transpose, so that the stack keeps inverse_stacked's layout
        self.rot_inv = np.swapaxes(np.concatenate([np.swapaxes(self.rot_inv, 1, 2), rot]), 1, 2)
        self.trans_inv = np.concatenate([self.trans_inv, inverse_stacked(rot, trans)[1]])
        self.info = np.concatenate([self.info, info])

    def _relative(self, nodes):
        """Relative poses x = nodes[i]^-1 nodes[j] and (E, 6) residuals of all edges."""
        x = relative_stacked(*nodes, *self.edges.T)
        return x, log_map_stacked(*compose_stacked(self.rot_inv, self.trans_inv, *x))

    def edge_jacobians(self, nodes):
        """Residuals (E, 6) and their (E, 6, 6) derivatives for right perturbations of i and j.

        nodes are stacked (rotations, translations), as stack_poses makes them.
        """
        x, r = self._relative(nodes)
        jr_inv = se3_right_jacobian_inverse(r)
        return r, -jr_inv @ adjoint(*inverse_stacked(*x)), jr_inv

    def cost(self, nodes, huber_delta: float | None = None) -> float:
        """Sum over edges of r^T info r, Huber-robustified past huber_delta^2."""
        s = _quadratic(self._relative(nodes)[1], self.info)
        if huber_delta is not None:
            over = ~(s <= huber_delta * huber_delta)
            s[over] = 2.0 * huber_delta * np.sqrt(s[over]) - huber_delta * huber_delta
        # a running sum from 0.0, left to right: np.sum's pairwise sum rounds differently
        return float(np.cumsum(np.concatenate([[0.0], s]))[-1])

    def _linearize(self, nodes, huber_delta):
        r, j_i, j_j = self.edge_jacobians(nodes)
        info = self.info
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
        var = self.edges - 1  # -1: node 0, held fixed
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
        moved_rot[1:], moved_trans[1:] = compose_stacked(rot[1:], trans[1:], step_rot, step_trans)
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
        if len(self.nodes) <= 1 or not len(self.edges):
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
