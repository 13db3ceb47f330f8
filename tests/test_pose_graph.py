"""Tests for the SE(3) pose graph: residuals, Jacobians, and the LM solver."""

import re

import numpy as np
import pytest
from scipy.sparse import coo_matrix

import one_row_lie
from helpers import add_edge, poses_close, random_pose
from textloop.cli import optimize_trajectory
from textloop.config import load_config
from textloop.geometry import (
    _SMALL_ANGLE,
    NearPiRotation,
    Pose,
    exp_map,
    inverse_stacked,
    stack_poses,
)
from textloop.loop_closure import LoopConstraint, LoopSource
from textloop.pose_graph import (
    OptimizationReport,
    PoseGraph,
    SingularNormalEquations,
)


def _yaw_pose(yaw, t):
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose(rot, np.asarray(t, dtype=float))


@pytest.mark.parametrize(
    "i, j, message",
    [
        ([0, 1, 2], [1, 2, 2], "edge (2, 2) must join two different nodes of 3"),
        ([0, 1, 2], [1, 5, 1], "edge (1, 5) must join two different nodes of 3"),
        ([0, -1, 2], [1, 0, 1], "edge (-1, 0) must join two different nodes of 3"),
    ],
    ids=["self-loop", "past-last-node", "negative-node"],
)
def test_add_edges_checks_every_row_and_keeps_the_graph(i, j, message):
    graph = PoseGraph([Pose.identity()] * 3)
    add_edge(graph, 0, 1, Pose.identity(), np.eye(6))
    with pytest.raises(ValueError, match=re.escape(message)):
        graph.add_edges(i, j, (np.tile(np.eye(3), (3, 1, 1)), np.zeros((3, 3))), np.eye(6))
    assert graph.edges.tolist() == [[0, 1]]
    assert [len(a) for a in (graph.rot_inv, graph.trans_inv, graph.info)] == [1, 1, 1]


def test_from_odometry_structure():
    # one stacked call gives the bits of the per-step Pose.inverse() @ Pose
    # measurements, inverted and laid out as stacking and inverting them does
    rng = np.random.default_rng(3)
    poses = [random_pose(rng) for _ in range(4)]
    graph = PoseGraph.from_odometry(poses)
    assert len(graph.edges) == 3
    assert graph.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    steps = stack_poses([poses[k].inverse() @ poses[k + 1] for k in range(3)])
    rot_inv, trans_inv = inverse_stacked(*steps)
    assert np.array_equal(graph.rot_inv, rot_inv) and graph.rot_inv.strides == rot_inv.strides
    assert np.array_equal(graph.trans_inv, trans_inv)
    info = np.diag([2500.0] * 3 + [40000.0] * 3)
    assert np.array_equal(graph.info, np.broadcast_to(info, (3, 6, 6)))
    assert graph.info.flags.c_contiguous


def test_add_edges_appends_rows_with_the_layout_of_one_stack():
    rng = np.random.default_rng(5)
    nodes = [random_pose(rng) for _ in range(5)]
    measured = [random_pose(rng) for _ in range(4)]
    infos = rng.uniform(1.0, 2.0, size=(4, 6, 6))
    pairs = [(0, 1), (1, 3), (4, 2), (3, 0)]
    whole, split = PoseGraph(nodes), PoseGraph(nodes)
    whole.add_edges(*zip(*pairs), stack_poses(measured), infos)
    split.add_edges(*zip(*pairs[:1]), stack_poses(measured[:1]), infos[:1])
    split.add_edges(*zip(*pairs[1:]), stack_poses(measured[1:]), infos[1:])
    for name in ("edges", "rot_inv", "trans_inv", "info"):
        got, want = getattr(split, name), getattr(whole, name)
        assert np.array_equal(got, want) and got.strides == want.strides
    assert split.cost(stack_poses(nodes)) == whole.cost(stack_poses(nodes))


def test_residual_zero_on_consistent_edge():
    rng = np.random.default_rng(11)
    nodes = [random_pose(rng) for _ in range(3)]
    graph = PoseGraph(nodes)
    add_edge(graph, 0, 2, nodes[0].inverse() @ nodes[2], np.eye(6))
    assert np.linalg.norm(graph.edge_jacobians(stack_poses(nodes))[0][0]) < 1e-12


def test_residual_pure_translation():
    graph = PoseGraph([Pose.identity(), Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))])
    add_edge(graph, 0, 1, Pose.identity(), np.eye(6))
    assert np.allclose(graph.edge_jacobians(stack_poses(graph.nodes))[0], [[1.0] + [0.0] * 5])


def test_jacobians_match_finite_differences():
    # every edge row of the stacked Jacobians, against central differences of
    # the stacked residuals, on graphs with several edges per node
    rng = np.random.default_rng(29)
    eps = 1e-6
    for _ in range(5):
        nodes = [random_pose(rng) for _ in range(4)]
        graph = PoseGraph(nodes)
        pairs = ((1, 2), (0, 3), (3, 1), (2, 0), (1, 2))
        for i, j in pairs:
            add_edge(graph, i, j, random_pose(rng, max_angle=1.0), np.eye(6))
        r0, j_i, j_j = graph.edge_jacobians(stack_poses(nodes))
        assert r0.shape == (5, 6) and j_i.shape == j_j.shape == (5, 6, 6)
        for node_index in range(len(nodes)):
            analytic = np.zeros((len(pairs), 6, 6))
            for k, (i, j) in enumerate(pairs):
                if i == node_index:
                    analytic[k] = j_i[k]
                if j == node_index:
                    analytic[k] = j_j[k]
            numeric = np.zeros((len(pairs), 6, 6))
            for col in range(6):
                step = np.zeros(6)
                step[col] = eps
                plus = list(nodes)
                plus[node_index] = nodes[node_index] @ exp_map(step)
                minus = list(nodes)
                minus[node_index] = nodes[node_index] @ exp_map(-step)
                r_plus = graph.edge_jacobians(stack_poses(plus))[0]
                r_minus = graph.edge_jacobians(stack_poses(minus))[0]
                numeric[:, :, col] = (r_plus - r_minus) / (2.0 * eps)
            for row_analytic, row_numeric in zip(analytic, numeric):
                scale = max(1.0, float(np.abs(row_analytic).max()))
                assert np.abs(row_analytic - row_numeric).max() / scale < 1e-5


def test_optimize_is_noop_without_loops():
    rng = np.random.default_rng(5)
    poses = [Pose.identity()]
    for _ in range(10):
        poses.append(poses[-1] @ random_pose(rng, max_angle=0.3, max_radius=1.0))
    graph = PoseGraph.from_odometry(poses)
    report = graph.optimize()
    assert report.final_cost <= report.initial_cost
    assert report.initial_cost < 1e-18
    assert report.converged
    for before, after in zip(poses, graph.nodes):
        assert poses_close(after, before, tol=1e-12)


def test_two_node_weighted_mean():
    # two disagreeing translation measurements: minimum of
    # 100 (x - 1)^2 + 300 (x - 1.2)^2 sits at x = 1.15
    graph = PoseGraph([Pose.identity(), Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))])
    add_edge(graph, 0, 1, Pose(np.eye(3), np.array([1.0, 0.0, 0.0])), 100.0 * np.eye(6))
    add_edge(graph, 0, 1, Pose(np.eye(3), np.array([1.2, 0.0, 0.0])), 300.0 * np.eye(6))
    report = graph.optimize()
    assert report.final_cost < report.initial_cost
    assert np.allclose(graph.nodes[1].translation, [1.15, 0.0, 0.0], atol=1e-9)
    assert np.allclose(graph.nodes[1].rotation, np.eye(3), atol=1e-9)


def _drifted_ring(n=24, radius=6.0, bias=(0.01, 0.002, 0.0, 0.0, 0.0, 0.004)):
    """Ground-truth circle plus odometry that accumulates a fixed bias per step."""
    gt = []
    for k in range(n + 1):
        phi = 2.0 * np.pi * (k % n) / n
        gt.append(_yaw_pose(phi + np.pi / 2.0, [radius * np.cos(phi), radius * np.sin(phi), 0.0]))
    twist = exp_map(np.array(bias))
    odom = [gt[0]]
    for k in range(1, n + 1):
        odom.append(odom[-1] @ (gt[k - 1].inverse() @ gt[k]) @ twist)
    return gt, odom


def test_loop_edge_closes_drifted_ring():
    gt, odom = _drifted_ring()
    gap_before = np.linalg.norm(odom[-1].translation - odom[0].translation)
    assert gap_before > 0.3
    graph = PoseGraph.from_odometry(odom)
    # revisit measurement: the last pose coincides with the first
    add_edge(graph, len(odom) - 1, 0, Pose.identity(), 1e6 * np.eye(6))
    report = graph.optimize()
    assert report.final_cost < report.initial_cost
    assert report.converged
    gap_after = np.linalg.norm(graph.nodes[-1].translation - graph.nodes[0].translation)
    assert gap_after < 0.01 * gap_before


def test_first_node_stays_fixed():
    gt, odom = _drifted_ring()
    graph = PoseGraph.from_odometry(odom)
    add_edge(graph, len(odom) - 1, 0, Pose.identity(), 1e6 * np.eye(6))
    graph.optimize()
    assert np.array_equal(graph.nodes[0].rotation, odom[0].rotation)
    assert np.array_equal(graph.nodes[0].translation, odom[0].translation)


def _optimized_graphs(monkeypatch):
    """The graphs that optimize_trajectory hands to PoseGraph.optimize, in call order."""
    graphs = []
    optimize = PoseGraph.optimize

    def recording(graph, *args, **kwargs):
        graphs.append(graph)
        return optimize(graph, *args, **kwargs)

    monkeypatch.setattr(PoseGraph, "optimize", recording)
    return graphs


def test_optimize_trajectory_adds_loop_edges_from_constraint_fields(monkeypatch):
    graphs = _optimized_graphs(monkeypatch)
    constraints = [
        LoopConstraint(
            frame_i=4,
            frame_j=j,
            relative_pose=_yaw_pose(0.2 * j, [0.5, 0.0, 0.0]),
            information=np.diag([100.0 * j] * 3 + [400.0] * 3),
            source=LoopSource.ID_TEXT,
        )
        for j in (1, 2)
    ]
    optimize_trajectory([Pose.identity()] * 5, constraints, load_config(None, environ={}))
    (graph,) = graphs
    assert graph.edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4], [4, 1], [4, 2]]
    rot_inv, trans_inv = inverse_stacked(*stack_poses([c.relative_pose for c in constraints]))
    assert np.array_equal(graph.rot_inv[4:], rot_inv)
    assert np.array_equal(graph.trans_inv[4:], trans_inv)
    assert np.array_equal(graph.info[4:], [c.information for c in constraints])


def test_optimize_trajectory_without_loops_has_only_odometry_edges(monkeypatch):
    graphs = _optimized_graphs(monkeypatch)
    optimize_trajectory([Pose.identity()] * 3, [], load_config(None, environ={}))
    assert graphs[0].edges.tolist() == [[0, 1], [1, 2]]


def _outlier_chain():
    """Straight chain with exact odometry, one true loop edge, one corrupted one."""
    gt = [Pose(np.eye(3), np.array([float(k), 0.0, 0.0])) for k in range(5)]
    graph = PoseGraph.from_odometry(gt)
    add_edge(graph, 4, 0, gt[4].inverse() @ gt[0], 100.0 * np.eye(6))
    bad = Pose(np.eye(3), np.array([-1.0, 0.0, 0.0]))  # truth is [-3, 0, 0]
    add_edge(graph, 3, 0, bad, 100.0 * np.eye(6))
    return gt, graph


def test_huber_downweights_outlier_edge():
    gt, plain = _outlier_chain()
    plain.optimize()
    plain_err = max(
        np.linalg.norm(node.translation - ref.translation) for node, ref in zip(plain.nodes, gt)
    )
    _, robust = _outlier_chain()
    report = robust.optimize(huber_delta=1.0)
    robust_err = max(
        np.linalg.norm(node.translation - ref.translation)
        for node, ref in zip(robust.nodes, gt)
    )
    assert report.final_cost <= report.initial_cost
    assert plain_err > 0.1
    assert robust_err < 0.05
    assert robust_err < plain_err / 3.0


def test_singular_system_raises():
    # node 2 is not touched by any edge, so with zero damping the system is singular
    nodes = [Pose.identity(), Pose(np.eye(3), np.array([1.0, 0.0, 0.0])), Pose.identity()]
    graph = PoseGraph(nodes)
    add_edge(graph, 0, 1, Pose(np.eye(3), np.array([1.1, 0.0, 0.0])), np.eye(6))
    with pytest.raises(SingularNormalEquations):
        graph.optimize(lambda_init=0.0)


def test_report_fields():
    graph = PoseGraph([Pose.identity()])
    report = graph.optimize()
    assert isinstance(report, OptimizationReport)
    assert report.iterations == 0
    assert report.converged


# The per-edge Levenberg-Marquardt that the stacked PoseGraph replaced, kept
# as its oracle: one Python call per edge for residuals, Jacobians and cost.
# Its exp, log, skew and inverse V-matrix come from the frozen one-pose copies
# in one_row_lie, and its Jacobian helpers are frozen copies too, so the
# oracle shares no stacked code with what it checks.


def _oracle_adjoint(pose):
    out = np.zeros((6, 6))
    out[:3, :3] = pose.rotation
    out[:3, 3:] = one_row_lie.skew(pose.translation) @ pose.rotation
    out[3:, 3:] = pose.rotation
    return out


def _oracle_q_matrix(rho, theta):
    angle = float(np.linalg.norm(theta))
    cr = one_row_lie.skew(rho)
    cp = one_row_lie.skew(theta)
    if angle < _SMALL_ANGLE:
        c1 = 1.0 / 6.0 - angle**2 / 120.0
        c2 = 1.0 / 24.0 - angle**2 / 720.0
        c3 = -1.0 / 120.0 + angle**2 / 5040.0
    else:
        c1 = (angle - np.sin(angle)) / angle**3
        c2 = (1.0 - 0.5 * angle**2 - np.cos(angle)) / angle**4
        c3 = (angle - np.sin(angle) - angle**3 / 6.0) / angle**5
    cpcr = cp @ cr
    crcp = cr @ cp
    cpcrcp = cpcr @ cp
    cpcp = cp @ cp
    return (
        0.5 * cr
        + c1 * (cpcr + crcp + cpcrcp)
        - c2 * (cpcp @ cr + cr @ cpcp - 3.0 * cpcrcp)
        - 0.5 * (c2 - 3.0 * c3) * (cpcrcp @ cp + cpcp @ crcp)
    )


def _oracle_right_jacobian_inverse(xi):
    xi = -np.asarray(xi, dtype=float).reshape(6)
    rho, theta = xi[:3], xi[3:]
    v_inv = one_row_lie.v_matrix_inverse(theta)
    q = _oracle_q_matrix(rho, theta)
    out = np.zeros((6, 6))
    out[:3, :3] = v_inv
    out[3:, 3:] = v_inv
    out[:3, 3:] = -v_inv @ q @ v_inv
    return out


def _robust_cost(s, delta):
    if delta is None or s <= delta * delta:
        return s
    return 2.0 * delta * np.sqrt(s) - delta * delta


def _robust_weight(s, delta):
    if delta is None or s <= delta * delta:
        return 1.0
    return delta / np.sqrt(s)


class _PerEdgeGraph:
    """The oracle over nodes and (i, j, measured Pose, information) edge tuples."""

    def __init__(self, nodes, edges):
        self.nodes = list(nodes)
        self.edges = list(edges)

    def residual(self, edge, nodes=None):
        nodes = self.nodes if nodes is None else nodes
        i, j, measured, _ = edge
        x = nodes[i].inverse() @ nodes[j]
        return one_row_lie.log_map(measured.inverse() @ x)

    def edge_jacobians(self, edge):
        i, j, measured, _ = edge
        x = self.nodes[i].inverse() @ self.nodes[j]
        r = one_row_lie.log_map(measured.inverse() @ x)
        jr_inv = _oracle_right_jacobian_inverse(r)
        return r, -jr_inv @ _oracle_adjoint(x.inverse()), jr_inv

    def cost(self, nodes=None, huber_delta=None):
        total = 0.0
        for edge in self.edges:
            r = self.residual(edge, nodes)
            total += _robust_cost(float(r @ edge[3] @ r), huber_delta)
        return total

    def linearize(self, huber_delta):
        dim = 6 * (len(self.nodes) - 1)
        rows, cols, vals = [], [], []
        b = np.zeros(dim)
        span = np.arange(6)
        for edge in self.edges:
            i, j, _, information = edge
            r, j_i, j_j = self.edge_jacobians(edge)
            weight = _robust_weight(float(r @ information @ r), huber_delta)
            info = information * weight
            blocks = []
            if i > 0:
                blocks.append((i - 1, j_i))
            if j > 0:
                blocks.append((j - 1, j_j))
            for var_a, jac_a in blocks:
                b[6 * var_a : 6 * var_a + 6] += jac_a.T @ info @ r
                for var_b, jac_b in blocks:
                    rows.append(np.repeat(6 * var_a + span, 6))
                    cols.append(np.tile(6 * var_b + span, 6))
                    vals.append((jac_a.T @ info @ jac_b).ravel())
        h = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        ).tocsr()
        return h, b

    def retract(self, delta):
        nodes = [self.nodes[0]]
        for k in range(1, len(self.nodes)):
            nodes.append(self.nodes[k] @ one_row_lie.exp_map(delta[6 * (k - 1) : 6 * k]))
        return nodes

    def optimize(self, max_iterations=100, lambda_init=1e-6, huber_delta=None, tolerance=1e-12):
        cost = self.cost(huber_delta=huber_delta)
        initial = cost
        lam = lambda_init
        converged = False
        iteration = 0
        while iteration < max_iterations:
            if cost < 1e-20:
                converged = True
                break
            h, b = self.linearize(huber_delta)
            improved = False
            while lam <= 1e12:
                delta = PoseGraph._solve(h, b, lam)
                trial = self.retract(delta)
                trial_cost = self.cost(nodes=trial, huber_delta=huber_delta)
                if trial_cost < cost:
                    decrease = cost - trial_cost
                    self.nodes = trial
                    cost = trial_cost
                    lam = max(lam * 0.3, 1e-12)
                    improved = True
                    step = float(np.max(np.abs(delta)))
                    if step < tolerance or decrease <= tolerance * (1.0 + cost):
                        converged = True
                    break
                lam *= 10.0
            iteration += 1
            if not improved:
                converged = True
                break
            if converged:
                break
        return OptimizationReport(initial, cost, iteration, converged)


def _random_information(rng, scale):
    a = rng.normal(size=(6, 6))
    return scale * (a @ a.T + 6.0 * np.eye(6))


def _twist(rng, rho_scale, angle):
    axis = rng.normal(size=3)
    return np.concatenate([rng.normal(scale=rho_scale, size=3), angle * axis / np.linalg.norm(axis)])


def _oracle_graph(rng, n_nodes):
    """A drifted chain plus loop edges that reach every branch of the residual maths.

    Loop edges touch node 0 as i and as j, repeat one pair, and carry residuals
    with rotation angles below _SMALL_ANGLE, in the 1e-3 band below pi, and in
    between; their information spreads r^T info r on both sides of 0.5^2.
    """
    nodes = [random_pose(rng)]
    for _ in range(n_nodes - 1):
        nodes.append(nodes[-1] @ exp_map(_twist(rng, 0.5, rng.uniform(0.0, 0.3))))
    drifted = [n @ exp_map(_twist(rng, 0.01, 0.005)) if k else n for k, n in enumerate(nodes)]
    edges = [
        (k, k + 1, nodes[k].inverse() @ nodes[k + 1], _random_information(rng, 1.0))
        for k in range(n_nodes - 1)
    ]
    pairs = [(0, n_nodes - 1), (n_nodes - 2, 0), (2, 4), (2, 4), (3, 1), (n_nodes - 1, 1)]
    angles = [1e-6, 0.0, 0.3, np.pi - 5e-4, 1e-5, 2.0]
    scales = [1.0, 1e-2, 100.0, 1.0, 1e-4, 1e-2]
    for (i, j), angle, scale in zip(pairs, angles, scales):
        # measured against the drifted nodes, so the residual angle is `angle`
        truth = drifted[i].inverse() @ drifted[j]
        edges.append(
            (i, j, truth @ exp_map(_twist(rng, 0.05, angle)), _random_information(rng, scale))
        )
    graph = PoseGraph(drifted)
    for edge in edges:
        add_edge(graph, *edge)
    return graph, edges


def _linearized(graph, huber_delta):
    return graph._linearize(stack_poses(graph.nodes), huber_delta)


@pytest.mark.parametrize("huber_delta", [None, 0.5])
def test_stacked_graph_matches_per_edge_oracle(huber_delta):
    rng = np.random.default_rng(61)
    for n_nodes in (6, 9, 12):
        graph, edges = _oracle_graph(rng, n_nodes)
        oracle = _PerEdgeGraph(graph.nodes, edges)
        nodes = stack_poses(graph.nodes)
        r, j_i, j_j = graph.edge_jacobians(nodes)
        angles = np.linalg.norm(r[:, 3:], axis=1)
        assert (angles < _SMALL_ANGLE).any() and (np.pi - angles < 1e-3).any()
        if huber_delta is not None:
            s = np.einsum("ka,kab,kb->k", r, graph.info, r)
            assert (s <= huber_delta**2).any() and (s > huber_delta**2).any()
        for k, edge in enumerate(edges):
            expected = oracle.edge_jacobians(edge)
            assert np.array_equal(r[k], expected[0])
            assert np.array_equal(j_i[k], expected[1])
            assert np.array_equal(j_j[k], expected[2])
        assert graph.cost(nodes, huber_delta) == oracle.cost(huber_delta=huber_delta)
        h, b = _linearized(graph, huber_delta)
        h_oracle, b_oracle = oracle.linearize(huber_delta)
        assert np.array_equal(b, b_oracle)
        assert np.array_equal(h.toarray(), h_oracle.toarray())
        assert np.array_equal(h.indices, h_oracle.indices)
        report = graph.optimize(huber_delta=huber_delta)
        assert report == oracle.optimize(huber_delta=huber_delta)
        assert report.iterations > 0
        assert graph.nodes[0] is oracle.nodes[0]
        for got, want in zip(graph.nodes, oracle.nodes):
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)


def test_single_edge_graph_matches_per_edge_oracle():
    rng = np.random.default_rng(67)
    nodes = [random_pose(rng), random_pose(rng)]
    edge = (1, 0, random_pose(rng, max_angle=1.0), _random_information(rng, 1.0))
    graph = PoseGraph(nodes)
    add_edge(graph, *edge)
    oracle = _PerEdgeGraph(nodes, [edge])
    h, b = _linearized(graph, None)
    h_oracle, b_oracle = oracle.linearize(None)
    assert np.array_equal(b, b_oracle) and np.array_equal(h.toarray(), h_oracle.toarray())
    assert graph.optimize() == oracle.optimize()
    assert np.array_equal(graph.nodes[1].rotation, oracle.nodes[1].rotation)
    assert np.array_equal(graph.nodes[1].translation, oracle.nodes[1].translation)


def test_near_pi_residual_raises_like_per_edge_oracle():
    rng = np.random.default_rng(71)
    nodes = [random_pose(rng) for _ in range(4)]
    graph = PoseGraph(nodes)
    axis = np.array([0.0, 0.0, 1.0])
    # residual angles pi - 5e-4 (in the fallback band, fine), then two edges
    # past NEAR_PI_EPSILON: the first of them in edge order names its angle
    edges = []
    for (i, j), gap in (((0, 1), 5e-4), ((1, 2), 1e-10), ((2, 3), 0.0)):
        flip = exp_map(np.concatenate([np.zeros(3), (np.pi - gap) * axis]))
        edges.append((i, j, (nodes[i].inverse() @ nodes[j]) @ flip, np.eye(6)))
        add_edge(graph, *edges[-1])
    oracle = _PerEdgeGraph(nodes, edges)
    with pytest.raises(NearPiRotation) as expected:
        oracle.cost()
    for call in (graph.cost, graph.edge_jacobians, lambda _: graph.optimize()):
        with pytest.raises(NearPiRotation) as got:
            call(stack_poses(nodes))
        assert str(got.value) == str(expected.value)
