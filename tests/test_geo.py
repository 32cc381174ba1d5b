"""Tests for graph construction, distances, wind features, and matrices."""

from dataclasses import replace

import numpy as np
import pytest

from physair.errors import ValidationError
from physair.geo import (
    EPS_DIST_KM,
    SensorMeta,
    WindRecord,
    build_graph,
    build_matrices,
    convection_edge_features,
    haversine_km,
    last_node_edges,
    local_norm_matrix,
    pairwise_distances_km,
    replace_last_node,
    scaled_laplacian,
)
from physair.model import GraphWiring, split_edges

KM_PER_DEG = 6371.0 * np.pi / 180.0  # one degree of a great circle


def sensor(i, lat, lon):
    return SensorMeta(sensor_id=f"s{i}", latitude=lat, longitude=lon)


def random_sensors(n, seed=0, span=0.3):
    rng = np.random.default_rng(seed)
    return [sensor(i, 36.0 + span * rng.random(), -120.0 + span * rng.random())
            for i in range(n)]


# ---------------------------------------------------------------------------
# Distances.
# ---------------------------------------------------------------------------

def test_haversine_identical_points():
    a = sensor(0, 36.7, -119.8)
    assert haversine_km(a, a) == 0.0


def test_haversine_one_degree_on_equator():
    # one degree of arc: 6371 * pi / 180
    d = haversine_km(sensor(0, 0.0, 0.0), sensor(1, 0.0, 1.0))
    assert abs(d - KM_PER_DEG) < 0.01
    assert abs(d - 111.195) < 0.01


def test_haversine_exactly_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = sensor(0, rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = sensor(1, rng.uniform(-80, 80), rng.uniform(-179, 179))
        assert haversine_km(a, b) == haversine_km(b, a)


def test_haversine_rejects_bad_coordinates():
    good = sensor(0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        haversine_km(sensor(1, 91.0, 0.0), good)
    with pytest.raises(ValidationError):
        haversine_km(good, sensor(1, 0.0, -181.0))


def test_pairwise_matches_scalar_haversine():
    sensors = random_sensors(6, seed=2)
    lats = [s.latitude for s in sensors]
    lons = [s.longitude for s in sensors]
    d = pairwise_distances_km(lats, lons)
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(6))
    for i in range(6):
        for j in range(6):
            assert abs(d[i, j] - haversine_km(sensors[i], sensors[j])) < 1e-9


# ---------------------------------------------------------------------------
# Graph construction.
# ---------------------------------------------------------------------------

def test_three_sensors_six_directed_edges():
    g = build_graph(random_sensors(3))
    assert g.n_edges == 6
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    assert pairs == {(j, i) for i in range(3) for j in range(3) if j != i}


def test_edges_grouped_by_destination():
    g = build_graph(random_sensors(5))
    n = g.n_nodes
    assert np.array_equal(g.dst, np.repeat(np.arange(n), n - 1))


def test_edge_order_matches_the_repeat_and_delete_construction():
    for n in range(2, 41):
        g = build_graph(random_sensors(n, seed=n))
        idx = np.arange(n)
        dst = np.repeat(idx, n - 1)
        src = np.concatenate([np.delete(idx, i) for i in range(n)])
        for got, want in ((g.dst, dst), (g.src, src)):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert np.array_equal(got, want), n


def test_inverse_distance_feature_two_km():
    lon = 2.0 / KM_PER_DEG
    g = build_graph([sensor(0, 0.0, 0.0), sensor(1, 0.0, lon)])
    e = g.diffusion_edge_features()
    assert np.all(np.abs(e - 0.5) < 1e-6)


def test_coincident_sensors_clamped():
    g = build_graph([sensor(0, 36.0, -120.0), sensor(1, 36.0, -120.0)])
    assert g.dist[0, 1] == EPS_DIST_KM
    assert g.dist[1, 0] == EPS_DIST_KM
    assert g.dist[0, 0] == 0.0
    assert np.all(g.diffusion_edge_features() == 1.0 / EPS_DIST_KM)


def test_graph_rejects_duplicates_and_singletons():
    with pytest.raises(ValidationError):
        build_graph([sensor(0, 0, 0)])
    dup = [SensorMeta("x", 0.0, 0.0), SensorMeta("x", 1.0, 1.0)]
    with pytest.raises(ValidationError):
        build_graph(dup)


def test_distance_floor_applies_off_diagonal_only():
    g = build_graph(random_sensors(7, seed=3, span=0.001))
    off = ~np.eye(7, dtype=bool)
    assert np.all(g.dist[off] >= EPS_DIST_KM)
    assert np.all(np.diag(g.dist) == 0.0)


# ---------------------------------------------------------------------------
# Wind features.
# ---------------------------------------------------------------------------

def east_west_pair():
    # node 1 is due east of node 0
    return build_graph([sensor(0, 0.0, 0.0), sensor(1, 0.0, 0.02)])


def edge_index(g, j, i):
    (k,) = np.nonzero((g.src == j) & (g.dst == i))[0]
    return int(k)


def test_wind_aligned_with_edge():
    g = east_west_pair()
    # wind from the west (270 deg) blows toward the east, i.e. from node 0 to node 1
    feats = convection_edge_features(g, WindRecord("2020-01-01T00:00", 10.0, 270.0))
    assert abs(feats[edge_index(g, 0, 1), 1] - 1.0) < 1e-12
    assert abs(feats[edge_index(g, 1, 0), 1] + 1.0) < 1e-12


def test_wind_perpendicular_to_edge():
    g = east_west_pair()
    feats = convection_edge_features(g, WindRecord("2020-01-01T00:00", 10.0, 180.0))
    assert abs(feats[edge_index(g, 0, 1), 1]) < 1e-12
    assert abs(feats[edge_index(g, 1, 0), 1]) < 1e-12


def test_wind_speed_and_distance_columns():
    g = east_west_pair()
    feats = convection_edge_features(g, WindRecord("2020-01-01T00:00", 7.5, 45.0))
    assert feats.shape == (2, 3)
    assert np.all(feats[:, 0] == 7.5)
    assert np.allclose(feats[:, 2], g.edge_dist())


def test_alignment_antisymmetric_exactly():
    g = build_graph(random_sensors(6, seed=4))
    for direction in (0.0, 37.0, 113.0, 250.5, 359.9):
        feats = convection_edge_features(g, WindRecord("t", 5.0, direction))
        w_a = feats[:, 1]
        for k in range(g.n_edges):
            rev = edge_index(g, int(g.dst[k]), int(g.src[k]))
            assert w_a[rev] == -w_a[k]


def test_alignment_bounded():
    g = build_graph(random_sensors(8, seed=5))
    rng = np.random.default_rng(6)
    for _ in range(25):
        feats = convection_edge_features(g, WindRecord("t", 3.0, rng.uniform(0, 360)))
        assert np.all(feats[:, 1] >= -1.0) and np.all(feats[:, 1] <= 1.0)


def test_wind_record_normalizes_direction():
    assert WindRecord("t", 1.0, 450.0).direction_deg == 90.0
    assert WindRecord("t", 1.0, -90.0).direction_deg == 270.0
    with pytest.raises(ValidationError):
        WindRecord("t", -1.0, 0.0)


def test_coincident_pair_has_zero_alignment():
    g = build_graph([sensor(0, 36.0, -120.0), sensor(1, 36.0, -120.0)])
    feats = convection_edge_features(g, WindRecord("t", 10.0, 123.0))
    assert np.all(feats[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# Laplacians.
# ---------------------------------------------------------------------------

def test_two_node_laplacian_hand_values():
    # K2 with unit weight: L = [[1,-1],[-1,1]], eigenvalues {0, 2}
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    lap, lam, lap_scaled = scaled_laplacian(a)
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
    assert lam == 2.0
    assert np.allclose(lap_scaled, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)


def test_laplacian_null_vector():
    g = build_graph(random_sensors(6, seed=7))
    a = g.adjacency()
    lap, _, _ = scaled_laplacian(a)
    null = np.sqrt(a.sum(axis=1))
    assert np.max(np.abs(lap @ null)) < 1e-10


def test_lambda_max_is_largest_laplacian_eigenvalue():
    rng = np.random.default_rng(8)
    for n in (3, 5, 8, 10, 28):
        w = rng.uniform(0.1, 2.0, size=(n, n))
        a = np.triu(w, 1)
        a = a + a.T
        _, lam, _ = scaled_laplacian(a)
        dense = np.linalg.eigvalsh(np.eye(n) - _norm_adj(a)).max()
        assert abs(lam - dense) < 1e-12


def _norm_adj(a):
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return d[:, None] * a * d[None, :]


def test_scaled_spectrum_in_unit_interval():
    for seed in range(4):
        g = build_graph(random_sensors(9, seed=seed))
        _, _, lap_scaled = scaled_laplacian(g.adjacency())
        eigs = np.linalg.eigvalsh(lap_scaled)
        assert eigs.min() >= -1.0 - 1e-8
        assert eigs.max() <= 1.0 + 1e-8


def test_laplacian_rejects_bad_adjacency():
    with pytest.raises(ValidationError):
        scaled_laplacian(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        scaled_laplacian(np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal
    with pytest.raises(ValidationError):
        scaled_laplacian(np.zeros((3, 3)))  # isolated nodes


# ---------------------------------------------------------------------------
# Local normalization.
# ---------------------------------------------------------------------------

def with_distances(graph, dist_km):
    """graph with every pairwise distance set to dist_km."""
    dist = np.full((graph.n_nodes, graph.n_nodes), float(dist_km))
    np.fill_diagonal(dist, 0.0)
    return replace(graph, dist=dist)


def test_local_norm_two_nodes():
    g = with_distances(build_graph(random_sensors(2, seed=9)), 2.0)
    m = local_norm_matrix(g)
    assert np.allclose(m, [1.5, 1.5])


def test_local_norm_three_nodes_unit_features():
    g = with_distances(build_graph(random_sensors(3, seed=10)), 1.0)
    m = local_norm_matrix(g)
    assert np.allclose(m, [3.0, 3.0, 3.0])


def test_local_norm_vanishing_features():
    g = with_distances(build_graph(random_sensors(4, seed=11)), 1e15)
    m = local_norm_matrix(g)
    assert np.allclose(m, np.ones(4), atol=1e-12)


def test_local_norm_default_uses_inverse_distance():
    g = build_graph(random_sensors(4, seed=12))
    m = local_norm_matrix(g)
    expected = 1.0 + g.adjacency().sum(axis=0)
    assert np.allclose(m, expected)
    assert np.all(m >= 1.0)


# ---------------------------------------------------------------------------
# Bundle.
# ---------------------------------------------------------------------------

def test_build_matrices_consistent():
    g = build_graph(random_sensors(6, seed=14))
    mats = build_matrices(g)
    assert np.array_equal(mats.a, mats.a.T)
    eigs = np.linalg.eigvalsh(mats.lap_scaled)
    assert eigs.max() <= 1.0 + 1e-8 and eigs.min() >= -1.0 - 1e-8


def test_build_matrices_deterministic():
    sensors = random_sensors(7, seed=15)
    m1 = build_matrices(build_graph(sensors))
    m2 = build_matrices(build_graph(sensors))
    for name in ("a", "lap_scaled", "m"):
        assert getattr(m1, name).tobytes() == getattr(m2, name).tobytes()


# ---------------------------------------------------------------------------
# A graph with its last node replaced.
# ---------------------------------------------------------------------------

def swap_cases():
    """(context, first query, next query) triples: C = 1, 2 and 27 context
    sensors, and a next query on a context sensor's coordinates."""
    for c in (1, 2, 27):
        points = random_sensors(c + 2, seed=c)
        context = tuple(points[:c])
        yield context, replace(points[c], sensor_id="q"), replace(points[c + 1], sensor_id="q")
        on_sensor = replace(context[-1], sensor_id="q")
        yield context, replace(points[c], sensor_id="q"), on_sensor


@pytest.mark.parametrize("context, first, query", list(swap_cases()))
def test_replaced_last_node_equals_a_built_graph_bit_for_bit(context, first, query):
    got = replace_last_node(build_graph(context + (first,)), query)
    want = build_graph(context + (query,))
    assert got.sensors == want.sensors
    for field in ("dist", "src", "dst", "edge_east", "edge_north"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    got_wiring, want_wiring = GraphWiring(got), GraphWiring(want)
    for name in ("lap_scaled", "loop_adj", "norm_direct", "norm_inverse"):
        assert (getattr(got_wiring, name).data.tobytes()
                == getattr(want_wiring, name).data.tobytes()), name
    # the query node's wind triples, built on its 2C edges alone
    n = len(context) + 1
    for wind in (WindRecord("t", 7.5, 33.0), WindRecord("t", 0.0, 270.0)):
        rows = convection_edge_features(got, wind, last_node_edges(n))
        whole = convection_edge_features(want, wind)[None]
        assert rows.tobytes() == split_edges(whole, n)[1].tobytes()


def test_a_query_on_a_context_sensor_gets_the_floor_and_a_zero_edge_vector():
    context = tuple(random_sensors(3, seed=4))
    graph = replace_last_node(build_graph(context + (sensor(9, 36.1, -119.9),)),
                              replace(context[1], sensor_id="q"))
    assert graph.dist[1, 3] == graph.dist[3, 1] == EPS_DIST_KM
    touching = last_node_edges(4)
    on_it = touching[(graph.src[touching] == 1) | (graph.dst[touching] == 1)]
    assert np.all(graph.edge_east[on_it] == 0.0) and np.all(graph.edge_north[on_it] == 0.0)


def test_last_node_edges_run_out_of_it_then_into_it():
    for n in (2, 3, 7):
        graph = build_graph(random_sensors(n, seed=n))
        edges = last_node_edges(n)
        c = n - 1
        assert np.array_equal(graph.src[edges], [c] * c + list(range(c)))
        assert np.array_equal(graph.dst[edges], list(range(c)) + [c] * c)


def test_replacing_the_last_node_runs_build_graphs_checks():
    context = tuple(random_sensors(3, seed=5))
    graph = build_graph(context + (sensor(9, 36.1, -119.9),))
    with pytest.raises(ValidationError, match="duplicate sensor ids"):
        replace_last_node(graph, replace(context[0], latitude=36.2))
    with pytest.raises(ValidationError, match="latitude"):
        replace_last_node(graph, sensor(9, 90.5, -119.9))
    with pytest.raises(ValidationError, match="longitude"):
        replace_last_node(graph, sensor(10, 36.0, -180.5))
    # the replaced node's own id may come back
    assert replace_last_node(graph, sensor(9, 36.2, -119.8)).sensors[-1].sensor_id == "s9"
