"""Sensor graphs, wind-aware edge features, and derived graph matrices.

The network is always a complete directed graph over the sensors. Edge
order is fixed: all edges into node 0 first (sources in ascending order),
then all edges into node 1, and so on. Several consumers rely on that
grouping, e.g. summing incoming messages by reshaping to (N, N-1).

Distances are great-circle kilometres with a small floor so that 1/dist
stays finite for co-located sensors. Wind directions arrive in the
meteorological convention (degrees the wind blows FROM) and are converted
to the blowing-toward vector before any angle is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

EARTH_RADIUS_KM = 6371.0
EPS_DIST_KM = 0.01


@dataclass(frozen=True)
class SensorMeta:
    """One sensor: a stable id and its geolocation in degrees."""

    sensor_id: str
    latitude: float
    longitude: float

    def validate(self) -> None:
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValidationError(f"sensor {self.sensor_id!r}: latitude {self.latitude} outside [-90, 90]")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ValidationError(f"sensor {self.sensor_id!r}: longitude {self.longitude} outside [-180, 180]")


def haversine_km(a: SensorMeta, b: SensorMeta) -> float:
    """Great-circle distance between two sensors, in kilometres.

    Uses Earth radius 6371.0 km. Exactly symmetric: the formula only sees
    absolute coordinate differences.
    """
    a.validate()
    b.validate()
    lat1, lon1 = np.radians(a.latitude), np.radians(a.longitude)
    lat2, lon2 = np.radians(b.latitude), np.radians(b.longitude)
    s1 = np.sin(abs(lat2 - lat1) / 2.0)
    s2 = np.sin(abs(lon2 - lon1) / 2.0)
    h = s1 * s1 + np.cos(lat1) * np.cos(lat2) * s2 * s2
    return float(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(min(1.0, h))))


def pairwise_distances_km(lats, lons) -> np.ndarray:
    """Full haversine distance matrix in km, exactly symmetric, zero diagonal:
    the upper triangle of cross_distances_km, mirrored."""
    out = np.triu(cross_distances_km(lats, lons, lats, lons), 1)
    return out + out.T


def cross_distances_km(lats_a, lons_a, lats_b, lons_b) -> np.ndarray:
    """Haversine distances between two point sets, shape (len(a), len(b))."""
    lat_a = np.radians(np.asarray(lats_a, dtype=float))[:, None]
    lon_a = np.radians(np.asarray(lons_a, dtype=float))[:, None]
    lat_b = np.radians(np.asarray(lats_b, dtype=float))[None, :]
    lon_b = np.radians(np.asarray(lons_b, dtype=float))[None, :]
    s1 = np.sin(np.abs(lat_b - lat_a) / 2.0)
    s2 = np.sin(np.abs(lon_b - lon_a) / 2.0)
    h = s1 * s1 + np.cos(lat_a) * np.cos(lat_b) * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, h)))


@dataclass(frozen=True)
class Graph:
    """Complete directed graph over a sensor network.

    dist keeps true zero on the diagonal; off-diagonal entries are floored
    at EPS_DIST_KM. Edge k runs src[k] -> dst[k], grouped by destination.
    edge_east/edge_north are unit vectors along each edge in a local
    east/north frame, zero where endpoints coincide.
    """

    sensors: tuple
    dist: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_east: np.ndarray
    edge_north: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.sensors)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def edge_dist(self) -> np.ndarray:
        """Per-edge distance (km), in edge order."""
        return self.dist[self.src, self.dst]

    def diffusion_edge_features(self) -> np.ndarray:
        """Per-edge inverse distance, the feature weighting the adjacency."""
        return 1.0 / self.edge_dist()

    def adjacency(self) -> np.ndarray:
        """Weighted adjacency A[i, j] = 1/dist(i, j), zero diagonal."""
        n = self.n_nodes
        a = np.zeros((n, n))
        off = ~np.eye(n, dtype=bool)
        a[off] = 1.0 / self.dist[off]
        return a


def build_graph(sensors) -> Graph:
    """Build the complete directed graph for a list of SensorMeta.

    Validates ids and coordinates, computes the clamped distance matrix,
    and fixes the edge ordering (grouped by destination node).
    """
    sensors = tuple(sensors)
    n = len(sensors)
    if n < 2:
        raise ValidationError(f"a graph needs at least 2 sensors, got {n}")
    ids = [s.sensor_id for s in sensors]
    if len(set(ids)) != n:
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"duplicate sensor ids: {dupes}")
    for s in sensors:
        s.validate()

    lats = np.array([s.latitude for s in sensors])
    lons = np.array([s.longitude for s in sensors])
    dist = pairwise_distances_km(lats, lons)
    off = ~np.eye(n, dtype=bool)
    dist[off] = np.maximum(dist[off], EPS_DIST_KM)
    # the off-diagonal (dst, src) pairs in row-major order: grouped by
    # destination, sources ascending
    dst, src = np.divmod(np.flatnonzero(off), n)
    edge_east, edge_north = _edge_vectors(lats, lons, dst, src)
    return Graph(sensors=sensors, dist=dist, src=src, dst=dst,
                 edge_east=edge_east, edge_north=edge_north)


def _edge_vectors(lats, lons, dst, src) -> tuple:
    """(east, north) unit vectors of the edges src -> dst, in a local
    equirectangular frame anchored at each pair's midpoint latitude.

    Built from coordinate differences, so reversing an edge flips the
    vector exactly. Each edge's vector depends on its two endpoints alone.
    """
    lat_r = np.radians(lats)
    lon_r = np.radians(lons)
    dx = (lon_r[dst] - lon_r[src]) * np.cos((lat_r[dst] + lat_r[src]) / 2.0)
    dy = lat_r[dst] - lat_r[src]
    norm = np.hypot(dx, dy)
    safe = np.where(norm > 0, norm, 1.0)
    return np.where(norm > 0, dx / safe, 0.0), np.where(norm > 0, dy / safe, 0.0)


def last_node_edges(n: int) -> np.ndarray:
    """Positions of the 2(n-1) edges that touch the last node of an n-node
    graph: first the edge from it into each other node, then the edges
    into it, each in edge order."""
    c = n - 1
    return np.concatenate([np.arange(c) * c + (c - 1), c * c + np.arange(c)])


def add_node(context: Graph, sensor: SensorMeta) -> Graph:
    """``build_graph(context.sensors + (sensor,))``, from context.

    Only the new node's distance row and column and the 2C edge vectors
    that touch it are computed; every other entry is context's. Each entry
    of build_graph's arrays depends on its own pair alone, so the result
    equals build_graph's field for field, bit for bit. The new node passes
    build_graph's checks: coordinates in range, and an id no context
    sensor has.
    """
    if any(s.sensor_id == sensor.sensor_id for s in context.sensors):
        raise ValidationError(f"duplicate sensor ids: {[sensor.sensor_id]}")
    sensor.validate()
    sensors = context.sensors + (sensor,)
    c, n = context.n_nodes, len(sensors)
    lats = np.array([s.latitude for s in sensors])
    lons = np.array([s.longitude for s in sensors])
    col = np.maximum(cross_distances_km(lats[:c], lons[:c], lats[c:], lons[c:])[:, 0],
                     EPS_DIST_KM)
    dist = np.zeros((n, n))
    dist[:c, :c] = context.dist
    dist[:c, c] = col
    dist[c, :c] = col
    dst, src = np.divmod(np.flatnonzero(~np.eye(n, dtype=bool)), n)
    # context's edges keep their order; the new node's take the rest
    new = last_node_edges(n)
    old = np.ones(n * c, dtype=bool)
    old[new] = False
    edge_east, edge_north = np.empty(n * c), np.empty(n * c)
    edge_east[old], edge_north[old] = context.edge_east, context.edge_north
    edge_east[new], edge_north[new] = _edge_vectors(lats, lons, dst[new], src[new])
    return Graph(sensors=sensors, dist=dist, src=src, dst=dst,
                 edge_east=edge_east, edge_north=edge_north)


def convection_edge_features(graph: Graph, wind, edges=slice(None)) -> np.ndarray:
    """Per-edge (w_v, w_A, dist) for each row of ``wind``, shape (H, E, 3),
    or only on the edge positions ``edges`` (an index array), in their order.

    wind is (H, 2), one row per hour as in Dataset.wind: the city-level
    speed in km/h (finite, >= 0) and the meteorological from-direction in
    degrees (finite, taken mod 360). w_v is the speed copied to every edge.
    w_A is the cosine of the angle between the wind's blowing-toward
    vector and the bearing of the edge, so wind blowing straight from j
    toward i gives w_A = +1 on edge j->i and, exactly, -1 on the reverse
    edge. Each row depends on its own hour and edge alone.
    """
    wind = np.asarray(wind, dtype=float)
    if wind.ndim != 2 or wind.shape[1] != 2:
        raise ValidationError(f"wind must be (hours, 2), got shape {wind.shape}")
    if not (np.isfinite(wind).all() and (wind[:, 0] >= 0).all()):
        raise ValidationError("wind must be finite, with every speed >= 0")
    toward = np.radians((wind[:, 1] % 360.0 + 180.0) % 360.0)[:, None]
    # compass angle: 0 = north, 90 = east
    u_east, u_north = np.sin(toward), np.cos(toward)
    out = np.empty((len(wind),) + graph.src[edges].shape + (3,))
    out[..., 0] = wind[:, :1]
    out[..., 1] = np.clip(u_east * graph.edge_east[edges] + u_north * graph.edge_north[edges],
                          -1.0, 1.0)
    out[..., 2] = graph.dist[graph.src[edges], graph.dst[edges]]
    return out


def scaled_laplacian(a: np.ndarray):
    """Normalized Laplacian of a weighted adjacency, rescaled to [-1, 1].

    Returns (L, lambda_max, L_D) with L = I - D^(-1/2) A D^(-1/2) and
    L_D = 2 L / lambda_max - I. lambda_max is the largest eigenvalue of
    the symmetric L from a dense eigensolve; the graphs here have at most
    a few dozen nodes, so that costs well under a millisecond and is exact
    to rounding, which keeps the spectrum of L_D inside [-1, 1]. A must be
    exactly symmetric, as every graph's here is: eigvalsh reads only one
    triangle, so a nearly symmetric A would get another matrix's lambda_max.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.array_equal(a, a.T):
        raise ValidationError("adjacency must be square and symmetric")
    if np.any(np.diag(a) != 0):
        raise ValidationError("adjacency must have a zero diagonal")
    deg = a.sum(axis=1)
    if np.any(deg <= 0):
        bad = np.nonzero(deg <= 0)[0].tolist()
        raise ValidationError(f"nodes with zero degree: {bad}")

    d_half = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - d_half[:, None] * a * d_half[None, :]
    lam_max = float(np.linalg.eigvalsh(lap)[-1])
    scaled = (2.0 / lam_max) * lap - np.eye(n)
    return lap, lam_max, scaled


def local_norm_matrix(graph: Graph) -> np.ndarray:
    """The diagonal of the local normalization M, per node: 1 plus the
    inverse distances on the edges into it.

    Entries are always >= 1, so M would scale features up; the model's
    local module divides by it, which shrinks them.
    """
    m = np.ones(graph.n_nodes)
    np.add.at(m, graph.dst, graph.diffusion_edge_features())
    return m


@dataclass(frozen=True)
class GraphMatrices:
    """Everything the model's linear algebra needs, derived once per graph:
    the adjacency, the scaled Laplacian and the diagonal of M."""

    a: np.ndarray
    lap_scaled: np.ndarray
    m: np.ndarray


def build_matrices(graph: Graph) -> GraphMatrices:
    """Adjacency, scaled Laplacian, and local normalization for one graph."""
    a = graph.adjacency()
    return GraphMatrices(a=a, lap_scaled=scaled_laplacian(a)[2], m=local_norm_matrix(graph))
