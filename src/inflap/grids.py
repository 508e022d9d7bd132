"""Domains, space-time cylinders, parabolic boundaries, sampled fields.

A spatial domain (interval, box, or ball) is discretized on a uniform
lattice of spacing h.  Interior nodes carry the unknowns; the surrounding
ring of lattice points (box faces, or the first layer of points failing
the ball mask rule) carries prescribed data.  For balls the ring points
store a *projected* sample position on the sphere, and stencil distances
to ring neighbors use the projected geometry (Shortley-Weller style,
clamped away from zero).  Box ring nodes are lattice points, so box arms
keep their lattice length h |off|; only ball rows can be *irregular*.

The build works on whole lattice arrays.  A ball point is interior when it
lies inside and all 2n axis neighbours lie in the closure; the ring is the
set of other points that the full 3^n - 1 stencil of an interior point
reaches.  Both rules are shifted boolean masks over the lattice, padded by
one point that counts as outside.  The lattice-shaped array ``node_of``
holds the node number of each kept point (-1 elsewhere), so a stencil
column is one gather at the flat indices ``flat_i + offset . strides``.

The grid keeps that lattice flat for every stencil read: ``node_flat`` is
the flat lattice position of each node and ``flat_off`` the flat offset of
each stencil column.  The flat lattice is padded at both ends by the
stencil span ``sum(strides)``, so that slices at twice a stencil offset
(the 2h residual pass) stay inside the array; ``lattice()`` puts node
values on a fresh such array.  The interior nodes lie in the flat range
[lo, hi) (at ``interior_pos`` in it), and on a flat array of lattice
values stencil column k of that range is the contiguous slice
[lo + flat_off[k], hi + flat_off[k]).  The range also holds ring and
off-domain points; the readers keep their results only at
``interior_pos``.  Two reductions read that layout: stencil_extremes,
per axis set, for the solver's kernel, and ``box_reduce``, the max or min
over the 3^n box around each interior row, for the envelope sweeps and for
``inner_rows`` (the rows whose whole stencil is interior, where the
residuals take their 2h pass and balls their clean rows).  The two are
separate so that the kernel's stencil can change without moving either.
The (Ni, K) tables ``nbr_index`` and ``nbr_dist`` remain as the build's
record: this module derives the shortest arms and the irregular rows from
them, and the benchmark probes read their shape and size.

The cylinder keeps time levels t_j = j T/(L-1) spanning [0, T].  Its
parabolic boundary P_T is ``pt_mask``, an (N, L) bool: the initial slab
plus the ring entries with t < T (the t = T ring slab is stored but is not
part of P_T, matching the half-open lateral boundary).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Domain",
    "CylinderGrid",
    "GridField",
    "BoundaryData",
    "GridConfigError",
    "DataError",
    "build_grid",
    "sample_boundary_data",
    "grid_to_json",
    "field_to_csv",
    "write_csv",
]


class GridConfigError(ValueError):
    """Degenerate or inconsistent grid configuration."""


class DataError(ValueError):
    """Boundary data violating positivity or continuity requirements."""


@dataclass(frozen=True)
class Domain:
    """Spatial region: interval [a,b], axis-aligned box, or ball.

    bounds: interval/box -> tuple of (min, max) per axis;
            ball -> (center tuple, radius).
    """

    kind: str
    bounds: tuple
    dim: int

    @staticmethod
    def interval(a, b):
        if not b > a:
            raise GridConfigError("interval requires b > a")
        return Domain("interval", ((float(a), float(b)),), 1)

    @staticmethod
    def box(bounds):
        bounds = tuple((float(a), float(b)) for a, b in bounds)
        for a, b in bounds:
            if not b > a:
                raise GridConfigError("box requires max > min on every axis")
        return Domain("box", bounds, len(bounds))

    @staticmethod
    def ball(center, radius):
        center = tuple(float(c) for c in np.atleast_1d(center))
        if not radius > 0:
            raise GridConfigError("ball requires R > 0")
        return Domain("ball", (center, float(radius)), len(center))

    # -- geometry predicates (vectorized over points of shape (..., dim)) --

    def contains(self, x):
        """Strict interior membership."""
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            c, R = self.bounds
            return np.linalg.norm(x - np.asarray(c), axis=-1) < R
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.all((x > lo) & (x < hi), axis=-1)

    def project_to_boundary(self, x):
        """Nearest boundary representative used for data sampling."""
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            c, R = self.bounds
            c = np.asarray(c)
            d = x - c
            nrm = np.linalg.norm(d, axis=-1, keepdims=True)
            nrm = np.where(nrm == 0, 1.0, nrm)
            return c + R * d / nrm
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.clip(x, lo, hi)

    def diameter(self):
        if self.kind == "ball":
            return 2.0 * self.bounds[1]
        return float(np.linalg.norm([b[1] - b[0] for b in self.bounds]))

    def boundary_distance(self, x):
        """Distance from interior points to the boundary."""
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            c, R = self.bounds
            return R - np.linalg.norm(x - np.asarray(c), axis=-1)
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.min(np.minimum(x - lo, hi - x), axis=-1)


def _stencil_offsets(dim):
    offs = [z for z in itertools.product((-1, 0, 1), repeat=dim) if any(z)]
    return np.array(offs, dtype=int)


@dataclass
class CylinderGrid:
    """Uniform lattice discretization of Omega x [0, T].

    Read-only after construction.  Boundary ("ring") nodes carry
    prescribed values at their projected sample positions; every interior
    node has a full 3^n - 1 stencil whose entries are interior or ring
    nodes.  Stencils are read from flat arrays of lattice values, padded
    by the stencil span at both ends, that ``lattice()`` fills through
    ``node_flat``; ``flat_off`` and the fields derived from it give the
    interior range ``[lo, hi)`` with ``interior_pos``, the axis
    ``strides`` and ``stencil_classes`` (see the module docstring,
    stencil_extremes and box_reduce).  Arm lengths come from
    ``arm_lengths``, with the shortest arm per row in ``dmin`` and the
    projected distances of the ``irregular_rows`` in ``irregular_dist``.
    The geometry of the cylinder is computed once here: ``pt_mask``, the
    (N, L) membership in P_T, and ``inner_rows``, the interior rows whose
    whole stencil is interior.  The neighbor tables ``nbr_index`` and
    ``nbr_dist`` are the build's record, stored in Fortran order; no other
    module reads their entries.
    """

    domain: Domain
    h: float
    T: float
    time_levels: int
    pos: np.ndarray           # (N, n) lattice coordinates
    sample_pos: np.ndarray    # (N, n) positions where data/fields live
    interior_mask: np.ndarray  # (N,) bool
    nbr_index: np.ndarray     # (Ni, K) node indices per offset, F order
    nbr_dist: np.ndarray      # (Ni, K) stencil distances, F order
    offsets: np.ndarray       # (K, n) canonical offsets
    t: np.ndarray             # (L,) time levels, t[0]=0, t[-1]=T
    node_flat: np.ndarray     # (N,) flat lattice position per node
    flat_off: np.ndarray      # (K,) flat lattice offset per column
    lattice_size: int         # points of the padded flat lattice

    @property
    def n_nodes(self):
        return self.pos.shape[0]

    @property
    def dim(self):
        return self.pos.shape[1]

    @property
    def dt_level(self):
        return self.t[1] - self.t[0]

    def offset_column(self, offset):
        """Column index in the neighbor table of a canonical offset."""
        key = tuple(int(v) for v in offset)
        return self._offset_lookup[key]

    def stencil_extremes(self, lat):
        """Max and min of the stencil values per axis set, from the flat
        lattice values lat.

        For an axis set S (bit i = axis i) the arms z + sum_{i in S} (+-e_i)
        are the 2^|S| stencil offsets whose nonzero entries lie on S.
        Returns, per entry of stencil_classes, its length and the list of
        (max, min) over those arms of each of its axis sets, as arrays
        over the interior range [lo, hi) that the caller may overwrite.
        Each set takes one max and one min: it is the extreme of two slices
        of the set without its lowest axis i, shifted by -e_i and +e_i.
        """
        tops = [lat[self._window]]
        bots = tops[:]
        for P, a, b in self._plan:
            tops.append(np.maximum(tops[P][a], tops[P][b]))
            bots.append(np.minimum(bots[P][a], bots[P][b]))
        return [(d, [(tops[S][w], bots[S][w]) for S, w in sets])
                for d, sets in self.stencil_classes]

    def lattice(self, vals):
        """Node values vals, (N,) or (N, L), on a fresh flat lattice array,
        (lattice_size,) or (lattice_size, L), 0 at the points that are not
        nodes."""
        lat = np.zeros((self.lattice_size,) + np.shape(vals)[1:])
        lat[self.node_flat] = vals
        return lat

    def box_reduce(self, lat, op):
        """op (np.maximum or np.minimum) over the 3^n box around every
        interior row, the row itself included, of the flat lattice values
        lat ((lattice_size,) or (lattice_size, L)); returns the rows in
        interior_idx order.

        One three-point pass per axis, on the interior range widened by
        the strides of the axes still to come, so that each pass shrinks
        it by its own stride on each side.
        """
        span = sum(self.strides)
        box = lat[self.lo - span:self.hi + span]
        for s in self.strides:
            n = len(box) - 2 * s
            box = op(op(box[:n], box[s:s + n]), box[2 * s:])
        return box[self.interior_pos]

    def arm_lengths(self, rows):
        """(K, len(rows)) arm lengths of the interior rows ``rows``: the
        lattice length h |off| of each column, or the projected distances
        of an irregular row."""
        return self._arm_table[:, self._arm_column[rows]]

    def __post_init__(self):
        self._offset_lookup = {
            tuple(int(v) for v in off): k for k, off in enumerate(self.offsets)
        }
        self.interior_idx = np.flatnonzero(self.interior_mask)
        self.boundary_idx = np.flatnonzero(~self.interior_mask)
        self.dmin = np.min(self.nbr_dist, axis=1)    # (Ni,) shortest arm
        # neighbor-table columns of +e_i and of -e_i, one per axis
        axes = np.eye(self.dim, dtype=int)
        self.axis_columns = ([self.offset_column(e) for e in axes],
                             [self.offset_column(-e) for e in axes])
        # the interior range [lo, hi) of the lattice and the position in it
        # of every interior row
        int_pos = self.node_flat[self.interior_idx]
        self.lo, self.hi = int(int_pos[0]), int(int_pos[-1]) + 1
        self.interior_pos = int_pos - self.lo
        # the plan of stencil_extremes: entry S of size |S| covers the
        # interior range widened on each side by the strides of the axes
        # outside S, and is built from entry S minus its lowest axis
        self.strides = strides = self.flat_off[self.axis_columns[0]].tolist()
        size, span = self.hi - self.lo, [sum(strides)]
        self._window = slice(self.lo - span[0], self.hi + span[0])
        self._plan = []
        for S in range(1, 2 ** self.dim):
            P = S & (S - 1)
            step = 2 * strides[(S ^ P).bit_length() - 1]
            span.append(span[P] - step // 2)
            n = size + 2 * span[S]
            self._plan.append((P, slice(0, n), slice(step, step + n)))
        # distance classes, shortest first: class m holds the arms with m
        # nonzero offset entries, all of length h sqrt(m); as (length, the
        # axis sets of size m, each with its slice on the interior range)
        lat = self.h * np.linalg.norm(self.offsets, axis=-1)
        nnz = np.abs(self.offsets).sum(axis=1)
        self.stencil_classes = [
            (float(lat[nnz == m][0]),
             [(S, slice(span[S], span[S] + size))
              for S in range(1, 2 ** self.dim) if bin(S).count("1") == m])
            for m in range(1, self.dim + 1)]
        # rows with an arm off h |off|, and their (K, n_irr) distances;
        # arm_lengths reads a row's column of those, or the lengths h |off|
        # appended as the last column
        irr = self.irregular_rows = np.flatnonzero(
            np.any(self.nbr_dist.T != lat[:, None], axis=0))
        self.irregular_dist = np.ascontiguousarray(self.nbr_dist.T[:, irr])
        self._arm_table = np.column_stack((self.irregular_dist, lat))
        self._arm_column = np.full(self.interior_idx.size, irr.size)
        self._arm_column[irr] = np.arange(irr.size)
        # the rows whose 3^n box holds interior nodes only
        inside = np.zeros(self.lattice_size, dtype=bool)
        inside[int_pos] = True
        self.inner_rows = self.box_reduce(inside, np.minimum)
        # P_T: every node at t = 0 and the ring nodes at t < T (the lateral
        # boundary is half-open in time)
        self.pt_mask = np.zeros((self.n_nodes, self.time_levels), dtype=bool)
        self.pt_mask[:, 0] = True
        self.pt_mask[self.boundary_idx] |= self.t < self.T * (1.0 - 1e-12)


def _shifted(padded, off):
    """View of a lattice array padded by one point per side holding, at
    each point z of the unpadded lattice, the entry of z + off."""
    return padded[tuple(slice(1 + o, s - 1 + o)
                        for o, s in zip(off, padded.shape))]


def build_grid(domain, h, T, time_levels, min_interior_per_axis=3):
    """Discretize domain x [0, T] on a uniform lattice of spacing h.

    Raises GridConfigError for degenerate grids (fewer than
    ``min_interior_per_axis`` interior nodes along some axis; pass a smaller
    value deliberately for toy grids).
    """
    if h <= 0 or T <= 0:
        raise GridConfigError("h and T must be positive")
    if time_levels < 2:
        raise GridConfigError("need at least 2 time levels")
    n = domain.dim
    offsets = _stencil_offsets(n)
    core = (slice(1, -1),) * n

    if domain.kind in ("interval", "box"):
        counts = []
        axes = []
        for a, b in domain.bounds:
            steps = (b - a) / h
            m = round(steps)
            if abs(steps - m) > 1e-6 * max(1.0, abs(steps)):
                raise GridConfigError(
                    f"spacing {h} does not tile [{a}, {b}] evenly"
                )
            counts.append(m)
            axes.append(a + h * np.arange(m + 1))
        if min(counts) - 1 < min_interior_per_axis:
            raise GridConfigError(
                f"degenerate grid: {min(counts) - 1} interior nodes per axis, "
                f"need {min_interior_per_axis}"
            )
        mesh = np.meshgrid(*axes, indexing="ij")
        pos = np.stack([m.ravel() for m in mesh], axis=-1)
        shape = tuple(m + 1 for m in counts)
        interior = np.zeros(shape, dtype=bool)
        interior[core] = True
        interior = interior.ravel()
        keep = np.ones(interior.size, dtype=bool)
        sample_pos = pos.copy()
    else:  # ball
        c, R = domain.bounds
        if 2.0 * R / h < min_interior_per_axis + 1:
            raise GridConfigError(
                f"degenerate ball grid: 2R/h = {2 * R / h:.3g} too small"
            )
        K = int(np.ceil(R / h)) + 1
        shape = (2 * K + 1,) * n
        mesh = np.meshgrid(*([np.arange(-K, K + 1)] * n), indexing="ij")
        lat = np.stack([m.ravel() for m in mesh], axis=-1)
        xyz = np.asarray(c) + h * lat
        r = np.linalg.norm(xyz - np.asarray(c), axis=-1)
        # points off the lattice count as outside the closure
        closure = np.pad((r <= R * (1 + 1e-12)).reshape(shape), 1)
        interior_all = (r < R * (1 - 1e-12)).reshape(shape)
        for e in np.eye(n, dtype=int):
            interior_all = (interior_all & _shifted(closure, e)
                            & _shifted(closure, -e))
        padded = np.pad(interior_all, 1)
        reached = np.zeros(shape, dtype=bool)
        for off in offsets:
            reached |= _shifted(padded, -off)
        keep = (interior_all | reached).ravel()
        pos = xyz[keep]
        interior = interior_all.ravel()[keep]
        sample_pos = pos.copy()
        sample_pos[~interior] = domain.project_to_boundary(pos[~interior])

    if not np.any(interior):
        raise GridConfigError("grid has no interior nodes")

    # node number at kept lattice points, -1 elsewhere and on a one-point
    # pad, so that the flat index of z + off never wraps to another row
    node_of = np.full(tuple(s + 2 for s in shape), -1, dtype=np.int64)
    node_of[core][keep.reshape(shape)] = np.arange(keep.sum())
    flat_off = offsets @ (np.array(node_of.strides) // node_of.itemsize)
    node_of = node_of.ravel()
    int_ids = np.flatnonzero(interior)
    flat_i = np.flatnonzero(node_of >= 0)[int_ids]
    # (K, Ni) in C order: the (Ni, K) tables are their F-order transposes
    nbr = node_of[flat_off[:, None] + flat_i]
    if np.any(nbr < 0):
        raise GridConfigError(
            "internal error: interior node with incomplete stencil"
        )
    lat_dist = h * np.linalg.norm(offsets, axis=-1)
    dist = np.repeat(lat_dist[:, None], int_ids.size, axis=1)
    if domain.kind == "ball":
        # ring arms: projected distance, clamped to [0.4 h, 1.5 |off| h];
        # the row dot is the one np.linalg.norm takes on a single vector
        k, row = np.nonzero(~interior[nbr])
        diff = sample_pos[nbr[k, row]] - pos[int_ids[row]]
        d = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
        dist[k, row] = np.minimum(np.maximum(d, 0.4 * h), 1.5 * lat_dist[k])

    # the stencil reads use the lattice without the one-point pad, flat and
    # padded by the stencil span at both ends: the stencil of an interior
    # node stays inside the lattice, so its flat offsets never wrap, and
    # twice those offsets stay inside the padded array
    lat_strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    span = int(lat_strides.sum())
    t = np.linspace(0.0, T, time_levels)
    return CylinderGrid(
        domain=domain, h=float(h), T=float(T), time_levels=int(time_levels),
        pos=pos, sample_pos=sample_pos, interior_mask=interior,
        nbr_index=nbr.T, nbr_dist=dist.T, offsets=offsets, t=t,
        node_flat=np.flatnonzero(keep) + span, flat_off=offsets @ lat_strides,
        lattice_size=keep.size + 2 * span,
    )


@dataclass
class GridField:
    """Scalar samples on a cylinder grid: values[node, level].

    variable_tag records whether the samples are the solution phi itself
    or its logarithm eta; the transforms module converts between the two.
    """

    grid: CylinderGrid
    values: np.ndarray
    variable_tag: str = "phi"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.grid.n_nodes, self.grid.time_levels)
        if self.values.shape != expect:
            raise ValueError(f"field shape {self.values.shape} != {expect}")
        if self.variable_tag not in ("phi", "eta"):
            raise ValueError("variable_tag must be 'phi' or 'eta'")

    @staticmethod
    def from_function(grid, fn, variable_tag="phi"):
        """Sample fn(points, t) -> (N,) on every time level."""
        vals = np.empty((grid.n_nodes, grid.time_levels))
        for j, tj in enumerate(grid.t):
            vals[:, j] = fn(grid.sample_pos, tj)
        return GridField(grid, vals, variable_tag)

    def copy(self):
        return GridField(self.grid, self.values.copy(), self.variable_tag,
                         dict(self.meta))


@dataclass
class BoundaryData:
    """Continuous data h on P_T: f(x) at t=0, g(x,t) on the lateral boundary.

    ``f`` maps (N, n) points to (N,) values; ``g`` maps ((N, n), t) to (N,).
    m and M are filled in by sample_boundary_data.
    """

    f: Callable
    g: Callable
    zero_lateral_ok: bool = False
    name: str = "custom"
    params: dict = field(default_factory=dict)
    m: Optional[float] = None
    M: Optional[float] = None

    def h_on(self, points, tval):
        """The combined datum h at lateral points and time tval."""
        if tval == 0.0:
            return np.asarray(self.f(points), dtype=float)
        return np.asarray(self.g(points, tval), dtype=float)


def sample_boundary_data(bd, grid, continuity_tol=1e-6):
    """Sample h on P_T; returns an (N, L) GridField with f on the initial
    slab, g at the ring nodes on later levels, and NaN elsewhere.

    The field also holds g at the ring nodes at t = T, which are not in
    P_T, so callers that want P_T alone mask with grid.pt_mask.

    Records m = inf and M = sup of the samples on bd.  Raises DataError if
    any sample is nonpositive (zero allowed when bd.zero_lateral_ok) or if
    f and g disagree at the lateral boundary at t = 0.
    """
    vals = np.full((grid.n_nodes, grid.time_levels), np.nan)
    vals[:, 0] = bd.f(grid.sample_pos)
    bidx = grid.boundary_idx
    bpts = grid.sample_pos[bidx]
    for j in range(1, grid.time_levels):
        vals[bidx, j] = bd.g(bpts, grid.t[j])
    samples = vals[grid.pt_mask]
    m = float(np.min(samples))
    M = float(np.max(samples))
    floor_ok = 0.0 if bd.zero_lateral_ok else np.finfo(float).tiny
    if m < floor_ok:
        raise DataError(
            f"boundary data must be positive on P_T (min sample {m:.3g})"
            + ("" if bd.zero_lateral_ok else
               "; pass zero_lateral_ok for decay experiments")
        )
    g0 = bd.g(bpts, 0.0)
    f0 = bd.f(bpts)
    gap = float(np.max(np.abs(g0 - f0))) if bidx.size else 0.0
    if gap > continuity_tol * max(1.0, abs(M)):
        raise DataError(
            f"f and g disagree at the corner (gap {gap:.3g}); "
            "data must be continuous on P_T"
        )
    bd.m, bd.M = m, M
    out = GridField(grid, vals, "phi", meta={"m": m, "M": M,
                                             "restricted_to": "P_T"})
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def grid_to_json(grid, path=None):
    """JSON description: domain, spacing, time axis, nodes and their
    interior flags."""
    dom = grid.domain
    desc = {
        "domain": {"kind": dom.kind, "bounds": dom.bounds, "dim": dom.dim},
        "h": grid.h,
        "T": grid.T,
        "time_levels": grid.time_levels,
        "nodes": [
            {"pos": p, "sample_pos": q, "interior": b}
            for p, q, b in zip(grid.pos.tolist(), grid.sample_pos.tolist(),
                               grid.interior_mask.tolist())
        ],
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(desc, fh, indent=1, sort_keys=True)
    return desc


def field_to_csv(fld, path, skip_nan=True):
    """CSV rows (x..., t, value) for every stored sample, level by level."""
    grid = fld.grid
    kept = ~np.isnan(fld.values.T) if skip_nan else np.ones(
        (grid.time_levels, grid.n_nodes), dtype=bool)
    level, node = np.nonzero(kept)
    write_csv(path, ",".join(f"x{i}" for i in range(grid.dim)) + ",t,value",
              np.column_stack((grid.sample_pos[node], grid.t[level],
                               fld.values[node, level])))


def write_csv(path, header, rows):
    """CSV with the header line and one line per row of numbers, each
    written as %.17g (17 significant digits, so the bytes round-trip)."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % tuple(row)
                      for row in np.asarray(rows, dtype=float).tolist())
