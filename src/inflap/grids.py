"""Domains, space-time cylinders, parabolic boundaries, sampled fields.

A spatial domain (interval, box, or ball) is discretized on a uniform
lattice of spacing h.  Interior nodes carry the unknowns; the surrounding
ring of lattice points (box faces, or the first layer of points failing
the ball mask rule) carries prescribed data.  For balls the ring points
store a *projected* sample position on the sphere, and stencil distances
to ring neighbors use the projected geometry (Shortley-Weller style,
clamped away from zero).  Box ring nodes are lattice points, so box arms
keep their lattice length h |off|; only ball rows can be *irregular*.

The grid has one lattice layout, flat and padded at both ends by the
stencil span ``sum(strides)``: ``node_flat`` is the flat position of each
node, ``flat_off`` the flat offset of each stencil column, and
``lattice()`` puts node values on a fresh such array.  A lattice-edge point
is never interior, so the flat shift of an interior point by a stencil
offset is its lattice neighbour and never wraps into another row, and
twice that offset (the 2h residual pass) stays inside the padding.  The
build classifies points on that layout: a ball point is interior when it
lies inside and all 2n axis neighbours lie in the closure, and the ring is
the set of other points that the full 3^n - 1 stencil of an interior point
reaches, each rule a few shifted slices of a padded mask.  It then walks
the stencil one column at a time through a node lookup over the layout,
the one ``nbr_index`` reads too, and keeps only a ball's irregular rows,
their arms and the shortest arm per row, ``dmin``.

The interior nodes lie in the flat range [lo, hi) (at ``interior_pos`` in
it), and on a flat array of lattice values stencil column k of that range
is the contiguous slice [lo + flat_off[k], hi + flat_off[k]).  The range
also holds ring and off-domain points; the readers keep their results only
at ``interior_pos``.  Two reductions read that layout: stencil_extremes,
per axis set, for the solver's kernel, and ``box_reduce``, the max or min
over the 3^n box around each interior row, for the envelope sweeps and for
``inner_rows`` (the rows whose whole stencil is interior, where the
residuals take their 2h pass and balls their clean rows).  The two are
separate so that the kernel's stencil can change without moving either.
The stencil's columns run by distance class, shortest first: that order
is the kernel's tie rule (see solver).  The kernel's special rows read
``column_base = flat_off + lo``, the stencil positions ``irregular_flat``
and arm lengths ``irregular_arms`` of the ``irregular_rows`` as
(n_irr, K) row-major tables with their row starts ``irregular_starts``,
and ``arm_lengths(rows)``, any rows' arms in one gather from one
row-major table: the irregular arms, then the lattice lengths h |off| as
its last row.  The (Ni, K) neighbour tables ``nbr_index`` and
``nbr_dist`` are not kept: the grid computes them from that record on
first access, for tests and probes, and no module here reads them.

The cylinder keeps time levels t_j = j T/(L-1) spanning [0, T].  Its
parabolic boundary P_T is ``pt_mask``, an (N, L) bool: the initial slab
plus the ring entries at levels 1 .. L-2, the ones with t < T (the t = T
ring slab is not part of P_T, matching the half-open lateral boundary).
The boundary datum is sampled on P_T alone, at its own size: a
``BoundarySamples`` record holds f on the initial slab as an (N,) array
and g at the ring nodes on levels 1 .. L-2 as an (Nb, L-2) block.  A
``GridField`` is finite by construction: NaN or inf raises ValueError.

Artifacts are written by two functions: ``write_csv`` (numbers as %.17g)
and ``write_json`` (numpy values as Python numbers, sorted keys, one-space
indent); ``grid_to_json`` and ``field_to_csv`` describe a grid and a field.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Domain",
    "CylinderGrid",
    "GridField",
    "BoundaryData",
    "BoundarySamples",
    "GridConfigError",
    "DataError",
    "build_grid",
    "sample_boundary_data",
    "grid_to_json",
    "field_to_csv",
    "write_csv",
    "write_json",
]


class GridConfigError(ValueError):
    """Degenerate or inconsistent grid configuration."""


class DataError(ValueError):
    """Boundary data violating positivity or continuity requirements."""


def _real(value, kind=numbers.Real):
    """True for a number of kind (real, or numbers.Integral) that is not a
    bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(name, value):
    """float(value); GridConfigError unless value is a finite real number."""
    if not (_real(value) and math.isfinite(value)):
        raise GridConfigError(f"{name} must be a finite number: {value!r}")
    return float(value)


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
        a, b = _finite("interval end a", a), _finite("interval end b", b)
        if not b > a:
            raise GridConfigError("interval requires b > a")
        return Domain("interval", ((a, b),), 1)

    @staticmethod
    def box(bounds):
        pairs = np.array(bounds, dtype=object)   # object: keeps bools
        if pairs.ndim != 2 or pairs.shape[1] != 2 or not pairs.size:
            raise GridConfigError("box bounds must be one [min, max] per axis")
        bounds = tuple(tuple(_finite("bounds", v) for v in b) for b in pairs)
        if not all(a < b for a, b in bounds):
            raise GridConfigError("box requires max > min on every axis")
        return Domain("box", bounds, len(bounds))

    @staticmethod
    def ball(center, radius):
        center = tuple(_finite("ball center", c)   # object: keeps bools
                       for c in np.atleast_1d(np.array(center, dtype=object)))
        radius = _finite("ball radius", radius)
        if not (center and radius > 0):
            raise GridConfigError("ball requires a center and R > 0")
        return Domain("ball", (center, radius), len(center))

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
    """The 3^n - 1 arms by number of nonzero entries (distance class), in
    product order within a class: the kernel's tie rule (see solver)."""
    offs = [z for z in itertools.product((-1, 0, 1), repeat=dim) if any(z)]
    return np.array(sorted(offs, key=np.count_nonzero), dtype=int)


@dataclass
class CylinderGrid:
    """Uniform lattice discretization of Omega x [0, T].

    Read-only after construction.  Boundary ("ring") nodes carry
    prescribed values at their projected sample positions; every interior
    node has a full 3^n - 1 stencil whose entries are interior or ring
    nodes.  Stencils are read from the one flat lattice layout (module
    docstring) of ``lattice_size`` points, through ``node_flat`` and
    ``flat_off``; derived from them are the interior range ``[lo, hi)``
    with ``interior_pos``, the axis ``strides``, the columns
    ``axis_columns`` of +e_i and -e_i, and ``stencil_classes``.  The
    kernel's special rows read ``dmin``, ``column_base``, the
    ``irregular_rows``' tables ``irregular_flat`` and ``irregular_arms``
    with their row starts ``irregular_starts``, and ``arm_lengths(rows)``.
    ``pt_mask``, the (N, L) membership in P_T, and ``inner_rows``, the
    interior rows whose whole stencil is interior, are computed once here;
    the (Ni, K) tables ``nbr_index`` and ``nbr_dist``, in Fortran order,
    on first access only.
    """

    domain: Domain
    h: float
    T: float
    time_levels: int
    pos: np.ndarray           # (N, n) lattice coordinates
    sample_pos: np.ndarray    # (N, n) positions where data/fields live
    interior_mask: np.ndarray  # (N,) bool
    irregular_rows: np.ndarray  # (n_irr,) interior rows with an arm off h|off|
    irregular_arms: np.ndarray  # (n_irr, K) their arm lengths, row-major
    dmin: np.ndarray          # (Ni,) shortest arm per interior row
    offsets: np.ndarray       # (K, n) canonical offsets, by class
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

    @functools.cached_property
    def nbr_index(self):
        """(Ni, K) node index of every stencil arm of every interior row,
        in F order."""
        node_at = _node_at(self.node_flat, self.lattice_size)
        return node_at[self.column_base[:, None] + self.interior_pos].T

    @functools.cached_property
    def nbr_dist(self):
        """(Ni, K) length of every stencil arm of every interior row, in F
        order: h |off|, or the irregular rows' arms."""
        return np.asfortranarray(
            self.arm_lengths(np.arange(self.interior_idx.size)))

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
        """(len(rows), K) row-major arm lengths of the interior rows
        ``rows``: an irregular row's projected distances, any other row's
        lattice lengths h |off| (the last row of the table)."""
        return self._arm_table[self._arm_row[rows]]

    def __post_init__(self):
        self.interior_idx = np.flatnonzero(self.interior_mask)
        self.boundary_idx = np.flatnonzero(~self.interior_mask)
        # stencil columns of +e_i and of -e_i, one per axis
        axes = np.eye(self.dim, dtype=int)[:, None]
        self.axis_columns = tuple(
            (self.offsets == e).all(-1).argmax(1).tolist()
            for e in (axes, -axes))
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
        # the flat stencil positions of the irregular rows, (n_irr, K)
        # row-major as their arm lengths, and the flat index of each row's
        # first entry in such a table
        irr = self.irregular_rows
        self.column_base = self.flat_off + self.lo
        self.irregular_flat = (self.interior_pos[irr, None]
                               + self.column_base)
        self.irregular_starts = np.arange(irr.size) * len(self.offsets)
        # arm_lengths' table: the irregular rows' arms, then the lattice
        # lengths h |off|; and the table row of every interior row
        self._arm_table = np.vstack((self.irregular_arms, lat))
        self._arm_row = np.full(self.interior_idx.size, irr.size)
        self._arm_row[irr] = np.arange(irr.size)
        # the rows whose 3^n box holds interior nodes only
        inside = np.zeros(self.lattice_size, dtype=bool)
        inside[int_pos] = True
        self.inner_rows = self.box_reduce(inside, np.minimum)
        # P_T: every node at t = 0 and the ring nodes at t < T, levels
        # 0 .. L-2 (the lateral boundary is half-open in time)
        self.pt_mask = np.zeros((self.n_nodes, self.time_levels), dtype=bool)
        self.pt_mask[:, 0] = True
        self.pt_mask[self.boundary_idx, :-1] = True


def _node_at(node_flat, size):
    """Node number at each point of a flat lattice of ``size`` points, -1
    at the points that are not nodes."""
    node_at = np.full(size, -1, dtype=np.int64)
    node_at[node_flat] = np.arange(node_flat.size)
    return node_at


def build_grid(domain, h, T, time_levels, min_interior_per_axis=3):
    """Discretize domain x [0, T] on a uniform lattice of spacing h.

    Raises GridConfigError for degenerate grids (fewer than
    ``min_interior_per_axis`` interior nodes along some axis; pass a smaller
    value deliberately for toy grids).
    """
    h, T = _finite("h", h), _finite("T", T)
    if h <= 0 or T <= 0:
        raise GridConfigError("h and T must be positive")
    if not _real(time_levels, numbers.Integral):
        raise GridConfigError(
            f"time_levels must be an integer: {time_levels!r}")
    if time_levels < 2:
        raise GridConfigError("need at least 2 time levels")
    n = domain.dim
    offsets = _stencil_offsets(n)
    ball = domain.kind == "ball"

    # the lattice: origin + h * index, index from first to first + shape - 1
    if ball:
        origin, R = domain.bounds
        if 2.0 * R / h < min_interior_per_axis + 1:
            raise GridConfigError(
                f"degenerate ball grid: 2R/h = {2 * R / h:.3g} too small"
            )
        K = int(np.ceil(R / h)) + 1
        first, shape = -K, (2 * K + 1,) * n
    else:
        counts = []
        for a, b in domain.bounds:
            steps = (b - a) / h
            m = round(steps)
            if abs(steps - m) > 1e-6 * max(1.0, abs(steps)):
                raise GridConfigError(
                    f"spacing {h} does not tile [{a}, {b}] evenly"
                )
            counts.append(m)
        if min(counts) - 1 < min_interior_per_axis:
            raise GridConfigError(
                f"degenerate grid: {min(counts) - 1} interior nodes per axis, "
                f"need {min_interior_per_axis}"
            )
        origin = [a for a, _ in domain.bounds]
        first, shape = 0, tuple(m + 1 for m in counts)
    index = np.stack([m.ravel() for m in np.meshgrid(
        *(np.arange(first, first + s) for s in shape), indexing="ij")], -1)
    pos = np.asarray(origin) + h * index

    # the flat lattice, padded by the stencil span at both ends: a
    # lattice-edge point is never interior, so the flat shift of an interior
    # point by a stencil offset is its lattice neighbour, never a point of
    # another row, and twice that offset stays inside the padded array
    size = len(pos)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    span = int(strides.sum())
    flat_off = offsets @ strides
    if ball:
        # interior: inside, with all 2n axis neighbours in the closure; the
        # ring: the other points that an interior stencil reaches
        r = np.linalg.norm(pos - np.asarray(origin), axis=-1)
        interior = r < R * (1 - 1e-12)
        closure = np.pad(r <= R * (1 + 1e-12), span)
        for s in strides:
            interior &= (closure[span + s:][:size]
                         & closure[span - s:][:size])
        padded = np.pad(interior, span)
        keep = interior.copy()
        for off in flat_off:
            keep |= padded[span - off:][:size]
    else:
        interior = np.all((index > 0) & (index < np.array(shape) - 1),
                          axis=-1)
        keep = np.ones(size, dtype=bool)
    node_flat = np.flatnonzero(keep) + span
    pos, interior = pos[keep], interior[keep]
    if not np.any(interior):
        raise GridConfigError("grid has no interior nodes")
    sample_pos = pos.copy()

    lat_dist = h * np.linalg.norm(offsets, axis=-1)
    int_ids = np.flatnonzero(interior)
    dmin = np.full(int_ids.size, lat_dist.min())
    irr = np.zeros(0, dtype=np.intp)
    arms = np.zeros((0, len(offsets)))
    if ball:
        sample_pos[~interior] = domain.project_to_boundary(pos[~interior])
        # the ring arms, one stencil column at a time in (column, row)
        # order: projected distance, clamped to [0.4 h, 1.5 |off| h]; the
        # row dot is the one np.linalg.norm takes on a single vector, taken
        # over all arms at once
        node_at = _node_at(node_flat, size + 2 * span)
        int_flat, ring = node_flat[int_ids], []
        for k, off in enumerate(flat_off):
            nbr = node_at[int_flat + off]
            row = np.flatnonzero(~interior[nbr])
            ring.append((np.full(row.size, k), row, nbr[row]))
        k, row, nbr = (np.concatenate(a) for a in zip(*ring))
        diff = sample_pos[nbr] - pos[int_ids[row]]
        d = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
        d = np.minimum(np.maximum(d, 0.4 * h), 1.5 * lat_dist[k])
        # the irregular rows: an arm off its lattice length
        irr = np.unique(row[d != lat_dist[k]])
        arms = np.tile(lat_dist, (irr.size, 1))
        mine = np.isin(row, irr)
        arms[np.searchsorted(irr, row[mine]), k[mine]] = d[mine]
        dmin[irr] = arms.min(axis=1)

    t = np.linspace(0.0, T, time_levels)
    return CylinderGrid(
        domain=domain, h=h, T=T, time_levels=int(time_levels),
        pos=pos, sample_pos=sample_pos, interior_mask=interior,
        irregular_rows=irr, irregular_arms=arms, dmin=dmin,
        offsets=offsets, t=t, node_flat=node_flat, flat_off=flat_off,
        lattice_size=size + 2 * span,
    )


@dataclass
class GridField:
    """Scalar samples on a cylinder grid: values[node, level], all finite
    (construction raises ValueError on a NaN or an infinite value).

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
        lo, hi = self.values.min(), self.values.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"field values must be finite (min {lo:.3g}, "
                             f"max {hi:.3g})")

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


@dataclass(frozen=True, eq=False)
class BoundarySamples:
    """h on the parabolic boundary P_T of one grid, and nothing else.

    slab is f at every node at t = 0, an (N,) array; ring is g at the ring
    nodes (grid.boundary_idx) on the open levels 0 < t < T, an (Nb, L-2)
    block whose column j - 1 is level j.  m and M are the inf and sup of
    the two.  parts(values) lays out the P_T entries of an (N, L) array the
    same way.
    """

    grid: CylinderGrid
    slab: np.ndarray
    ring: np.ndarray
    m: float
    M: float

    def parts(self, values):
        """(values[:, 0], values[ring nodes, 1:L-1]): the P_T entries of
        the (N, L) array values, as slab and ring."""
        return values[:, 0], values[self.grid.boundary_idx, 1:-1]


@dataclass
class BoundaryData:
    """Continuous data h on P_T: f(x) at t=0, g(x,t) on the lateral boundary.

    ``f`` maps (N, n) points to (N,) values; ``g`` maps ((N, n), t) to (N,).
    ``samples`` is the BoundarySamples record sample_boundary_data made
    for the last grid it was given, and m and M are the inf and sup of h
    on that grid's P_T (None before the first sampling).  The record
    assumes f and g stay as they are; dataclasses.replace makes new data
    without one.
    """

    f: Callable
    g: Callable
    zero_lateral_ok: bool = False
    name: str = "custom"
    params: dict = field(default_factory=dict)
    samples: Optional[BoundarySamples] = field(default=None, init=False,
                                               repr=False, compare=False)

    @property
    def m(self):
        return None if self.samples is None else self.samples.m

    @property
    def M(self):
        return None if self.samples is None else self.samples.M


def sample_boundary_data(bd, grid):
    """h on P_T, sampled once per grid: a BoundarySamples record with f at
    every node at t = 0 and g at the ring nodes on levels 1 .. L-2.

    No (N, L) array is made.  The record is kept as bd.samples and returned
    as it is while grid is the same object; another grid is sampled afresh
    and replaces it.  Raises DataError if any sample is not finite, if any
    is nonpositive (zero allowed when bd.zero_lateral_ok), or if f and g
    disagree at the lateral boundary at t = 0.
    """
    if bd.samples is not None and bd.samples.grid is grid:
        return bd.samples
    slab = np.empty(grid.n_nodes)
    slab[:] = bd.f(grid.sample_pos)
    bidx = grid.boundary_idx
    bpts = grid.sample_pos[bidx]
    ring = np.empty((bidx.size, grid.time_levels - 2))
    for j in range(1, grid.time_levels - 1):
        ring[:, j - 1] = bd.g(bpts, grid.t[j])
    # np.minimum and np.maximum carry a NaN through
    m = float(np.minimum(slab.min(), ring.min(initial=np.inf)))
    M = float(np.maximum(slab.max(), ring.max(initial=-np.inf)))
    if not (math.isfinite(m) and math.isfinite(M)):
        raise DataError(
            f"boundary data must be finite on P_T (min sample {m:.3g}, "
            f"max sample {M:.3g})")
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
    if gap > 1e-6 * max(1.0, abs(M)):
        raise DataError(
            f"f and g disagree at the corner (gap {gap:.3g}); "
            "data must be continuous on P_T"
        )
    bd.samples = BoundarySamples(grid, slab, ring, m, M)
    return bd.samples


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def grid_to_json(grid):
    """JSON description: domain, spacing, time axis, nodes and their
    interior flags."""
    dom = grid.domain
    return {
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


def field_to_csv(fld, path):
    """CSV rows (x..., t, value) for every sample, level by level."""
    grid = fld.grid
    write_csv(path, ",".join(f"x{i}" for i in range(grid.dim)) + ",t,value",
              np.column_stack((np.tile(grid.sample_pos, (len(grid.t), 1)),
                               np.repeat(grid.t, grid.n_nodes),
                               fld.values.T.ravel())))


def write_csv(path, header, rows):
    """CSV with the header line and one line per row of numbers, each
    written as %.17g (17 significant digits, so the bytes round-trip)."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % tuple(row)
                      for row in np.asarray(rows, dtype=float).tolist())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_json(path, obj):
    """JSON with sorted keys and a one-space indent; numpy scalars become
    Python floats and arrays lists."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=1, sort_keys=True)
