"""Grid, parabolic boundary, and boundary-data sampling tests."""

import json

import numpy as np
import pytest

from inflap import grids
from inflap.grids import (
    BoundaryData,
    DataError,
    Domain,
    GridConfigError,
    GridField,
    build_grid,
    sample_boundary_data,
)


def const_data(c=1.0, **kw):
    return BoundaryData(f=lambda x: np.full(len(x), c),
                        g=lambda x, t: np.full(len(x), c), **kw)


class TestBuildGrid:
    def test_interval_counts(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        assert g.interior_idx.size == 3
        assert g.boundary_idx.size == 2
        # one initial entry per node, and the ring entries on levels >= 1
        assert g.pt_mask.shape == (5, 5) and int(g.pt_mask[:, 0].sum()) == 5
        assert int((~g.interior_mask).sum()) * (g.time_levels - 1) == 2 * 4
        # P_T proper excludes the t=T lateral slab
        assert int(g.pt_mask.sum()) == 5 + 2 * 3

    def test_box_single_interior(self):
        g = build_grid(Domain.box([(0, 1), (0, 1)]), 0.5, 1.0, 3,
                       min_interior_per_axis=1)
        assert g.interior_idx.size == 1
        np.testing.assert_allclose(g.pos[g.interior_idx[0]], [0.5, 0.5])

    def test_ball_mask_rule_matches_brute_force(self):
        dom = Domain.ball((0.0, 0.0), 1.0)
        g = build_grid(dom, 0.5, 1.0, 3, min_interior_per_axis=1)
        # brute-force enumeration: lattice nodes strictly inside with all
        # axis neighbors inside the closed ball
        h = 0.5
        expect = set()
        for i in range(-3, 4):
            for j in range(-3, 4):
                x = np.array([i * h, j * h])
                if np.linalg.norm(x) >= 1.0:
                    continue
                nbrs = [x + h * np.array(v)
                        for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
                if all(np.linalg.norm(nb) <= 1.0 + 1e-12 for nb in nbrs):
                    expect.add((i, j))
        got = {tuple(np.round(g.pos[i] / h).astype(int))
               for i in g.interior_idx}
        assert got == expect

    def test_ball_ring_nodes_projected(self):
        dom = Domain.ball((0.0, 0.0), 1.0)
        g = build_grid(dom, 0.2, 1.0, 3)
        ring = g.boundary_idx
        r = np.linalg.norm(g.sample_pos[ring], axis=1)
        np.testing.assert_allclose(r, 1.0, atol=1e-12)

    def test_full_stencils(self):
        for dom in (Domain.interval(0, 1), Domain.box([(0, 1)] * 2),
                    Domain.ball((0, 0), 1.0)):
            g = build_grid(dom, 0.2, 0.5, 3)
            assert g.nbr_index.shape == (g.interior_idx.size,
                                         3 ** dom.dim - 1)
            assert np.all(g.nbr_index >= 0)
            assert np.all(g.nbr_dist > 0)

    def test_degenerate_raises(self):
        with pytest.raises(GridConfigError):
            build_grid(Domain.interval(0, 1), 0.5, 1.0, 3)
        with pytest.raises(GridConfigError):
            build_grid(Domain.interval(0, 1), 0.3, 1.0, 3)  # does not tile
        with pytest.raises(GridConfigError):
            build_grid(Domain.interval(0, 1), 0.1, -1.0, 3)

    def test_refinement_roughly_quadruples_2d(self):
        dom = Domain.ball((0.0, 0.0), 1.0)
        n1 = build_grid(dom, 0.2, 1.0, 3).interior_idx.size
        n2 = build_grid(dom, 0.1, 1.0, 3).interior_idx.size
        assert 3.0 < n2 / n1 < 5.0


class TestClassification:
    @pytest.mark.parametrize("seed", range(100))
    def test_partition_exhaustive_disjoint(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            m = rng.integers(4, 9)
            dom = Domain.interval(0.0, float(m) / 10.0)
            h = 0.1
        else:
            dom = Domain.ball((0.0, 0.0), float(rng.uniform(0.8, 1.5)))
            h = 0.25
        g = build_grid(dom, h, float(rng.uniform(0.5, 2.0)),
                       int(rng.integers(2, 7)))
        pt = g.pt_mask
        assert pt.shape == (g.n_nodes, g.time_levels) and pt.dtype == bool
        # interior and ring nodes partition the nodes
        assert g.interior_idx.size + g.boundary_idx.size == g.n_nodes
        assert np.all(g.interior_mask[g.interior_idx])
        assert not np.any(g.interior_mask[g.boundary_idx])
        # every t = 0 entry is in P_T, no interior entry at levels >= 1 is,
        # ring entries at levels 1..L-2 are, and nothing at t = T is
        assert np.all(pt[:, 0])
        assert not np.any(pt[g.interior_idx, 1:])
        assert np.all(pt[g.boundary_idx, 1:-1])
        assert not np.any(pt[:, -1])

    def test_corner_is_initial_and_in_pt(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        left = int(np.argmin(g.pos[:, 0]))
        assert not g.interior_mask[left]
        assert g.pt_mask[left, 0]

    def test_final_time_exclusions(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        last = g.time_levels - 1
        assert not np.any(g.pt_mask[:, last])          # no P_T at t=T
        assert np.all(g.pt_mask[g.boundary_idx, last - 1])
        # the t=T interior slab is interior-in-space, outside P_T
        assert not np.any(g.pt_mask[g.interior_idx, last])


class TestBoundaryData:
    def test_constant_data(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        bd = const_data(1.0)
        fld = sample_boundary_data(bd, g)
        assert np.all(fld.values[g.pt_mask] == 1.0)
        assert bd.m == bd.M == 1.0

    def test_linear_data_bounds(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        bd = BoundaryData(f=lambda x: 1.0 + x[:, 0],
                          g=lambda x, t: 1.0 + x[:, 0])
        sample_boundary_data(bd, g)
        assert abs(bd.m - 1.0) < 1e-14
        assert abs(bd.M - 2.0) < 1e-14

    def test_zero_lateral_rejected_without_flag(self):
        from inflap.radial import ball_eigenvalue, decaying_profile

        dom = Domain.ball((0.0,), 1.0)
        g = build_grid(dom, 0.25, 1.0, 4, min_interior_per_axis=1)
        psi = decaying_profile(1.0, ball_eigenvalue(1.0), 1.0, fixed_which="m")
        bd = BoundaryData(
            f=lambda x: psi.eval(np.linalg.norm(x, axis=-1)),
            g=lambda x, t: np.zeros(len(x)),
        )
        with pytest.raises(DataError):
            sample_boundary_data(bd, g)
        bd.zero_lateral_ok = True
        fld = sample_boundary_data(bd, g)
        assert bd.m == 0.0
        assert fld.meta["M"] == bd.M

    def test_corner_mismatch_rejected(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        bd = BoundaryData(f=lambda x: np.full(len(x), 1.0),
                          g=lambda x, t: np.full(len(x), 2.0))
        with pytest.raises(DataError):
            sample_boundary_data(bd, g)

    def test_nan_off_pt(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        fld = sample_boundary_data(const_data(2.0), g)
        inner = fld.values[g.interior_idx, 1:]
        assert np.all(np.isnan(inner))
        # lateral t=T slab is stored (it is data for the solver) even though
        # it is not in P_T
        assert np.all(fld.values[g.boundary_idx, -1] == 2.0)


class TestGridField:
    def test_shape_validation(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        with pytest.raises(ValueError):
            GridField(g, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridField(g, np.zeros((g.n_nodes, g.time_levels)), "psi")

    def test_from_function(self):
        g = build_grid(Domain.interval(0, 1), 0.25, 1.0, 5)
        fld = GridField.from_function(g, lambda x, t: x[:, 0] + t)
        assert fld.values[0, 0] == g.sample_pos[0, 0]
        assert abs(fld.values[3, 4] - (g.sample_pos[3, 0] + 1.0)) < 1e-14


def test_exports(tmp_path):
    g = build_grid(Domain.interval(0, 1), 0.25, 0.5, 3)
    desc = grids.grid_to_json(g, tmp_path / "grid.json")
    assert desc["domain"]["kind"] == "interval"
    assert (tmp_path / "grid.json").exists()
    fld = GridField.from_function(g, lambda x, t: np.ones(len(x)))
    grids.field_to_csv(fld, tmp_path / "field.csv")
    lines = (tmp_path / "field.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,t,value"
    assert len(lines) == 1 + g.n_nodes * g.time_levels


def test_three_dimensional_box_stencil():
    g = build_grid(Domain.box([(0, 1)] * 3), 0.25, 0.3, 3,
                   min_interior_per_axis=3)
    assert g.dim == 3
    assert g.nbr_index.shape[1] == 26
    # a linear field is infinity-harmonic: monotone operator ~ 0
    from inflap import solver

    vals = g.sample_pos @ np.array([0.3, -0.2, 0.5]) + 2.0
    out = solver.discrete_infinity_laplacian(g, vals, "monotone_minmax")
    assert np.max(np.abs(out)) < 1e-10


def test_boundary_data_h_on_accessor():
    bd = BoundaryData(f=lambda x: 2.0 + x[:, 0],
                      g=lambda x, t: (2.0 + x[:, 0]) * np.exp(-t))
    pts = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(bd.h_on(pts, 0.0), [2.0, 3.0])
    np.testing.assert_allclose(bd.h_on(pts, 1.0),
                               np.array([2.0, 3.0]) * np.exp(-1.0))


def build_grid_reference(domain, h, T, time_levels):
    """(pos, sample_pos, interior_mask, nbr_index, nbr_dist, offsets, t) of
    build_grid, built node by node over lattice-tuple dicts."""
    n = domain.dim
    offsets = grids._stencil_offsets(n)
    if domain.kind in ("interval", "box"):
        counts = [round((b - a) / h) for a, b in domain.bounds]
        axes = [a + h * np.arange(m + 1)
                for (a, _), m in zip(domain.bounds, counts)]
        pos = np.stack([m.ravel() for m in
                        np.meshgrid(*axes, indexing="ij")], axis=-1)
        ipt = np.stack(
            [g.ravel() for g in np.meshgrid(*[np.arange(c + 1) for c in counts],
                                            indexing="ij")], axis=-1)
        interior = np.all((ipt > 0) & (ipt < np.array(counts)), axis=-1)
        sample_pos = pos.copy()
        lattice_int = ipt
    else:
        c, R = domain.bounds
        K = int(np.ceil(R / h)) + 1
        rng = np.arange(-K, K + 1)
        lat = np.stack([m.ravel() for m in
                        np.meshgrid(*([rng] * n), indexing="ij")], axis=-1)
        xyz = np.asarray(c) + h * lat
        r = np.linalg.norm(xyz - np.asarray(c), axis=-1)
        inside = r < R * (1 - 1e-12)
        closure = r <= R * (1 + 1e-12)
        index_all = {tuple(z): i for i, z in enumerate(map(tuple, lat))}
        interior_all = np.zeros(lat.shape[0], dtype=bool)
        for k, z in enumerate(map(tuple, lat)):
            if not inside[k]:
                continue
            ok = True
            for ax in range(n):
                for sgn in (-1, 1):
                    zz = list(z)
                    zz[ax] += sgn
                    j = index_all.get(tuple(zz))
                    ok = ok and j is not None and bool(closure[j])
            interior_all[k] = ok
        ring = np.zeros(lat.shape[0], dtype=bool)
        for k, z in enumerate(lat):
            if interior_all[k]:
                for off in offsets:
                    j = index_all.get(tuple(z + off))
                    if j is not None and not interior_all[j]:
                        ring[j] = True
        keep = interior_all | ring
        lattice_int = lat[keep]
        pos = xyz[keep]
        interior = interior_all[keep]
        sample_pos = pos.copy()
        sample_pos[~interior] = domain.project_to_boundary(pos[~interior])
    index_of = {tuple(z): i for i, z in enumerate(map(tuple, lattice_int))}
    int_ids = np.flatnonzero(interior)
    nbr_index = np.empty((int_ids.size, len(offsets)), dtype=np.int64,
                         order="F")
    nbr_dist = np.empty((int_ids.size, len(offsets)), dtype=float, order="F")
    lat_dist = h * np.linalg.norm(offsets, axis=-1)
    for row, i in enumerate(int_ids):
        for k, off in enumerate(offsets):
            j = index_of[tuple(lattice_int[i] + off)]
            nbr_index[row, k] = j
            # only balls project their ring points, so box arms keep h |off|
            if interior[j] or domain.kind != "ball":
                nbr_dist[row, k] = lat_dist[k]
            else:
                d = float(np.linalg.norm(sample_pos[j] - pos[i]))
                nbr_dist[row, k] = min(max(d, 0.4 * h), 1.5 * lat_dist[k])
    return (pos, sample_pos, interior, nbr_index, nbr_dist, offsets,
            np.linspace(0.0, T, time_levels))


REFERENCE_DOMAINS = {
    "interval": (Domain.interval(-0.3, 0.9), 0.05),
    "box2d": (Domain.box([(0.0, 2.0), (0.0, 1.0)]), 0.1),
    "box3d": (Domain.box([(-0.5, 0.7), (0.1, 0.5), (0.0, 0.3)]), 0.05),
    "ball1d": (Domain.ball((0.0,), 1.0), 0.1),
    "ball1d-off": (Domain.ball((0.25,), 0.7), 0.15),
    "disk": (Domain.ball((0.0, 0.0), 1.0), 0.1),
    "disk-off": (Domain.ball((0.3, -0.1), 0.9), 0.033),
    "ball3d": (Domain.ball((0.0, 0.0, 0.0), 0.5), 0.1),
    "ball3d-off": (Domain.ball((0.1, -0.2, 0.3), 0.7), 0.13),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_build_grid_matches_reference(name):
    dom, h = REFERENCE_DOMAINS[name]
    g = build_grid(dom, h, 0.7, 4, min_interior_per_axis=1)
    ref = build_grid_reference(dom, h, 0.7, 4)
    got = (g.pos, g.sample_pos, g.interior_mask, g.nbr_index, g.nbr_dist,
           g.offsets, g.t)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert g.nbr_index.flags.f_contiguous and g.nbr_dist.flags.f_contiguous


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_arm_lengths_classes_and_irregular_rows(name):
    # box and interval arms have the lattice length h |off| exactly; a ball
    # row is irregular (some arm off that length) exactly when it has a
    # ring arm, and its cached distances are the (K, n_irr) C-order ones
    dom, h = REFERENCE_DOMAINS[name]
    g = build_grid(dom, h, 0.7, 4, min_interior_per_axis=1)
    lat = h * np.linalg.norm(g.offsets, axis=-1)
    ring_rows = np.flatnonzero(np.any(~g.interior_mask[g.nbr_index], axis=1))
    assert ring_rows.size > 0
    if dom.kind == "ball":
        assert np.array_equal(g.irregular_rows, ring_rows)
    else:
        assert np.all(g.nbr_dist == lat) and g.irregular_rows.size == 0
    assert g.irregular_dist.flags.c_contiguous
    assert np.array_equal(g.irregular_dist, g.nbr_dist[g.irregular_rows].T)
    # arm_lengths gives any rows' arms, irregular or not, in any order
    rows = np.r_[g.irregular_rows[::-1], np.arange(0, g.interior_idx.size, 7)]
    assert np.array_equal(g.arm_lengths(rows), g.nbr_dist[rows].T)
    # the distance classes hold every axis set once, by size, shortest
    # first; class m is the length of the arms with m nonzero entries
    nnz = np.abs(g.offsets).sum(axis=1)
    lengths = [d for d, _ in g.stencil_classes]
    assert lengths == sorted(set(lat.tolist())) and len(lengths) == dom.dim
    for m, (d, sets) in enumerate(g.stencil_classes, start=1):
        assert np.all(lat[nnz == m] == d)
        assert all(bin(S).count("1") == m for S, _ in sets)
    assert sorted(S for _, sets in g.stencil_classes for S, _ in sets) == \
        list(range(1, 2 ** dom.dim))


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_lattice_layout_and_stencil_extremes(name):
    dom, h = REFERENCE_DOMAINS[name]
    g = build_grid(dom, h, 0.7, 4, min_interior_per_axis=1)
    # a stencil column is a fixed flat shift of the lattice
    int_flat = g.node_flat[g.interior_idx]
    for k in range(g.offsets.shape[0]):
        assert np.array_equal(g.node_flat[g.nbr_index[:, k]],
                              int_flat + g.flat_off[k])
    # the interior nodes fill the range [lo, hi) in increasing order, and
    # no other lattice point in it is an interior node
    assert np.all(np.diff(g.node_flat) > 0)
    assert np.all(np.diff(g.interior_pos) > 0)
    assert np.array_equal(int_flat, g.lo + g.interior_pos)
    assert g.interior_pos[0] == 0 and g.lo + g.interior_pos[-1] == g.hi - 1
    # the pad keeps the slices at twice any stencil offset inside the array
    span = sum(g.strides)
    assert g.lo - 2 * span >= 0 and g.hi + 2 * span <= g.lattice_size
    # lattice() places node values at node_flat and 0 elsewhere
    vals = np.random.default_rng(2).uniform(-1.0, 1.0, g.n_nodes)
    on = g.lattice(vals)
    assert on.shape == (g.lattice_size,) and np.array_equal(
        on[g.node_flat], vals)
    assert np.count_nonzero(on) == np.count_nonzero(vals)
    # the extremes of each axis set are the max and min of the neighbour
    # values over its columns
    lat = np.full(g.lattice_size, np.nan)
    lat[g.node_flat] = vals
    nz = g.offsets != 0
    bits = nz @ (1 << np.arange(g.dim))
    nbr = vals[g.nbr_index]
    with np.errstate(invalid="ignore"):   # NaN off the nodes
        extremes = g.stencil_extremes(lat)
    for (d, sets), (_, pairs) in zip(g.stencil_classes, extremes):
        for (S, _), (top, bot) in zip(sets, pairs):
            cols = bits == S
            assert top.size == bot.size == g.hi - g.lo
            assert np.array_equal(top[g.interior_pos], nbr[:, cols].max(1))
            assert np.array_equal(bot[g.interior_pos], nbr[:, cols].min(1))
    # box_reduce is the max or min over the stencil and the centre, on flat
    # and on (lattice_size, L) arrays
    levels = np.random.default_rng(3).uniform(-1.0, 1.0, (g.n_nodes, 3))
    lat2 = np.full((g.lattice_size, 3), np.nan)
    lat2[g.node_flat] = levels
    for v, la in ((vals, lat), (levels, lat2)):
        box = np.concatenate((v[g.nbr_index], v[g.interior_idx][:, None]),
                             axis=1)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(g.box_reduce(la, np.maximum), box.max(1))
            assert np.array_equal(g.box_reduce(la, np.minimum), box.min(1))
    # inner_rows: the rows whose whole stencil is interior
    assert np.array_equal(g.inner_rows,
                          np.all(g.interior_mask[g.nbr_index], axis=1))


def field_to_csv_reference(fld, skip_nan):
    """field_to_csv's text, written sample by sample."""
    g = fld.grid
    out = [",".join(f"x{i}" for i in range(g.dim)) + ",t,value\n"]
    for j, tj in enumerate(g.t):
        for i in range(g.n_nodes):
            v = fld.values[i, j]
            if skip_nan and np.isnan(v):
                continue
            coords = ",".join(f"{c:.17g}" for c in g.sample_pos[i])
            out.append(f"{coords},{tj:.17g},{v:.17g}\n")
    return "".join(out)


def grid_json_reference(g):
    """grid_to_json's node list, built coordinate by coordinate."""
    return [{"pos": [float(v) for v in g.pos[i]],
             "sample_pos": [float(v) for v in g.sample_pos[i]],
             "interior": bool(g.interior_mask[i])}
            for i in range(g.n_nodes)]


SERIAL_GRIDS = {
    "1d": (Domain.interval(0, 1), 0.25),
    "2d": (Domain.ball((0.3, -0.1), 0.9), 0.3),
    "3d": (Domain.box([(0, 1), (0, 0.5), (0, 0.75)]), 0.25),
}


@pytest.mark.parametrize("name", sorted(SERIAL_GRIDS))
@pytest.mark.parametrize("skip_nan", [True, False])
def test_serializers_match_per_sample_writers(tmp_path, name, skip_nan):
    dom, h = SERIAL_GRIDS[name]
    g = build_grid(dom, h, 0.5, 3, min_interior_per_axis=1)
    rng = np.random.default_rng(7)
    vals = rng.uniform(-2.0, 2.0, (g.n_nodes, g.time_levels))
    vals[g.interior_idx, 1:] = np.nan
    special = [np.nan, -0.0, 0.0, 1e-300, -1e300, 1e300, 1e-8, 1.0 / 3.0]
    vals.flat[:len(special)] = special
    fld = GridField(g, vals)
    grids.field_to_csv(fld, tmp_path / "f.csv", skip_nan=skip_nan)
    assert ((tmp_path / "f.csv").read_bytes()
            == field_to_csv_reference(fld, skip_nan).encode())
    desc = grids.grid_to_json(g, tmp_path / "g.json")
    ref = dict(desc, nodes=grid_json_reference(g))
    assert desc == ref
    assert ((tmp_path / "g.json").read_text()
            == json.dumps(ref, indent=1, sort_keys=True))
