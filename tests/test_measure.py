"""Quadrature, regional norms, and their spectral oracles."""

import math
import re
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from oddsphere import kernel, measure, space
from oddsphere.arcs import FAREY_BYTES
from oddsphere.kernel import (
    Bump,
    KernelField,
    kernel_1d,
    kernel_product,
    spectral_l2_norm,
)
from oddsphere.measure import (
    FieldSample,
    QuadratureError,
    Region,
    TorusQuadrature,
    lp_norm,
    resolution_check,
    sup_norm,
)
from oddsphere.specialfn import phi_matrix
from oddsphere.verify import fit_loglog

S3 = space.build_space([3], [1])
S5 = space.build_space([5], [1])
S3S3 = space.build_space([3, 3], [1, 1])


def rule_weight(quad, region):
    """A rule's weight of a region: the L^1 norm of the constant 1."""
    ones = tuple(np.ones(M // 2 + 1) for M in quad.sizes)
    return lp_norm(FieldSample(quad.space, 1, quad, ones), 1.0, region)


def region_measure(sp, region, N):
    """Probability measure of a region: its weight on 2 ceil(16 N) nodes
    per factor, so a radius-1/N box holds as many nodes at every N and
    volume scaling is free of boundary-snapping noise."""
    return rule_weight(TorusQuadrature(sp, (2 * math.ceil(16 * N),) * sp.r), region)


def random_field(sp, quad, rng, modes=12):
    """Synthetic factored field: random trig polynomials of degree below
    modes, declared at N = modes / 2, whose S^3 shell bounds that degree."""
    vals = []
    evs = []
    for j in range(sp.r):
        coef = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)

        def ev(th, coef=coef):
            th = np.asarray(th, dtype=float)
            return sum(c * np.exp(1j * k * th) for k, c in enumerate(coef))

        vals.append(ev(quad.nodes(j)))
        evs.append(ev)
    return FieldSample(sp, modes / 2, quad, tuple(vals), evaluators=tuple(evs))


def test_quadrature_construction():
    quad = TorusQuadrature.for_kernel(S3, 32)
    assert quad.sizes[0] >= 16 * (2 * 32 + 1)
    nodes = quad.nodes(0)
    assert nodes[0] == 0.0 and nodes[-1] == math.pi and len(nodes) == quad.sizes[0] // 2 + 1
    assert quad.doubled().sizes == (2 * quad.sizes[0],)
    with pytest.raises(ValueError):
        TorusQuadrature(S3, (8, 8))


@pytest.mark.parametrize("M", [99, 7, 1, 0, -4])
def test_quadrature_rejects_odd_sizes(M):
    with pytest.raises(ValueError, match="even"):
        TorusQuadrature(S3, (M,))
    with pytest.raises(ValueError, match="even"):
        TorusQuadrature(S3S3, (64, M))


@pytest.mark.parametrize("dims", [(3,), (5, 7), (9, 3, 11)])
@pytest.mark.parametrize("M", [12, 98, 100, 2100])
def test_rule_weights_are_probabilities(dims, M):
    # the rule integrates the density |sin theta|^(d-1), a cosine polynomial
    # of degree d - 1, exactly once M exceeds d - 1
    quad = TorusQuadrature(space.build_space(dims), (M,) * len(dims))
    for j in range(len(dims)):
        w = quad.weights(j)
        assert w.shape == (M // 2 + 1,) and np.all(w >= 0.0)
        assert abs(float(np.sum(w)) - 1.0) <= 1e-14


def test_rule_weights_are_computed_once_and_read_only():
    quad = TorusQuadrature.for_kernel(S3S3, 16)
    for j in range(2):
        w = quad.weights(j)
        assert quad.weights(j) is w and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_node_masks_are_built_once_per_rule_factor_and_radius(monkeypatch):
    # every field of one rule shares its pole-box and away masks
    built = []
    original = measure._factor_masks

    def spy(grid, radius):
        if grid.size == quad.sizes[0] // 2 + 1:
            built.append(radius)
        return original(grid, radius)

    monkeypatch.setattr(measure, "_factor_masks", spy)
    N = 16
    quad = TorusQuadrature.for_kernel(S3S3, N)
    regions = [Region.corner(poles, 1 / N) for poles in np.ndindex(2, 2)] + [Region.away(1 / N)]
    fields = [kernel_product(S3S3, N, t, quad, Bump()) for t in (0.0, 0.3, 1.1)]
    lp_norm(iter(fields), 0.5, regions)
    sup_norm(iter(fields), regions)
    assert built == [1 / N] * 2
    for j in range(2):
        for key in ("full", "pole0", "pole1", "away"):
            m = quad.mask(j, key, None if key == "full" else 1 / N)
            assert m is quad.mask(j, key, None if key == "full" else 1 / N)
            with pytest.raises(ValueError):
                m[0] = not m[0]
    parts = [quad.mask(0, key, 1 / N) for key in ("pole0", "pole1", "away")]
    assert np.array_equal(sum(part.astype(int) for part in parts), np.ones(quad.sizes[0] // 2 + 1))
    # each radius gets its own masks: the norms of a rule that has seen
    # another radius are those of a fresh rule
    for radius in (2 / N, 1 / N):
        fresh = kernel_product(S3S3, N, 0.3, TorusQuadrature(S3S3, quad.sizes), Bump())
        for region in (Region.corner((0, 1), radius), Region.away(radius)):
            assert lp_norm(fields[1], 0.5, region) == lp_norm(fresh, 0.5, region)
            assert sup_norm(fields[1], region) == sup_norm(fresh, region)


def test_region_validation():
    with pytest.raises(ValueError):
        Region("weird")
    with pytest.raises(ValueError):
        Region.corner(0, 2.0)  # radius too large
    with pytest.raises(ValueError):
        Region.corner(3, 0.1)  # bad pole index
    assert Region.full().label() == "full"


def test_constant_field_has_unit_norm():
    quad = TorusQuadrature.for_kernel(S3, 8)
    fld = FieldSample(S3, 1, quad, (np.ones(quad.sizes[0] // 2 + 1),))
    for p in (0.5, 1.0, 2.0, 4.0):
        assert lp_norm(fld, p) == pytest.approx(1.0, rel=1e-12)


def test_parseval_against_spectral_oracle():
    bump = Bump()
    rng = np.random.default_rng(0)
    for N in (32, 128):
        quad = TorusQuadrature.for_kernel(S3, N)
        oracle = spectral_l2_norm(1, 1, N, 0.0, bump)
        for t in rng.uniform(0, S3.period_seconds, 3):
            fld = kernel_product(S3, N, t, quad, bump)
            assert lp_norm(fld, 2) == pytest.approx(oracle, rel=1e-6)


def test_parseval_product_space():
    bump = Bump()
    N = 16
    quad = TorusQuadrature.for_kernel(S3S3, N)
    fld = kernel_product(S3S3, N, 0.77, quad, bump)
    oracle = spectral_l2_norm(1, 1, N, 0.0, bump) ** 2
    assert lp_norm(fld, 2) == pytest.approx(oracle, rel=1e-6)


def test_pure_mode_norm_exact():
    # || d_n phi_n ||_2 = sqrt(d_n) once the grid beats the bandwidth
    for n in (3, 11):
        d_n = (n + 1) ** 2
        quad = TorusQuadrature(S3, (16 * (2 * n + 1),))
        fld = FieldSample(S3, n, quad, (d_n * phi_matrix(1, [n], quad.nodes(0))[0],))
        assert lp_norm(fld, 2) == pytest.approx(math.sqrt(d_n), rel=1e-9)


def test_holder_monotonicity_on_probability_measure():
    rng = np.random.default_rng(7)
    quad = TorusQuadrature(S3, (512,))
    exps = [0.5, 1.0, 2.0, 3.0, 4.0, 8.0]
    for _ in range(50):
        fld = random_field(S3, quad, rng)
        norms = [lp_norm(fld, p) for p in exps]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi * (1 + 1e-12)


def test_region_additivity_partitions_the_circle():
    bump = Bump()
    N = 32
    quad = TorusQuadrature.for_kernel(S3, N)
    fld = kernel_product(S3, N, 0.3, quad, bump)
    p = 2.0
    radius = 1.0 / N
    full = lp_norm(fld, p) ** p
    parts = (
        lp_norm(fld, p, Region.corner(0, radius)) ** p
        + lp_norm(fld, p, Region.corner(1, radius)) ** p
        + lp_norm(fld, p, Region.away(radius)) ** p
    )
    assert parts == pytest.approx(full, rel=1e-8)


def test_region_additivity_product_space():
    bump = Bump()
    N = 8
    quad = TorusQuadrature.for_kernel(S3S3, N)
    fld = kernel_product(S3S3, N, 0.2, quad, bump)
    p, radius = 2.0, 1.0 / N
    full = lp_norm(fld, p) ** p
    corners = sum(
        lp_norm(fld, p, Region.corner((i, j), radius)) ** p
        for i in (0, 1)
        for j in (0, 1)
    )
    away = lp_norm(fld, p, Region.away(radius)) ** p
    assert corners + away == pytest.approx(full, rel=1e-8)


@pytest.mark.parametrize("poles", [0, (0, 0, 0)], ids=["one", "three"])
def test_corner_needs_one_pole_per_factor(poles):
    # on a rank-2 field a corner with 1 or 3 poles is an error under both
    # norms, never a silently truncated product
    quad = TorusQuadrature.for_kernel(S3S3, 16)
    fld = kernel_product(S3S3, 16, 0.3, quad, Bump())
    region = Region.corner(poles, 1 / 16)
    for p in (2.0, math.inf):
        with pytest.raises(ValueError, match="poles for rank 2"):
            lp_norm(fld, p, region)
    with pytest.raises(ValueError, match="poles for rank 2"):
        sup_norm(fld, region)


def test_corner_norm_bounded_by_full():
    bump = Bump()
    quad = TorusQuadrature.for_kernel(S3, 16)
    fld = kernel_product(S3, 16, 0.9, quad, bump)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(fld, p, Region.corner(0, 1 / 16)) <= lp_norm(fld, p)


def test_sup_norm_attained_at_identity_for_t0():
    bump = Bump()
    N = 32
    quad = TorusQuadrature.for_kernel(S3, N)
    fld = kernel_product(S3, N, 0.0, quad, bump)
    expected = abs(kernel_1d(1, 1, N, 0.0, np.array([0.0]), bump)[0])
    assert sup_norm(fld) == pytest.approx(expected, rel=1e-12)


def test_sup_norm_pure_mode():
    n, d_n = 5, 36
    quad = TorusQuadrature(S3, (512,))

    def mode(theta):
        return d_n * phi_matrix(1, [n], theta)[0]

    fld = FieldSample(S3, n, quad, (mode(quad.nodes(0)),), evaluators=(mode,))
    assert sup_norm(fld) == pytest.approx(d_n, rel=1e-9)


def test_sup_of_a_sample_without_evaluators_raises():
    # a sup is an evaluated value, never a grid value
    quad = TorusQuadrature(S3, (512,))
    fld = FieldSample(S3, 1, quad, (np.ones(quad.sizes[0] // 2 + 1),))
    for region in (Region.full(), Region.away(0.1), Region.corner(1, 0.1)):
        with pytest.raises(ValueError, match="carries no evaluator"):
            sup_norm(fld, region)
    assert lp_norm(fld, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_sup_refinement_converges():
    # oscillatory kernel away from refocusing times: grid max alone is off
    # by O((N h)^2); the proxy sup must not move with the base grid
    bump = Bump()
    N = 128
    quad = TorusQuadrature.for_kernel(S3, N)
    t = 0.37 * S3.period_seconds
    fld = kernel_product(S3, N, t, quad, bump)
    coarse = max(np.abs(fld.factor_values[0]))
    refined = sup_norm(fld)
    assert refined >= coarse * (1 - 1e-12)
    # re-running with a doubled base grid moves the answer by < 2e-4
    quad2 = TorusQuadrature(S3, (2 * quad.sizes[0],))
    fld2 = kernel_product(S3, N, t, quad2, bump)
    refined2 = sup_norm(fld2)
    assert abs(refined - refined2) / refined2 < 2e-4


def test_corner_sup_on_the_box_edge():
    # on S^3 x S^5 at N = 64, tau = 1/2 the S^5 factor's pole-0 box sup sits
    # on the box edge theta = 1/N with |K| rising outward; step-halving from
    # the last node inside stopped 1.1e-4 below it
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])
    N, t = 64, 0.5 * sp.period_seconds
    quad = TorusQuadrature.for_kernel(sp, N)
    fld = kernel_product(sp, N, t, quad, Bump())
    dense = np.linspace(0.0, 1.0 / N, 2**14)
    box_max = math.prod(
        np.max(np.abs(kernel_1d(f.lam, f.beta, N, t, dense, Bump()))) for f in sp.factors
    )
    assert sup_norm(fld, Region.corner((0, 0), 1.0 / N)) == pytest.approx(box_max, rel=1e-9)


def test_pole_box_sup_rechecks_every_box_node():
    # grid values wrong at the rounding floor can put the grid argmax of a
    # box far from its maximum; the first step evaluates every box node again
    N, radius = 16, 1 / 16
    quad = TorusQuadrature.for_kernel(S3, N)
    kern = kernel_product(S3, N, 0.37, quad, Bump())
    nodes = quad.nodes(0)
    box = np.flatnonzero(np.abs(nodes - math.pi) <= radius)
    true = np.abs(kern.evaluate_factor(0, nodes[box]))
    far = box[np.argmax(np.abs(box - box[np.argmax(true)]))]
    vals = kern.factor_values[0].copy()
    vals[box] = 1e-3 * true.max()
    vals[far] = 0.5 * true.max()
    fld = FieldSample(S3, N, quad, (vals,), evaluators=(lambda th: kern.evaluate_factor(0, th),))
    assert sup_norm(fld, Region.corner(1, radius)) >= true.max() * (1 - 1e-12)


def test_refined_sup_is_an_evaluated_value_not_the_grid_value():
    # a grid value above every value of its box chooses where refinement
    # starts but is never itself the sup
    N, radius = 16, 1 / 16
    quad = TorusQuadrature.for_kernel(S3, N)
    kern = kernel_product(S3, N, 0.37, quad, Bump())
    nodes = quad.nodes(0)
    box = np.flatnonzero(np.abs(nodes - math.pi) <= radius)
    dense = np.linspace(math.pi - radius, math.pi, 4001)
    box_max = np.max(np.abs(kern.evaluate_factor(0, dense)))
    vals = kern.factor_values[0].copy()
    vals[box[0]] = 1.5 * box_max
    fld = FieldSample(S3, N, quad, (vals,), evaluators=(lambda th: kern.evaluate_factor(0, th),))
    assert sup_norm(fld, Region.corner(1, radius)) <= box_max * (1 + 1e-12)


def test_pole_box_sup_reads_no_grid_value():
    # a pole-box sup starts from the recurrence values at the box nodes and
    # edges, so grid values that are not numbers change nothing
    N, radius = 16, 1 / 16
    quad = TorusQuadrature.for_kernel(S3, N)
    kern = kernel_product(S3, N, 0.37, quad, Bump())
    nodes = quad.nodes(0)
    box = np.abs(nodes - math.pi) <= radius
    vals = kern.factor_values[0].copy()
    vals[box] = np.nan
    fld = FieldSample(S3, N, quad, (vals,), evaluators=(lambda th: kern.evaluate_factor(0, th),))
    first = np.concatenate([nodes[box], [math.pi - radius, math.pi + radius]])
    sup = sup_norm(fld, Region.corner(1, radius))
    assert sup >= np.max(np.abs(kern.evaluate_factor(0, first)))
    assert sup == sup_norm(kern, Region.corner(1, radius))


def test_corner_sups_never_sample_the_grid(monkeypatch):
    # a kernel field samples its grid on first read, and a p = inf corner
    # norm never reads it, for one field or a lockstep batch; full and away
    # sups sample each factor once
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])
    N, radius = 32, 1 / 32
    quad = TorusQuadrature.for_kernel(sp, N)
    times = (0.0, 0.37, 1.9)
    calls = []
    original = kernel._kernel_grid

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "_kernel_grid", counted)
    corners = [Region.corner(poles, radius) for poles in np.ndindex(2, 2)]
    single = sup_norm(kernel_product(sp, N, 0.37, quad, Bump()), corners[1])
    batch = sup_norm((kernel_product(sp, N, t, quad, Bump()) for t in times), corners)
    assert calls == [] and batch[1][1] == single
    for region in (Region.full(), Region.away(radius)):
        calls.clear()
        sup_norm((kernel_product(sp, N, t, quad, Bump()) for t in times), [region])
        assert len(calls) == sp.r * len(times)
    calls.clear()
    fld = kernel_product(sp, N, 0.37, quad, Bump())
    assert fld.factor_values is fld.factor_values and len(calls) == sp.r


def test_s9_corner_sup_stays_below_its_box_maximum():
    # S^9, N = 256, t = 0: the FFT grid value at the pole-pi box argmax is
    # 6.3e-5 above the recurrence's maximum over the box, which a sup floored
    # at the grid value reported as the corner record
    sp = space.build_space([9], [1])
    N, radius = 256, 1 / 256
    quad = TorusQuadrature.for_kernel(sp, N)
    fld = kernel_product(sp, N, 0.0, quad, Bump())
    f = sp.factors[0]
    dense = np.linspace(math.pi - radius, math.pi, 20001)
    box_max = np.max(np.abs(kernel_1d(f.lam, f.beta, N, 0.0, dense, Bump())))
    sup = sup_norm(fld, Region.corner(1, radius))
    assert box_max * (1 - 1e-4) <= sup <= box_max * (1 + 1e-9)


def test_sup_refines_only_the_pieces_the_region_uses():
    N, radius = 16, 1 / 16
    quad = TorusQuadrature.for_kernel(S3, N)
    kern = kernel_product(S3, N, 0.37, quad, Bump())
    probed = []

    def evaluate(theta):
        probed.extend(theta)
        return kern.evaluate_factor(0, theta)

    fld = FieldSample(S3, N, kern.quad, kern.factor_values, evaluators=(evaluate,))
    assert sup_norm(fld, Region.corner(1, radius)) == sup_norm(kern, Region.corner(1, radius))
    assert probed and all(abs(th - math.pi) <= radius for th in probed)


def _probed(quad, N, evaluate):
    """A field of evaluate, declared at scale N, on quad's grid that records
    every angle it is asked for."""
    probed = []

    def ev(theta):
        probed.extend(np.atleast_1d(theta))
        return evaluate(theta)

    return FieldSample(S3, N, quad, (evaluate(quad.nodes(0)),), evaluators=(ev,)), probed


@pytest.mark.parametrize("pole", [0, 1])
@pytest.mark.parametrize("at", [0.13, 0.37, 0.61])
def test_proxy_sup_finds_an_interior_box_maximum(pole, at):
    # a maximum between the box nodes is found to rounding, where
    # step-halving stopped 1.6e-6 to 1.6e-5 below it
    N, radius = 16, 1 / 16
    quad = TorusQuadrature.for_kernel(S3, N)
    peak = pole * math.pi + (1 - 2 * pole) * at * radius
    fld, _ = _probed(quad, N, lambda th: 3.0 + np.cos(math.pi * (th - peak) / (0.8 * radius)))
    assert sup_norm(fld, Region.corner(pole, radius)) == pytest.approx(4.0, rel=1e-12)


def test_proxy_sup_finds_an_interior_maximum_of_the_full_circle():
    # the proxy spans the grid argmax +- one grid step
    quad = TorusQuadrature(S3, (64,))
    fld, probed = _probed(quad, 1, lambda th: 3.0 + np.cos(th - 1.2345))
    assert sup_norm(fld) == pytest.approx(4.0, rel=1e-12)
    argmax = quad.nodes(0)[np.argmax(fld.factor_values[0])]
    assert all(abs(th - argmax) <= 2.0 * math.pi / 64 * (1 + 1e-12) for th in probed)


@pytest.mark.parametrize("N", [3, 4, 6, 10])
def test_full_sup_of_a_sampled_field_seeds_every_local_maximum(N):
    # the degree-6 field peaks at 4.01 between two nodes of (64,), while its
    # grid argmax sits at a lower peak; seeded from that argmax alone, the
    # sup read 4.005.  Declared at any N whose shell holds degree 6, every
    # local maximum refinement could lift above the argmax is refined too
    quad = TorusQuadrature(S3, (64,))
    shift = 5 * math.pi / 32

    def evaluate(theta):
        th = np.asarray(theta, dtype=float) - shift
        return 3.0 + np.cos(6.0 * th) + 0.01 * np.cos(th - math.pi / 3)

    fld, _ = _probed(quad, N, evaluate)
    dense = np.max(evaluate(np.linspace(0.0, math.pi, 200001)))
    sup = sup_norm(fld)
    assert dense * (1 - 1e-12) <= sup <= 4.01 * (1 + 1e-12)


def test_sampled_field_below_its_floor_is_rejected():
    # (64,) is below the floor 71 of N = 16 on S^3: an integral and a full
    # or away sup read grid values and raise; a corner sup reads none
    quad = TorusQuadrature(S3, (64,))
    fld, _ = _probed(quad, 16, lambda th: 2.0 + np.cos(np.asarray(th, dtype=float)))
    assert measure._floor_size(S3.factors[0], 16) == 71
    with pytest.raises(QuadratureError, match="under-resolves"):
        lp_norm(fld, 2.0)
    for region in (Region.full(), Region.away(1 / 16)):
        with pytest.raises(QuadratureError, match="under-resolves"):
            sup_norm(fld, region)
    assert sup_norm(fld, Region.corner(0, 1 / 16)) == pytest.approx(3.0, rel=1e-12)


def test_sampled_field_refuses_a_rule_on_another_space():
    # S^9's weights and floor (81 nodes at N = 16) would stand in for S^3's
    S9 = space.build_space([9], [1])
    quad = TorusQuadrature(S9, (74,))
    with pytest.raises(ValueError, match="a quadrature on S\\^9 cannot sample a field on S\\^3"):
        FieldSample(S3, 16, quad, (np.ones(38),))
    assert measure._floor_size(S9.factors[0], 16) == 81
    with pytest.raises(QuadratureError, match="under-resolves"):
        lp_norm(FieldSample(S9, 16, quad, (np.ones(38),)), 2.0)


def _box_probes(evaluate):
    N, radius = 16, 1 / 16
    quad = TorusQuadrature.for_kernel(S3, N)
    fld, probed = _probed(quad, N, evaluate)
    sup = sup_norm(fld, Region.corner(1, radius))
    box = np.flatnonzero(quad.mask(0, "pole1", radius))
    return sup, probed, np.abs(evaluate(quad.nodes(0)[box])), radius


def test_smooth_box_is_not_flagged():
    # sweep 1 takes the Chebyshev points and the box nodes, sweep 2 the
    # proxy's argmax alone
    kern = kernel_product(S3, 16, 0.37, TorusQuadrature.for_kernel(S3, 16), Bump())
    sup, probed, nodes, _ = _box_probes(lambda th: kern.evaluate_factor(0, th))
    assert len(probed) == measure.SUP_NODES + nodes.size + 1
    assert sup >= nodes.max()


def test_rippled_box_is_flagged_and_sampled_densely():
    # a 1e-3 ripple the proxy cannot resolve leaves a tail above the
    # certificate threshold, and the box is sampled evenly as well
    rng = np.random.default_rng(11)
    freq, phase = rng.uniform(200, 400, 3) * 16, rng.uniform(0, 2 * math.pi, 3)

    def rippled(th):
        th = np.asarray(th, dtype=float)
        return 2.0 + np.cos(th) + 1e-3 * np.sin(np.multiply.outer(th, freq) + phase).sum(axis=-1)

    sup, probed, nodes, radius = _box_probes(rippled)
    assert len(probed) == measure.SUP_NODES + nodes.size + 1 + measure.SUP_DENSE
    assert sup >= nodes.max()
    assert all(math.pi - radius <= th <= math.pi for th in probed)


def _resolution_passes(N, p, M):
    fld = kernel_product(S3, N, 0.618, TorusQuadrature(S3, (M,)), Bump())
    try:
        ok, _ = resolution_check(fld, p=p)
    except QuadratureError:
        ok = False
    return ok


@pytest.mark.parametrize("N", [32, 128, 512])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_resolution_check_and_failing_oversample(N, p):
    # convergence study: the default rule passes and a grid below the
    # aliasing floor fails; bisect the even sizes between them down to the
    # largest failing one and report it, with its nodes per unit of bandwidth
    lo, hi = 2 * N, TorusQuadrature.for_kernel(S3, N).sizes[0]  # lo fails, hi passes
    assert _resolution_passes(N, p, hi)
    assert not _resolution_passes(N, p, lo)
    while hi - lo > 2:
        mid = (lo + hi) // 4 * 2
        if _resolution_passes(N, p, mid):
            hi = mid
        else:
            lo = mid
    print(f"\nN={N} p={p}: largest failing size {lo} "
          f"({lo / (2 * N + 1):.2f} per unit of bandwidth), smallest passing {hi}")
    assert hi >= measure._floor_size(S3.factors[0], N)


@pytest.mark.parametrize("N, nodes, t", [(16, 36, 0.37), (64, 32, 0.0)])
def test_sups_that_read_the_grid_check_the_aliasing_floor(N, nodes, t):
    # a grid below the aliasing floor of N (71 nodes at N = 16): an integral
    # and full and away sups of kernel and kappa fields are refused; corner
    # sups read no grid value and run
    quad = TorusQuadrature(S3, (nodes,))
    assert nodes < measure._floor_size(S3.factors[0], N)
    for nu in (None, 0):
        fld = kernel_product(S3, N, t, quad, Bump(), nu)
        with pytest.raises(QuadratureError, match="under-resolves"):
            lp_norm(fld, 2.0)
        for region in (Region.full(), Region.away(1 / N)):
            with pytest.raises(QuadratureError, match="under-resolves"):
                sup_norm(fld, region)
        assert sup_norm(fld, Region.corner(0, 1 / N)) > 0


def test_away_sups_evaluate_the_region_edges():
    # |K| can be largest at an edge of the away region, still falling from
    # the pole box, where a coarse grid's nodes read lower: at N = 32,
    # t/T = 1/2 + 1/256 the away nodes of 264 read at most 738.12 and the
    # edge 1859.83, the sup the default rule's 1050 nodes give too
    N, t, away = 32, (0.5 + 1 / 256) * S3.period_seconds, Region.away(1 / 32)
    quad = TorusQuadrature(S3, (264,))
    kern = kernel_product(S3, N, t, quad, Bump())
    fine = kernel_product(S3, N, t, TorusQuadrature.for_kernel(S3, N), Bump())
    sup = sup_norm(kern, away)
    assert sup == pytest.approx(sup_norm(fine, away), rel=1e-12, abs=0)
    assert sup == pytest.approx(1859.83, abs=0.01)
    edges = np.abs(kern.evaluate_factor(0, np.array([1 / N, math.pi - 1 / N])))
    assert sup >= edges.max()
    assert np.abs(kern.factor_values[0][quad.mask(0, "away", 1 / N)]).max() < 0.5 * sup


@pytest.mark.parametrize("sp", [S3, S3S3], ids=["S3", "S3xS3"])
def test_away_sup_of_a_region_between_two_nodes(sp):
    # on (30,) the nodes nearest pi/2 are 7 pi/15 and 8 pi/15, both in the
    # boxes of radius 1.5: the away piece holds no node and read 0
    N, t, radius = 3, 0.37, 1.5
    quad = TorusQuadrature(sp, (30,) * sp.r)
    fld = kernel_product(sp, N, t, quad, Bump())
    assert not quad.mask(0, "away", radius).any()
    away = np.max(np.abs(fld.evaluate_factor(0, np.linspace(radius, math.pi - radius, 2001))))
    full = np.max(np.abs(fld.evaluate_factor(0, np.linspace(0.0, math.pi, 200001))))
    want = away * full ** (sp.r - 1)  # identical factors
    assert sup_norm(fld, Region.away(radius)) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("beta", [16, 64])
def test_lp_norm_floor_follows_beta(beta):
    # n_max ~ 2N sqrt(beta): 100 nodes hold |K|^2 at beta = 1 (floor 71)
    # but alias it at beta = 16 and beta = 64
    sp = space.build_space([3], [beta])
    fld = kernel_product(sp, 16, 0.3, TorusQuadrature(sp, (100,)), Bump())
    with pytest.raises(QuadratureError, match="under-resolves"):
        lp_norm(fld, 2)
    # the grid for_kernel sizes for this beta clears the floor
    quad = TorusQuadrature.for_kernel(sp, 16)
    assert quad.sizes[0] > 100
    lp_norm(kernel_product(sp, 16, 0.3, quad, Bump()), 2)


def is_fft_size(M):
    """Even, with no prime factor above 11."""
    rest = M
    for p in (2, 3, 5, 7, 11):
        while rest % p == 0:
            rest //= p
    return M % 2 == 0 and rest == 1


def check_fft_size(M, nominal):
    # the smallest even 11-smooth integer >= nominal, at most 3.5% above it
    assert is_fft_size(M) and nominal <= M <= 1.035 * nominal, (M, nominal)
    assert not any(is_fft_size(k) for k in range(nominal, M))


@pytest.mark.parametrize("dims", [(3,), (5, 7)])
def test_for_kernel_sizes_follow_beta(dims):
    for N in (16, 100.5, 1024):
        nominal = [math.ceil(16 * (2.0 * N + (d - 1) // 2)) for d in dims]
        for beta in (1, Fraction(2, 3), Fraction(1, 100)):
            sp = space.build_space(dims, [beta] * len(dims))
            for M, nom in zip(TorusQuadrature.for_kernel(sp, N).sizes, nominal):
                check_fft_size(M, nom)
        sp = space.build_space(dims, [4] * len(dims))
        for M, nom in zip(TorusQuadrature.for_kernel(sp, N).sizes, nominal):
            check_fft_size(M, 2 * nom)


@pytest.mark.parametrize("N", [6e7, 1e9, 1e308, math.inf, math.nan])
def test_for_kernel_rejects_a_grid_above_the_guard(N):
    # N = 6e7 asks for 1,920,360,960 nodes, about 1e11 bytes to sample
    with pytest.raises(ValueError, match=re.escape(f"N = {N} needs a grid of ")):
        TorusQuadrature.for_kernel(S3, N)


def test_every_rule_for_kernel_sizes_clears_the_aliasing_floor():
    # so no scan and no kernel command meets the floor the norms check:
    # that check guards rules built by hand.  A rank-one space suffices, as
    # each factor is sized alone; a grid past the byte bound is refused
    sized = 0
    for d in (3, 5, 9, 21, 47):
        for beta in (Fraction(1, 1000), Fraction(1, 7), Fraction(2, 3), 1, Fraction(3, 2),
                     16, 1000, 10**6):
            sp = space.build_space([d], [beta])
            for N in (1, 1.5, 2, 3, 5, 16, 100.5, 1024, 4096):
                for p in (None, 0.5, 2, 3, 4, 8, 16, math.inf):
                    try:
                        quad = TorusQuadrature.for_kernel(sp, N, power=p)
                    except ValueError as exc:
                        assert "needs a grid of" in str(exc)
                        continue
                    assert quad.sizes[0] >= measure._floor_size(sp.factors[0], N), (d, beta, N, p)
                    sized += 1
    assert sized > 2000


def test_for_kernel_bounds_the_bytes_of_all_factors():
    # the top of the scan ladders samples 4,199,040 nodes, about 2.3e8 bytes
    assert TorusQuadrature.for_kernel(S3, 131072).sizes == (4_199_040,)
    # each factor of N = 1e6 fits the byte budget alone, but not both together
    assert TorusQuadrature.for_kernel(S3, 1e6).sizes == (32_006_016,)
    refusal = f"N = 1000000.0 needs a grid of 3.46e+09 bytes > {FAREY_BYTES}"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        TorusQuadrature.for_kernel(S3S3, 1e6)
    # the chain sums of a high sphere count too
    TorusQuadrature.for_kernel(S3, 5e5)
    with pytest.raises(ValueError, match=re.escape("N = 500000.0 needs a grid of")):
        TorusQuadrature.for_kernel(space.build_space([47]), 5e5)


@pytest.mark.parametrize("d", [3, 21, 47])
def test_the_grid_byte_bound_covers_a_traced_sampling(d, monkeypatch):
    # for_kernel charges a grid no less than the traced peak of sampling a
    # kernel on it: a budget one byte below that peak refuses the grid
    N = 2048
    for beta in (1, Fraction(1, 4), 4):
        sp = space.build_space([d, 3], [beta, 1])
        fld = kernel_product(sp, N, 0.37, TorusQuadrature.for_kernel(sp, N), Bump())
        tracemalloc.start()
        try:
            fld.factor_values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(measure, "FAREY_BYTES", peak - 1)
        with pytest.raises(ValueError, match="needs a grid of"):
            TorusQuadrature.for_kernel(sp, N)
        monkeypatch.undo()


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
def test_for_kernel_names_the_rule_behind_each_size(d):
    # degree-exact exactly where the size is below the oversampled one
    seen = set()
    for beta in (1, Fraction(2, 3), Fraction(3, 2)):
        sp = space.build_space([d], [beta])
        for N in (16, 64):
            wide = TorusQuadrature.for_kernel(sp, N)
            for p in (None, 2, 3, 7.5, 8):
                quad = TorusQuadrature.for_kernel(sp, N, power=p)
                want = [
                    "degree-exact" if M < W else "oversample"
                    for M, W in zip(quad.sizes, wide.sizes)
                ]
                assert list(quad.rules) == want, (beta, N, p)
                seen.update(want)
            # a rule built by hand or doubled names none, and compares by space and sizes
            assert TorusQuadrature(sp, wide.sizes) == wide
            assert TorusQuadrature(sp, wide.sizes).rules == wide.doubled().rules == ()
            assert wide.doubled() == TorusQuadrature(sp, tuple(2 * M for M in wide.sizes))
    assert seen == {"degree-exact", "oversample"}


@pytest.mark.parametrize("N", [0, 0.5, -0.5, -5])
def test_for_kernel_rejects_N_below_1(N):
    with pytest.raises(ValueError, match=re.escape(f"need N >= 1, got {N}")):
        TorusQuadrature.for_kernel(S3, N)


@pytest.mark.parametrize("nominal", [0, -1, -10])
def test_fft_size_rejects_a_size_below_1(nominal):
    with pytest.raises(ValueError, match="positive grid size"):
        measure._fft_size(nominal)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [400.0, 1e6, 1e12])
def test_a_norm_that_overflows_raises_naming_p_and_N(p):
    # |K|^p overflows float64: no warning, but an error naming p and N
    N = 16
    quad = TorusQuadrature.for_kernel(S3, N)
    regions = [Region.full(), Region.corner(0, 1 / N), Region.away(1 / N)]
    with pytest.raises(ValueError, match=re.escape(f"p = {p:g}, N = 16 is not finite")):
        lp_norm([kernel_product(S3, N, 0.37, quad, Bump())], p, regions)
    big = FieldSample(S3, 1, quad, (np.full(quad.sizes[0] // 2 + 1, 1e300),))
    with pytest.raises(ValueError, match=re.escape(f"p = {p:g}, N = 1 is not finite")):
        lp_norm(big, p)


def test_for_kernel_skips_a_degree_exact_cap_above_the_oversampled_size(monkeypatch):
    fft_size = measure._fft_size

    def bounded(nominal):
        assert nominal <= 10**7, nominal
        return fft_size(nominal)

    monkeypatch.setattr(measure, "_fft_size", bounded)
    quad = TorusQuadrature.for_kernel(S3, 16, power=1e12)
    assert quad.sizes == TorusQuadrature.for_kernel(S3, 16).sizes


def test_resolution_check_doubles_to_an_fft_size(monkeypatch):
    # the kernel is sampled again on the doubled rule, through the grid route
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])
    quad = TorusQuadrature.for_kernel(sp, 100.5)
    kern = kernel_product(sp, 100.5, 0.37, quad, Bump())
    rules = []

    def resample(self, fine):
        rules.append(fine)
        return kernel_product(self.space, self.N, self.t, fine, self.bump)

    monkeypatch.setattr(KernelField, "resample", resample)
    resolution_check(kern, 4.0)
    assert [fine.sizes for fine in rules] == [tuple(2 * M for M in quad.sizes)]
    assert all(is_fft_size(M) for M in rules[0].sizes)


def test_resolution_check_resamples_a_kappa_field(monkeypatch):
    # a kappa field comes back from the doubled rule as the same kappa field
    N, t = 64, 0.37
    fld = kernel_product(S5, N, t, TorusQuadrature.for_kernel(S5, N), Bump(), nu=1)
    fine = []
    original = KernelField.resample

    def resample(self, quad):
        fine.append(original(self, quad))
        return fine[-1]

    monkeypatch.setattr(KernelField, "resample", resample)
    assert resolution_check(fld)[0]
    (got,) = fine
    assert got.spectra[0].nu == 1 and got.quad.sizes == (2 * fld.quad.sizes[0],)
    want = kernel_1d(2, 1, N, t, got.quad.nodes(0), Bump(), 1)
    assert np.max(np.abs(got.factor_values[0] - want)) <= 1e-12 * np.max(np.abs(want))


def test_lp_norm_rejects_bad_p():
    quad = TorusQuadrature.for_kernel(S3, 8)
    fld = FieldSample(S3, 1, quad, (np.ones(quad.sizes[0] // 2 + 1),))
    with pytest.raises(ValueError):
        lp_norm(fld, 0.0)


@pytest.mark.parametrize("sp,d", [(S3, 3), (S5, 5)])
def test_corner_region_volume_scaling(sp, d):
    pairs = []
    for N in (16, 32, 64, 128, 256, 512):
        pairs.append((N, region_measure(sp, Region.corner(0, 1.0 / N), N)))
    slope = fit_loglog(pairs)[0]
    assert abs(slope + d) < 0.05


def test_away_region_measure_complements_corners():
    N = 16
    radius = 1.0 / N
    m_full = region_measure(S3, Region.full(), N)
    m_away = region_measure(S3, Region.away(radius), N)
    m_c = region_measure(S3, Region.corner(0, radius), N) + region_measure(
        S3, Region.corner(1, radius), N
    )
    assert m_full == pytest.approx(1.0, rel=1e-12)
    assert m_away + m_c == pytest.approx(1.0, rel=1e-12)


def away_reference(fld, p, radius):
    """The away integral of |K|^p, correctly rounded: math.fsum over the
    product nodes outside every all-corner box."""
    quad, r = fld.quad, fld.space.r
    terms = [quad.weights(j) * np.abs(fld.factor_values[j]) ** p for j in range(r)]
    away = [quad.mask(j, "away", radius) for j in range(r)]
    outside = reduce(np.logical_or.outer, away)
    return math.fsum(reduce(np.multiply.outer, terms)[outside].tolist())


@pytest.mark.parametrize(
    "sp,N,ps",
    [
        (S3, 32, (16, 24, 32, 48, 64)),
        (S3, 64, (16, 24, 32)),
        (S3S3, 16, (2, 4, 8, 16)),
        (space.build_space([3, 5], [1, Fraction(2, 3)]), 16, (2, 4, 8, 16)),
    ],
)
def test_away_integrals_sum_the_away_nodes(sp, N, ps):
    # the away region is summed from its own nodes, never as the full
    # integral less the boxes, which lost log10(full / away) digits (up to
    # all of them at p = 64); tolerance fixed at 1e-14 before the run
    quad = TorusQuadrature.for_kernel(sp, N)
    radius = 1.0 / N
    for tau in (0.0, 1 / 3 + 1 / (6 * N)):
        fld = kernel_product(sp, N, tau * sp.period_seconds, quad)
        for p in ps:
            want = away_reference(fld, p, radius) ** (1.0 / p)
            assert lp_norm(fld, p, Region.away(radius)) == pytest.approx(want, rel=1e-14, abs=0)


def test_lockstep_sups_equal_one_call_per_field_and_region():
    # a batch of fields and regions gives what each field and region gives
    # alone, bit for bit, and sweeps once per factor per step
    N, radius = 32, 1 / 32
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])
    quad = TorusQuadrature.for_kernel(sp, N)
    times = (0.0, 0.37, 1.9, 0.37)
    regions = [Region.full(), Region.corner((0, 1), radius), Region.corner((1, 1), radius),
               Region.away(radius)]
    fields = [kernel_product(sp, N, t, quad, Bump()) for t in times]
    calls = []
    original = KernelField.evaluate_factor

    def spy(self, j, theta, t=None):
        calls.append(np.size(theta))
        return original(self, j, theta, t)

    KernelField.evaluate_factor = spy
    try:
        batch = sup_norm(iter(fields), regions)
        batch_calls = len(calls)
        single = [[sup_norm(f, region) for region in regions] for f in fields]
    finally:
        KernelField.evaluate_factor = original
    assert batch == single
    assert 0 < batch_calls < (len(calls) - batch_calls) / 4


def test_lockstep_keeps_kernel_and_kappa_owners_apart():
    # kernel and kappa fields of one space, scale and cutoff have different
    # spectra, so a sweep that mixed them would sweep kappa pieces with
    # kernel weights: one batch of them all gives each field's own norms
    # and sups exactly
    N = 64
    quad = TorusQuadrature.for_kernel(S5, N)
    regions = [Region.full(), Region.corner(0, 1 / N), Region.away(1 / N)]
    fields = [
        kernel_product(S5, N, t, quad, Bump(), nu) for t in (0.0, 0.37, 1.9) for nu in (None, 0, 1)
    ]
    for p in (4.0, math.inf):
        batch = lp_norm(iter(fields), p, regions)
        assert batch == [[lp_norm(f, p, region) for region in regions] for f in fields]


def test_lockstep_lets_each_field_go():
    # a batch keeps no field (and so no grid values, |K|^p or part of
    # them) once it asks for the next
    N = 32
    quad = TorusQuadrature.for_kernel(S3, N)
    regions = [Region.corner(0, 1 / N), Region.corner(1, 1 / N), Region.away(1 / N)]
    refs = []
    alive = []

    class Tracked(np.ndarray):
        """Grid values whose every derived array (|K|, |K|^p, a masked
        part) is recorded by a weak reference."""

        def __array_finalize__(self, obj):
            refs.append(weakref.ref(self))

    def fields():
        for t in np.linspace(0.0, 2.0, 8):
            fld = kernel_product(S3, N, float(t), quad, Bump())
            fld.factor_values = tuple(v.view(Tracked) for v in fld.factor_values)
            refs.append(weakref.ref(fld))
            yield fld
            del fld
            alive.append(sum(ref() is not None for ref in refs))

    for p in (math.inf, 3.0):
        refs.clear()
        alive.clear()
        lp_norm(fields(), p, regions)
        assert len(alive) == 8 and max(alive) == 0
    assert len(refs) > 8 * 4  # the |K|^p arrays were tracked


def exact_rule(sp, N, p):
    return TorusQuadrature.for_kernel(sp, N, power=p)


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
def test_degree_exact_rule_gives_the_oversampled_norms(d):
    # at even p, |K|^p times the density is a cosine polynomial the capped
    # grid integrates exactly: its norms are those of the oversampled rule
    # and of that rule doubled.  The grid kernel's values carry an absolute
    # roundoff of the order of eps sum_n |w_n| (kernel.py), which at p = 2 on
    # S^9 and S^11 at N = 64 and t > 0 moves the oversampled norm and its
    # doubled norm apart by up to 2.8e-11 (the capped norm lies within 7e-12
    # of the exact one); there the capped norm is held to the exact L^2
    # norm, spectral_l2_norm, instead.
    for beta in (1, Fraction(2, 3), Fraction(3, 2)):
        sp = space.build_space([d], [beta])
        T = sp.period_seconds
        for N in (16, 64):
            wide = TorusQuadrature.for_kernel(sp, N)
            for p in (2.0, 4.0, 6.0, 8.0):
                capped = exact_rule(sp, N, p)
                assert capped.sizes[0] < wide.sizes[0]
                for t in (0.0, T / 3 + T / (6 * N)):
                    norm = lp_norm(kernel_product(sp, N, t, capped, Bump()), p)
                    if p == 2 and d >= 9 and N == 64 and t > 0:
                        f = sp.factors[0]
                        exact = spectral_l2_norm(f.lam, f.beta, N, t, Bump())
                        assert norm == pytest.approx(exact, rel=1e-11, abs=0), (beta, t)
                        continue
                    for quad in (wide, wide.doubled()):
                        ref = lp_norm(kernel_product(sp, N, t, quad, Bump()), p)
                        assert norm == pytest.approx(ref, rel=1e-12, abs=0), (beta, N, p, t)


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
def test_degree_exact_rule_holds_the_top_degree(d):
    # 1/2 + cos(n_top theta), n_top the cutoff's top degree, puts weight on
    # the top frequency p n_top + d - 1 of |K|^p |sin theta|^(d-1); its
    # values are exact to rounding, so the capped rule must give the
    # oversampled norm to 1e-13
    for beta in (1, Fraction(2, 3), Fraction(3, 2)):
        sp = space.build_space([d], [beta])
        f = sp.factors[0]
        for N in (16, 64):
            n_top = space.top_degree(f.lam, f.beta, N)
            for p in (2.0, 4.0, 6.0, 8.0):
                norms = []
                for quad in (exact_rule(sp, N, p), TorusQuadrature.for_kernel(sp, N)):
                    values = 0.5 + np.cos(n_top * quad.nodes(0))
                    norms.append(lp_norm(FieldSample(sp, N, quad, (values,)), p))
                assert norms[0] == pytest.approx(norms[1], rel=1e-13, abs=0), (beta, N, p)


RULE_SPACES = [
    space.build_space([3], [1]),
    space.build_space([3], [Fraction(2, 3)]),
    space.build_space([11], [1]),
    space.build_space([3, 5], [1, Fraction(2, 3)]),
    space.build_space([7, 9], [Fraction(3, 2), 4]),
]


def check_size(nominal):
    """The smallest even 11-smooth integer >= nominal, by search."""
    return next(M for M in range(nominal, 2 * nominal + 2) if is_fft_size(M))


@pytest.mark.parametrize("sp", RULE_SPACES, ids=lambda sp: str(sp))
def test_degree_exact_sizes_lie_between_the_floor_and_the_oversampled_rule(sp):
    bump = Bump()
    for N in (8, 16, 100.5, 1024):
        wide = TorusQuadrature.for_kernel(sp, N)
        for p in (2, 4.0, 6, 8.0, 12.0, 16.0, 64.0):
            capped = exact_rule(sp, N, p)
            for f, M, M_wide in zip(sp.factors, capped.sizes, wide.sizes):
                floor = measure._floor_size(f, N)
                exact = int(p) * space.top_degree(f.lam, f.beta, N) + f.dim
                assert floor <= M <= M_wide and is_fft_size(M)
                assert M == min(M_wide, max(check_size(exact), check_size(floor)))
            if p <= 8:  # the rule clears the floor lp_norm enforces
                lp_norm(kernel_product(sp, N, 0.2, capped, bump), p)


def test_floor_binds_at_p2_on_small_grids():
    # the bare degree 2 n_top + d falls below the aliasing floor at p = 2:
    # S^3 at N = 16 needs 71 nodes where 2 n_top + 3 = 69; in S^3 x S^5 with
    # betas 2/3, 1 the floors are 69 (2 n_top + 3 = 57) and 73 (69)
    for sp in (S3, space.build_space([3, 5], [Fraction(2, 3), 1])):
        capped = exact_rule(sp, 16, 2.0)
        for f, M in zip(sp.factors, capped.sizes):
            floor = measure._floor_size(f, 16)
            assert 2 * space.top_degree(f.lam, f.beta, 16) + f.dim < floor <= M
            assert M == check_size(floor)


@pytest.mark.parametrize("sp", RULE_SPACES, ids=lambda sp: str(sp))
def test_other_powers_keep_the_oversampled_rule(sp):
    for N in (16, 100.5, 1024):
        wide = TorusQuadrature.for_kernel(sp, N)
        for p in (0.5, 1.0, 2.1, 3.0, 7.5, math.inf, 32.0, 64.0):
            assert TorusQuadrature.for_kernel(sp, N, power=p) == wide, p
    # p = 16 on S^3 is the smallest even power whose cap does not bind
    for N in (16, 100.5, 1024):
        wide = TorusQuadrature.for_kernel(S3, N)
        assert exact_rule(S3, N, 16.0) == wide
        assert exact_rule(S3, N, 14.0).sizes[0] < wide.sizes[0]


NORM_SPACES = [space.build_space([d]) for d in (3, 5, 7, 9, 11)] + [
    S3S3,
    space.build_space([3, 5], [1, Fraction(2, 3)]),
    space.build_space([3, 3, 3]),
]
NORM_PS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0)


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("sp", NORM_SPACES, ids=str)
def test_kernel_norms_obey_hoelder_lyapunov_and_the_sup_bound(sp, N):
    # oracle-free: on the full region, a probability measure, ||K||_p does not
    # decrease in p; on every region log ||K||_p is convex in 1/p (Lyapunov);
    # and ||K||_{p,R} <= w(R)^{1/p} sup_R |K| for the rule's weight w(R).
    # Tolerances: a sum of |K|^p (or of the weights) rounds at 64 eps relative,
    # 64 eps / p after the root; an away integral, the full integral less the
    # boxes, at 64 eps of the full one; and the grid route and the sup's
    # sweep each err by at most 64 eps sum_n |w_n| per factor, which is at
    # most 64 eps prod_j sum_n |w_n| / sup_R |K| of a factor's sup on R
    eps = np.finfo(float).eps
    quad = TorusQuadrature.for_kernel(sp, N)
    regions = [Region.full(), Region.corner((0,) * sp.r, 1.0 / N), Region.away(1.0 / N)]
    weight = [rule_weight(quad, region) for region in regions]
    mass = math.prod(
        float(np.sum(spec.cut * spec.dims))
        for spec in (kernel._spectrum(f.lam, f.beta, N, Bump()) for f in sp.factors)
    )
    for tau in (0.0, 1 / 3 + 1 / (6 * N)):
        fld = kernel_product(sp, N, tau * sp.period_seconds, quad)
        norm = {p: lp_norm([fld], p, regions)[0] for p in NORM_PS}
        sups = sup_norm([fld], regions)[0]

        def err(p, i):
            cancel = (norm[p][0] / norm[p][i]) ** p if regions[i].kind == "away" else 1.0
            return 64 * eps * cancel / p

        for p, q in zip(NORM_PS, NORM_PS[1:]):
            assert norm[q][0] >= norm[p][0] * (1 - err(p, 0) - err(q, 0)), (tau, p, q)
        for i in range(len(regions)):
            for p, q, r in zip(NORM_PS, NORM_PS[1:], NORM_PS[2:]):
                theta = (1 / q - 1 / r) / (1 / p - 1 / r)
                chord = theta * math.log(norm[p][i]) + (1 - theta) * math.log(norm[r][i])
                slack = err(p, i) + err(q, i) + err(r, i)
                assert math.log(norm[q][i]) <= chord + slack, (tau, regions[i], p, q, r)
            grid = (1 + 64 * eps * mass / sups[i]) ** sp.r - 1
            for p in NORM_PS:
                bound = weight[i] ** (1 / p) * sups[i] * (1 + err(p, i) + 64 * eps / p + grid)
                assert norm[p][i] <= bound, (tau, regions[i], p, norm[p][i] / bound)
