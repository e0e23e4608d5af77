"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s to see them). Tolerances are pinned here and nowhere else."""

import math

import numpy as np
import pytest

from branchspace import (
    Configuration,
    bifurcation_points,
    branched_equilibrium_section,
    decompose_or_witness,
    detect_stratum_events,
    hausdorff_distance,
    hausdorff_distance_indexed,
    jet_match,
    make_split_loop,
    support_class,
    two_particle_merge_trajectory,
    validate_branched,
    validate_constant_volume_path,
)
from branchspace.charts import (
    LocallyFiniteConfiguration,
    build_chart,
    chart_apply,
    chart_invert,
    transition,
    transition_jacobian,
)
from branchspace.cli import main
from branchspace.hausdorff import benchmark
from branchspace.measure import (
    GridFunction,
    make_growing_bump_path,
    make_translated_bump_path,
)

from conftest import random_configuration


def report(n, text):
    print(f"[acceptance {n}] PASS - {text}")


# ---------------------------------------------------------------------------
# 1. metric axioms on 1000 random triples
# ---------------------------------------------------------------------------

def test_criterion_1_metric_suite():
    rng = np.random.default_rng(1)
    worst_slack = 0.0
    for i in range(1000):
        dim = int(rng.integers(1, 4))
        u = random_configuration(rng, int(rng.integers(1, 51)), dim)
        v = random_configuration(rng, int(rng.integers(1, 51)), dim)
        w = random_configuration(rng, int(rng.integers(1, 51)), dim)

        duv = hausdorff_distance(u, v)
        assert duv == hausdorff_distance(v, u)  # symmetry, exact
        assert hausdorff_distance(u, u) == 0.0  # identity
        duw, dvw = hausdorff_distance(u, w), hausdorff_distance(v, w)
        worst_slack = max(worst_slack, duw - (duv + dvw))
        assert duw <= duv + dvw + 1e-12  # triangle inequality

        if i % 100 == 0:
            # zero iff equal as sets within tol_eq
            shuffled = Configuration(u.points[rng.permutation(len(u))])
            assert hausdorff_distance(u, shuffled) == 0.0
            nudged = Configuration(u.points + 0.5 * u.tol_eq / math.sqrt(dim))
            assert hausdorff_distance(u, nudged) <= u.tol_eq
    report(1, f"1000 triples: symmetry exact, identity exact, triangle slack <= {max(worst_slack, 0.0):.2e}")


# ---------------------------------------------------------------------------
# 2. indexed distance vs brute force; speedup reported
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence_and_benchmark():
    rng = np.random.default_rng(2)
    worst = 0.0
    sizes = [10_000, 10_000] + [max(1, int(10 ** rng.uniform(0.0, 4.0))) for _ in range(198)]
    for k, n in enumerate(sizes):
        dim = int(rng.integers(1, 4))
        u = random_configuration(rng, n, dim)
        v = random_configuration(rng, max(1, int(10 ** rng.uniform(0.0, math.log10(n + 1)))), dim)
        diff = abs(hausdorff_distance_indexed(u, v) - hausdorff_distance(u, v))
        worst = max(worst, diff)
        assert diff <= 1e-12

    side = np.arange(317, dtype=float)
    grid_pts = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)  # ~1e5 points
    grid_cfg = Configuration(grid_pts)
    assert hausdorff_distance_indexed(grid_cfg, grid_cfg) == 0.0

    bench = benchmark(100_000, dimension=2, seed=0)
    assert bench["difference"] <= 1e-12
    report(
        2,
        f"200 pairs agree within {worst:.2e}; n=1e5 benchmark: "
        f"brute {bench['brute_seconds']:.2f}s vs indexed {bench['indexed_seconds']:.2f}s "
        f"-> speedup {bench['speedup']:.1f}x (target >= 5x, reported not asserted)",
    )


# ---------------------------------------------------------------------------
# 3. the four-path branched loop: validation, jets, perturbation
# ---------------------------------------------------------------------------

def test_criterion_3_branched_path_example(capsys):
    assert main(["branched-path", "--demo", "paper-circle"]) == 0
    capsys.readouterr()

    bp = make_split_loop(m=256)
    fx, fy = (lambda q: float(q[0])), (lambda q: float(q[1]))
    worst = 0.0
    for junction in bp.junctions():
        for f in (fx, fy):
            res = jet_match(junction, f, order=3)
            worst = max(worst, res.residuals[3])
            assert res.residuals[3] <= 1e-4

    perturbed = make_split_loop(m=256, final_offset=(0.0, 0.1))
    rep = validate_branched(perturbed)
    assert not rep.ok
    assert rep.gap == pytest.approx(0.1, abs=1e-9)
    assert main(["branched-path", "--demo", "paper-circle", "--perturb", "0.1"]) == 3
    capsys.readouterr()
    report(3, f"demo validates (exit 0); order-3 jet residuals <= {worst:.2e} for x,y at both junctions; perturbed gap 0.1")


# ---------------------------------------------------------------------------
# 4. chart suite on 200 random windows
# ---------------------------------------------------------------------------

def test_criterion_4_chart_suite():
    rng = np.random.default_rng(4)
    sizes = [2, 3, 5, 500] + [int(rng.integers(2, 501)) for _ in range(196)]
    worst_rt, worst_jac = 0.0, 0.0
    for n in sizes:
        dim = int(rng.integers(1, 4))
        cfg = random_configuration(rng, n, dim)
        base = LocallyFiniteConfiguration(cfg.points[rng.permutation(n)])
        chart = build_chart(base)

        assert np.all(chart.radii > 0.0)
        ok, why = chart.verify()
        assert ok, why

        z = rng.uniform(-1.0, 1.0, size=(n, dim))
        z *= 0.9 / np.maximum(1.0, np.sqrt(np.sum(z**2, axis=1)))[:, None]
        v = chart_apply(chart, z)
        z_back = chart_invert(chart, v)
        worst_rt = max(worst_rt, float(np.max(np.abs(z_back - z))))
        assert np.allclose(z_back, z, atol=1e-12)

        # overlapping second chart; jacobian check vs central differences
        jitter = rng.uniform(-1.0, 1.0, size=base.points.shape)
        norms = np.maximum(1e-300, np.sqrt(np.sum(jitter**2, axis=1)))
        jitter *= (0.1 * chart.radii / norms)[:, None]
        chart2 = build_chart(LocallyFiniteConfiguration(base.points + jitter))
        zt = rng.uniform(-0.2, 0.2, size=(n, dim))
        analytic = transition_jacobian(chart, chart2, zt)
        h = 1e-6
        if n <= 8:
            flat = zt.ravel()
            for j in range(flat.size):
                zp, zm = flat.copy(), flat.copy()
                zp[j] += h
                zm[j] -= h
                col = (
                    transition(chart, chart2, zp.reshape(zt.shape)).ravel()
                    - transition(chart, chart2, zm.reshape(zt.shape)).ravel()
                ) / (2 * h)
                worst_jac = max(worst_jac, float(np.max(np.abs(col - analytic[:, j]))))
        else:
            direction = rng.normal(size=zt.shape)
            direction /= np.linalg.norm(direction)
            num = (
                transition(chart, chart2, zt + h * direction).ravel()
                - transition(chart, chart2, zt - h * direction).ravel()
            ) / (2 * h)
            worst_jac = max(
                worst_jac, float(np.max(np.abs(num - analytic @ direction.ravel())))
            )
        assert worst_jac <= 1e-6
    report(4, f"200 windows: radii positive, balls disjoint, roundtrip <= {worst_rt:.2e}, jacobian mismatch <= {worst_jac:.2e}")


# ---------------------------------------------------------------------------
# 5. bifurcation anchors
# ---------------------------------------------------------------------------

def test_criterion_5_bifurcation_anchors():
    a1, a2, a3 = bifurcation_points(3)
    assert a1 == pytest.approx(3.0, abs=1e-8)
    assert a2 == pytest.approx(1.0 + math.sqrt(6.0), abs=1e-6)
    ratio = (a2 - a1) / (a3 - a2)
    assert 4.0 <= ratio <= 5.0
    report(5, f"a1={a1:.9f}, a2={a2:.9f} (=1+sqrt6 within {abs(a2 - 1 - math.sqrt(6.0)):.1e}), cascade ratio {ratio:.3f}")


# ---------------------------------------------------------------------------
# 6. mayfly equilibrium section
# ---------------------------------------------------------------------------

def test_criterion_6_mayfly_section():
    grid = np.linspace(0.0, 1.0, 101).reshape(-1, 1)
    spacing = 0.01
    sample, loci = branched_equilibrium_section(lambda p: 2.5 + float(p[0]), grid)
    cards = sample.cardinalities()
    assert None not in cards

    # the 1 -> 2 profile has a single doubling locus at x = 0.5
    first_doublings = [L for L in loci if (L.cardinality_before, L.cardinality_after) == (1, 2)]
    assert len(first_doublings) == 1
    locus = first_doublings[0]
    assert abs(locus.base_location[0] - 0.5) <= spacing
    # cardinality is 1 before it and 2 after it (up to the next doubling)
    for x, c in zip(grid[:, 0], cards):
        if x < locus.base_location[0] - spacing / 2:
            assert c == 1
        elif locus.base_location[0] + spacing / 2 < x < 0.94:
            assert c == 2
    # the same field forces a second doubling where 2.5 + x crosses
    # 1 + sqrt(6); any further loci must be exactly that
    for L in loci[1:]:
        assert (L.cardinality_before, L.cardinality_after) == (2, 4)
        assert L.parameter_value == pytest.approx(1.0 + math.sqrt(6.0), abs=1e-6)

    # decomposition over the period-2 sub-interval
    idx = [i for i, c in enumerate(cards) if c == 2]
    assert idx == list(range(idx[0], idx[0] + len(idx)))
    dec = decompose_or_witness(sample.restrict(idx))
    assert dec.decomposable
    assert dec.selections.shape[0] == 2
    jump = float(np.max(np.abs(np.diff(dec.selections, axis=1))))
    continuity_constant = jump / spacing
    assert continuity_constant < 5.0
    report(6, f"1->2 locus at x={locus.base_location[0]:.6f}; 2 selections on the period-2 band, max jump {jump:.4f} (C~{continuity_constant:.2f})")


# ---------------------------------------------------------------------------
# 7. two-particle merge demo
# ---------------------------------------------------------------------------

def test_criterion_7_merge_detection():
    times = np.linspace(0.0, 1.0, 11)
    traj = two_particle_merge_trajectory(times)
    events = detect_stratum_events(traj, merge_tol=0.3)
    assert len(events) == 1
    assert events[0].kind == "merge"
    assert events[0].time == 1.0

    origin = Configuration([[0.0]])
    for t, u in traj:
        assert abs(hausdorff_distance(u, origin) - (1.0 - t)) <= 1e-12
    report(7, "single merge event at t=1.0; d(u_t, {0}) = 1-t within 1e-12 at all 11 samples")


# ---------------------------------------------------------------------------
# 8. support classes and constant-volume paths
# ---------------------------------------------------------------------------

def test_criterion_8_measure_suite():
    rng = np.random.default_rng(8)
    for _ in range(100):
        vals = np.zeros((12, 12))
        vals[1:11, 1:11] = rng.normal(size=(10, 10)) * (rng.random((10, 10)) < 0.5)
        f = GridFunction(vals, 0.2)
        lam = float(rng.uniform(0.1, 50.0)) * (1 if rng.random() < 0.5 else -1)
        a, b = support_class(f), support_class(f.scaled(lam))
        assert np.array_equal(a.mask, b.mask)
        assert a == b

    frames, region = make_translated_bump_path()
    assert validate_constant_volume_path(frames, region).ok

    frames, region, grow_at = make_growing_bump_path()
    rep = validate_constant_volume_path(frames, region)
    assert not rep.ok
    assert rep.violating_step == grow_at
    report(8, f"100 random functions scale-invariant (exact masks); translated bump ok, growing bump rejected at step {grow_at}")
