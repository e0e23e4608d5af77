"""Each independent check accepts a right answer and catches a planted
wrong one. Needs numpy, scipy and pytest, not branchspace:

    python3 -m pytest bench/test_oracles.py -q
"""

import json
import math

import numpy as np
import pytest

import oracles
import workloads


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_distance_gate(rng):
    a, b = rng.uniform(size=(300, 2)), rng.uniform(size=(250, 2))
    want = oracles.hausdorff(a, b)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    assert want == pytest.approx(max(d.min(1).max(), d.min(0).max()), abs=1e-15)
    assert oracles.check_distance(want, want) is None
    assert oracles.check_distance(want + 1e-11, want) is not None


def test_distinctness(rng):
    pts = rng.uniform(size=(3000, 2))
    assert oracles.check_distinct(pts, 1e-9) is None
    pts[17] = pts[2000] + 1e-11
    assert oracles.check_distinct(pts, 1e-9) is not None


def test_canonical_order(rng):
    pts = rng.uniform(size=(50, 3))
    pts[5, 0] = pts[9, 0]  # a tie on the first coordinate
    stored = oracles.canonical(pts)
    assert oracles.check_canonical(stored, pts) is None
    swapped = stored.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    assert oracles.check_canonical(swapped, pts) is not None


def test_chart_checks(rng):
    base = rng.uniform(size=(400, 2))
    radii = oracles.chart_radii(base)
    assert np.all(radii > 0)
    assert oracles.check_radii(radii, radii) is None
    wrong = radii.copy()
    wrong[10] *= 1 + 1e-9
    assert oracles.check_radii(wrong, radii) is not None

    z = rng.uniform(-0.5, 0.5, size=base.shape)
    image = base + radii[:, None] * z
    assert oracles.check_chart_image(base, radii, z, image) is None
    moved = image.copy()
    moved[3] = base[3] + 2 * radii[3]
    assert oracles.check_chart_image(base, radii, z, moved) is not None

    z_back = (image - base) / radii[:, None]
    assert oracles.check_roundtrip(base, radii, z, z_back) is None
    z_back[7, 1] += 1e-9
    assert oracles.check_roundtrip(base, radii, z, z_back) is not None


def test_cascade_periods():
    assert oracles.cascade_periods(2.9) == (1,)
    assert oracles.cascade_periods(3.2) == (2,)
    assert oracles.cascade_periods(3.56) == (8,)
    assert oracles.cascade_periods(oracles.CASCADE[1] + 1e-9) == (2, 4)
    with pytest.raises(ValueError):
        oracles.cascade_periods(3.6)


def test_orbit_checks():
    a = 3.2
    lo, hi = oracles.period_two_branches(np.array([a]))[:, 0]
    assert oracles.check_orbit(a, [lo, hi], 1e-10, (2,)) is None
    assert oracles.check_orbit(a, [lo + 1e-8, hi], 1e-10, (2,)) is not None  # off the cycle
    assert oracles.check_orbit(a, [hi, lo], 1e-10, (2,)) is not None  # not from the smallest point
    fixed = 1 - 1 / a
    assert oracles.check_orbit(a, [fixed], 1e-10) is not None  # unstable: multiplier 2 - a
    assert oracles.check_orbit(a, [fixed, fixed], 1e-10) is not None  # not primitive
    assert oracles.check_orbit(a, [lo, hi], 1e-10, (4,)) is not None  # wrong period for a
    assert oracles.check_orbit(4.0, [0.0], 1e-10) is not None  # the program's answer at a = 4


def test_lyapunov_verdicts():
    lyap = oracles.lyapunov([3.2, 3.9, 4.0])
    assert lyap[0] < -oracles.LYAP_CLEAR
    assert lyap[1] > oracles.LYAP_CLEAR
    assert lyap[2] == pytest.approx(math.log(2.0), abs=0.01)
    lo, hi = oracles.period_two_branches(np.array([3.2]))[:, 0]
    assert oracles.check_verdict(3.2, [lo, hi], lyap[0], 1e-10) is None
    assert oracles.check_verdict(3.2, None, lyap[0], 1e-10) is not None  # chaos claimed
    assert oracles.check_verdict(3.9, None, lyap[1], 1e-10) is None
    assert oracles.check_verdict(4.0, [0.0], lyap[2], 1e-10) is not None  # orbit claimed


def test_group_rows():
    params = np.array([3.0, 3.5, 3.9])
    rows = [(3.0, 0.6), (3.5, 0.3), (3.5, 0.8)]
    assert oracles.group_rows(params, rows) == [[0.6], [0.3, 0.8], None]
    with pytest.raises(ValueError):
        oracles.group_rows(params, rows + [(3.7, 0.5)])


def test_loci():
    a1 = oracles.CASCADE[0]
    x = np.linspace(0.0, 1.0, 5)
    params = list(2.8 + 0.4 * x)  # crosses a_1 = 3 at x = 0.5
    fibers = [[0.6]] * 3 + [[0.5, 0.7]] * 2
    where = 0.5 + (a1 - params[2]) / (params[3] - params[2]) * 0.25
    locus = {"base_location": [where], "cardinality_before": 1, "cardinality_after": 2, "parameter_value": a1}
    assert oracles.check_loci(params, fibers, [locus], x) is None
    assert oracles.check_loci(params, fibers, [], x) is not None
    assert oracles.check_loci(params, fibers, [dict(locus, parameter_value=a1 + 1e-6)], x) is not None
    assert oracles.check_loci(params, fibers, [dict(locus, base_location=[where + 1e-3])], x) is not None


def test_volume_report(rng):
    frames, region = workloads.bump_frames(rng)
    want = oracles.volume_report(frames, region, 1e-12)
    assert want["ok"] and not all(want["ring_clear"])  # the bump crosses the ring near the end
    grown = [f.copy() for f in frames]
    grown[3][7, 7] = 1.0  # one more cell inside the region while the ring is clear
    assert oracles.volume_report(grown, region, 1e-12)["violating_step"] == 3


def test_cli_checks(rng):
    traj, events = workloads.merge_trajectory(rng)
    out = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    assert workloads.CliCommands.check_events(out, events) is None
    late = [dict(events[0], t=events[0]["t"] + 0.05)] + events[1:]
    assert workloads.CliCommands.check_events(out, late) is not None

    base = np.array([[0.0], [1.0], [3.0]])
    chart = {"base": {"dim": 1, "points": base.tolist()}, "radii": [0.5, 0.5, 1.0], "disjoint": True}
    assert workloads.CliCommands.check_chart(json.dumps(chart), base) is None
    chart["radii"][2] = 1.5
    assert workloads.CliCommands.check_chart(json.dumps(chart), base) is not None


def test_jet_residuals_closed_form():
    """The closed-form residuals match finite differences of the curves."""
    rx, m = 1.2, 1024
    stages = workloads.split_ellipse(rx, 0.7, m)
    h = 1.0 / m
    # second-order one-sided differences at t = 0 (outgoing) and t = 1 (incoming)
    out_x = sum((-3 * s[0, 0] + 4 * s[1, 0] - s[2, 0]) / (2 * h) for s in stages[1])
    g = stages[0][0]
    in_x = (3 * g[-1, 0] - 4 * g[-2, 0] + g[-3, 0]) / (2 * h)
    assert abs(in_x - out_x) == pytest.approx(workloads.jet_residuals(rx)["x0"][0], abs=1e-4)
