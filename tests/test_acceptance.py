"""Acceptance suite: each test enforces one release criterion at its stated
tolerance and prints a PASS line with the measured margin.

The sweep-based criteria run a 200-trial desk-scale study on up to two worker
processes (about two minutes on two cores); run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines as they
complete.
"""

import os

import numpy as np
import pytest
from scipy.stats import ncx2

from robustpl import (
    ExperimentConfig,
    PowerAllocation,
    QoSSpec,
    SurrogateOracle,
    build_outage_form,
    build_rci,
    build_zf,
    cdf_quadrature,
    complex_normal,
    decompose,
    mc_probability,
    outage_probability,
    residue_probability,
    residue_spectrum,
    run_sweep,
    solve_general,
    solve_zf_coord_descent,
    solve_zf_coord_update,
)
from robustpl.bench import export_records
from robustpl.zf import ApproximationInapplicable

from conftest import make_instance, make_zf_setup, strict_step_checks
from test_descent import minimal_feasible_power


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


# the sweeps fan out over at most two worker processes; criterion 9 pins
# that records do not depend on the worker count
SWEEP_WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def desk_scale_records():
    config = ExperimentConfig(
        n_tx=3, n_users=3, n_trials=200, seed=20240817,
        methods=("PCSI-General", "RCI-General", "ZF-General",
                 "ZF-CoordDescent", "ZF-CoordUpdate"),
        training={"L_ut": 1, "P_ut": 4.99},
        gamma_db=tuple(float(g) for g in range(11)), epsilon=0.05)
    return config, run_sweep(config, n_threads=SWEEP_WORKERS)


@pytest.fixture(scope="module")
def workload_records():
    config = ExperimentConfig(
        n_tx=3, n_users=3, n_trials=100, seed=77001,
        methods=("RCI-General", "ZF-General", "ZF-CoordDescent",
                 "ZF-CoordUpdate"),
        training={"L_ut": 1, "P_ut": 4.99}, gamma_db=(5.0,), epsilon=0.05)
    return config, run_sweep(config, n_threads=SWEEP_WORKERS)


def test_criterion_1_residue_quadrature_equivalence():
    import time

    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for seed in range(200):
        inst, b, qos = make_zf_setup(5000 + seed)
        p = rng.uniform(0.2, 4.0, 3) * qos.gamma * 0.01
        k = int(rng.integers(0, 3))
        mq = -build_outage_form(inst, b, PowerAllocation(powers=p), qos, k).Q
        try:
            oracle = SurrogateOracle(inst, b, qos)
            val = residue_probability(residue_spectrum(mq), float(p[k]),
                                      float(oracle.gamma_prime[k]), 0.01)
        except ApproximationInapplicable:
            continue
        u = p[k] / oracle.gamma_prime[k] - 0.01
        quad = cdf_quadrature(decompose(mq, np.zeros(3)), float(u)).value
        worst = max(worst, abs(val - quad))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 30.0
    report(1, f"max |residue - quadrature| = {worst:.2e} over 200 ZF instances")


def test_criterion_2_lemma_oracle_agreement():
    # analytic anchors
    spec = decompose(np.array([[1.0]]), np.array([0.0]))
    exp_err = abs(cdf_quadrature(spec, np.log(2.0)).value - 0.5)
    assert exp_err <= 1e-7
    spec = decompose(np.array([[1.0]]), np.array([1.0]))
    marcum_err = abs(cdf_quadrature(spec, 2.0).value
                     - ncx2.cdf(4.0, 2, 2.0))
    assert marcum_err <= 1e-7

    rng = np.random.default_rng(21)
    agree = 0
    for trial in range(100):
        n = int(rng.integers(2, 5))
        x = complex_normal(rng, n, n)
        m = 0.5 * (x + x.conj().T)
        w = np.linalg.eigvalsh(m)
        if w.min() > 0 or w.max() < 0:
            m = m - np.mean(w) * np.eye(n)  # force an indefinite spectrum
        z = complex_normal(rng, n)
        samples = complex_normal(np.random.default_rng(900 + trial), 100_000, n)
        vals = np.einsum("ij,jk,ik->i", (samples - z).conj(), m,
                         samples - z).real
        tau = float(np.quantile(vals, rng.uniform(0.02, 0.98)))
        est = cdf_quadrature(decompose(m, z), tau)
        freq = float(np.mean(vals <= tau))
        se = np.sqrt(freq * (1.0 - freq) / 100_000)
        if abs(est.value - freq) <= 4.0 * se:
            agree += 1
    assert agree >= 95
    report(2, f"MC agreement {agree}/100; exp err {exp_err:.1e}, "
              f"Marcum err {marcum_err:.1e}")


def test_criterion_3_band_and_monotone_objective():
    checked = 0
    for seed, gamma_db, kind in [(61, 0.0, "zf"), (62, 3.0, "zf"),
                                 (63, 5.0, "zf"), (64, 8.0, "zf"),
                                 (65, 10.0, "zf"), (66, 5.0, "rci"),
                                 (67, 3.0, "rci"), (68, 8.0, "rci")]:
        inst = make_instance(seed)
        qos = QoSSpec.from_db(gamma_db, 0.05, 3)
        bf = build_zf(inst.est_channels) if kind == "zf" else \
            build_rci(inst.est_channels, 3 * 0.01)
        if seed % 2 == 0:
            with strict_step_checks() as steps:
                rep = solve_general(inst, bf, qos)
            assert len(steps) == 3 * rep.cycles  # every step was checked
        else:
            rep = solve_general(inst, bf, qos)
        if not rep.solved:
            continue
        assert np.all(rep.per_user_prob_exact >= 0.95)
        assert np.all(rep.per_user_prob_exact <= 0.951)
        checked += 1
    assert checked >= 6
    report(3, f"{checked} solves with exact per-user probability in "
              f"[0.95, 0.951]; strict per-step feasibility and objective "
              f"checks enabled on half")


def test_criterion_4_zero_uncertainty_limit():
    inst, b, qos = make_zf_setup(71, sigma_e2=1e-12)
    target = qos.gamma * 0.01
    worst = 0.0
    for solver in (lambda: solve_general(inst, b, qos),
                   lambda: solve_zf_coord_descent(inst, b, qos),
                   lambda: solve_zf_coord_update(inst, b, qos)):
        rep = solver()
        worst = max(worst, float(np.max(
            np.abs(rep.powers.powers - target) / target)))
    assert worst < 0.01
    report(4, f"all three ZF solvers within {100 * worst:.3f}% of the "
              f"decoupled powers at C = 1e-12 I")


def test_criterion_5_interference_function_properties():
    rng = np.random.default_rng(31)
    passed = 0
    for probe in range(50):
        inst, b, qos = make_zf_setup(7000 + probe)
        p = rng.uniform(0.5, 2.0, 3) * qos.gamma * 0.01
        k = int(rng.integers(0, 3))
        base = minimal_feasible_power(inst, b, qos, p, k, band=1e-6)
        ok = base > 0
        raised = p.copy()
        raised[(k + 1) % 3] *= 1.5
        ok &= minimal_feasible_power(inst, b, qos, raised, k, band=1e-6) \
            >= base - 1e-6
        alpha = 1.7
        ok &= minimal_feasible_power(inst, b, qos, alpha * p, k, band=1e-6) \
            < alpha * base + 1e-6
        passed += bool(ok)
    assert passed == 50
    report(5, "positivity, monotonicity, scalability held on 50/50 probes")


def test_criterion_6_desk_scale_trends(desk_scale_records):
    config, records = desk_scale_records
    by = {}
    for rec in records:
        by.setdefault((rec.method, rec.gamma_db), []).append(rec)
    gammas = sorted(config.gamma_db)

    # (a) success percentage non-increasing in the SINR target
    for method in config.methods:
        curve = [np.mean([r.success for r in by[(method, g)]]) for g in gammas]
        diffs = np.diff(curve)
        assert np.all(diffs <= 1e-12), f"{method}: {curve}"

    # (b) paired ordering of the exact ZF solver over its surrogate
    zf_curve, cd_curve = [], []
    for g in gammas:
        zf_curve.append(np.mean([r.success for r in by[("ZF-General", g)]]))
        cd_curve.append(np.mean([r.success for r in by[("ZF-CoordDescent", g)]]))
        assert zf_curve[-1] >= cd_curve[-1] - 1e-12
        assert cd_curve[-1] >= 0.0

    # (c) common-subset average power strictly increasing in the target
    common = {r.trial for r in records}
    for rec in records:
        if not rec.success:
            common.discard(rec.trial)
    assert common, "no trial succeeded everywhere"
    avg_power = []
    for g in gammas:
        pool = [r.total_power for r in records
                if r.gamma_db == g and r.trial in common]
        avg_power.append(np.mean(pool))
    assert np.all(np.diff(avg_power) > 0)

    # (d) high-target ordering of the direction choices
    zf_hi = np.mean([r.success for r in by[("ZF-General", 10.0)]])
    rci_hi = np.mean([r.success for r in by[("RCI-General", 10.0)]])
    assert zf_hi >= rci_hi
    report(6, f"monotone success curves; ZF>=CoordDescent at every target; "
              f"common-subset power strictly increasing "
              f"({avg_power[0]:.3f} -> {avg_power[-1]:.3f} over "
              f"{len(common)} common trials); at 10 dB ZF {100 * zf_hi:.1f}% "
              f">= RCI {100 * rci_hi:.1f}%")


def test_criterion_7_workload_scalars(workload_records):
    config, records = workload_records
    med = {}
    for method in config.methods:
        solved = [r.bisection_steps for r in records
                  if r.method == method and r.success]
        cycles = [r.cycles for r in records
                  if r.method == method and r.success]
        med[method] = (float(np.median(solved)), float(np.median(cycles)))
    assert 10 <= med["RCI-General"][0] <= 120
    assert 10 <= med["ZF-General"][0] <= 120
    assert 25 <= med["ZF-CoordDescent"][0] <= 120
    assert med["ZF-CoordUpdate"][1] <= 6
    report(7, f"median bisections RCI {med['RCI-General'][0]:.0f}, "
              f"ZF {med['ZF-General'][0]:.0f}, "
              f"CoordDescent {med['ZF-CoordDescent'][0]:.0f} "
              f"(bands [10,120]/[25,120]); CoordUpdate median cycles "
              f"{med['ZF-CoordUpdate'][1]:.0f} <= 6")


def test_criterion_8_certification_soundness():
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        inst, b, qos = make_zf_setup(8000 + seed)
        solver = (solve_general, solve_zf_coord_descent,
                  solve_zf_coord_update)[seed % 3]
        try:
            rep = solver(inst, b, qos)
        except ApproximationInapplicable:
            continue
        if not (rep.solved and np.all(rep.per_user_prob_exact >= 0.95)):
            continue
        for k in range(3):
            mc = mc_probability(inst, b, rep.powers, qos, k, 100_000,
                                [seed, k])
            outage = 1.0 - mc.value
            assert outage <= 0.05 + 4.0 * mc.abs_error_bound
        checked += 1
    report(8, "20 success-marked solves re-verified by Monte Carlo at 1e5 "
              "samples (outage <= eps + 4 SE for every user)")


def test_criterion_9_determinism(tmp_path):
    config = ExperimentConfig(
        n_tx=3, n_users=3, n_trials=2, seed=99, epsilon=0.05,
        methods=("ZF-General", "ZF-CoordUpdate"),
        training={"L_ut": 1, "P_ut": 4.99}, gamma_db=(3.0, 7.0))
    p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    export_records(run_sweep(config), p1)
    export_records(run_sweep(config), p2)
    export_records(run_sweep(config, n_threads=2), p3)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    report(9, "byte-identical CSV across reruns and worker counts")
