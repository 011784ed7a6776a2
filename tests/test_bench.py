import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustpl.bench
from robustpl import (
    Diverged,
    EmptyIntersection,
    ExperimentConfig,
    TrialRecord,
    aggregate,
    run_sweep,
)
from robustpl.bench import export_records, read_records
from robustpl.cli import main as cli_main


def small_config(**overrides):
    base = dict(n_tx=3, n_users=3, n_trials=2, seed=42,
                methods=("ZF-General", "ZF-CoordDescent"),
                training={"L_ut": 1, "P_ut": 4.99},
                gamma_db=(3.0, 5.0))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_training_resolves_error_variance(self):
        cfg = small_config()
        assert cfg.error_variances() == pytest.approx((0.002,), abs=1e-15)

    def test_direct_sigma_e2_list(self):
        cfg = small_config(training=None, sigma_e2=(0.001, 0.01))
        assert cfg.error_variances() == (0.001, 0.01)

    def test_rejects_both_or_neither_uncertainty_specs(self):
        with pytest.raises(ValueError):
            small_config(sigma_e2=(0.001,))
        with pytest.raises(ValueError):
            small_config(training=None)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            small_config(methods=("ZF-General", "Nonsense"))

    @pytest.mark.parametrize("field, value", [
        pytest.param("epsilon", 1.0, id="epsilon-1.0"),
        pytest.param("mc_certify_samples", -5, id="mc_certify_samples--5"),
        pytest.param("training", {"L_ut": 1}, id="training-value5"),
        pytest.param("training", {"L_ut": 0, "P_ut": 4.99}, id="training-value6"),
        pytest.param("sigma_e2", [-0.01], id="sigma_e2-value7"),
        pytest.param("sigma_e2", [0.0], id="sigma_e2-zero"),
        pytest.param("sigma_e2", [], id="sigma_e2-empty"),
        pytest.param("gamma_db", [5.0, float("inf")], id="gamma_db-inf"),
        pytest.param("gamma_db", [float("nan")], id="gamma_db-nan"),
        pytest.param("gamma_db", [], id="gamma_db-empty"),
        pytest.param("methods", (), id="methods-empty"),
        pytest.param("n_trials", 0, id="n_trials-0"),
        pytest.param("n_tx", -1, id="n_tx--1"),
        pytest.param("n_users", 0, id="n_users-0"),
        pytest.param("mc_certify_samples", 1.5, id="mc_certify_samples-1.5"),
        pytest.param("mc_certify_samples", True, id="mc_certify_samples-True"),
        pytest.param("n_trials", 2.5, id="n_trials-2.5"),
        pytest.param("n_trials", 2.0, id="n_trials-2.0"),
        pytest.param("n_tx", "3", id="n_tx-str"),
        pytest.param("n_users", 3.0, id="n_users-3.0"),
        pytest.param("seed", -1, id="seed--1"),
        pytest.param("seed", 4.2, id="seed-4.2"),
        pytest.param("sigma2", 0.0, id="sigma2-0"),
        pytest.param("sigma2", -0.01, id="sigma2-negative"),
        pytest.param("sigma2", float("nan"), id="sigma2-nan"),
        pytest.param("sigma2", float("inf"), id="sigma2-inf"),
        pytest.param("sigma2_bs", float("nan"), id="sigma2_bs-nan"),
        pytest.param("sigma2_bs", float("inf"), id="sigma2_bs-inf"),
        pytest.param("sigma_e2", [0.001, float("inf")], id="sigma_e2-inf"),
        pytest.param("training", {"L_ut": 1.5, "P_ut": 4.99}, id="training-L_ut-1.5"),
        pytest.param("training", {"L_ut": True, "P_ut": 4.99}, id="training-L_ut-True"),
        pytest.param("training", {"L_ut": "1", "P_ut": 4.99}, id="training-L_ut-str"),
        pytest.param("training", {"L_ut": float("inf"), "P_ut": 4.99}, id="training-L_ut-inf"),
        pytest.param("training", {"L_ut": 1, "P_ut": float("nan")}, id="training-P_ut-nan"),
        pytest.param("training", {"L_ut": 1, "P_ut": float("inf")}, id="training-P_ut-inf")])
    def test_rejects_out_of_range_solver_settings(self, field, value):
        overrides = {field: value}
        if field == "sigma_e2":
            overrides["training"] = None  # the two specs are exclusive
        with pytest.raises(ValueError, match=field):
            small_config(**overrides)

    def test_numpy_integers_are_integers(self):
        cfg = small_config(n_trials=np.int64(2), seed=np.uint32(42), mc_certify_samples=np.int32(0),
                           training={"L_ut": np.int64(1), "P_ut": np.float32(4.99)}, sigma2_bs=np.float64(0.01))
        assert cfg.n_trials == 2 and cfg.seed == 42
        assert cfg.error_variances() == pytest.approx((0.002,), rel=1e-6)

    def test_json_round_trip_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n_tx": 3, "n_users": 3, "n_trials": 1, "seed": 1,
            "methods": ["ZF-General"], "training": {"L_ut": 1, "P_ut": 4.99},
            "bogus_knob": 7}))
        with pytest.raises(ValueError, match="bogus_knob"):
            ExperimentConfig.from_json(path)


class TestSweep:
    def test_record_count_and_determinism(self):
        cfg = small_config(methods=("ZF-General",))
        recs = run_sweep(cfg)
        assert len(recs) == cfg.n_trials * len(cfg.methods) * len(cfg.gamma_db)
        again = run_sweep(cfg)
        assert recs == again

    def test_paired_channels_across_methods(self):
        # identical trial index means identical channels: the two ZF methods
        # must report identical feasibility of the start (same instance)
        cfg = small_config()
        recs = run_sweep(cfg)
        by_key = {(r.method, r.gamma_db, r.trial): r for r in recs}
        for t in range(cfg.n_trials):
            for g in cfg.gamma_db:
                a = by_key[("ZF-General", g, t)]
                d = by_key[("ZF-CoordDescent", g, t)]
                assert a.sigma_e2 == d.sigma_e2

    def test_paired_power_dominance(self):
        cfg = small_config()
        recs = run_sweep(cfg)
        by_key = {(r.method, r.gamma_db, r.trial): r for r in recs}
        for t in range(cfg.n_trials):
            for g in cfg.gamma_db:
                exact = by_key[("ZF-General", g, t)]
                approx = by_key[("ZF-CoordDescent", g, t)]
                if exact.success and approx.success:
                    assert exact.total_power <= approx.total_power \
                        + 1e-6 * approx.total_power

    def test_trial_estimate_is_the_uplink_draw(self, monkeypatch):
        # run_trial draws its estimate by draw_estimate at the uplink error
        # variance, from the trial's channel and seed, bit for bit
        from robustpl import draw_estimate, generate_rayleigh_channels, uplink_error_variance

        seen = []

        def recording(method, instance, est, qos, config):
            seen.append(instance)
            raise Diverged("recorded")

        monkeypatch.setattr(robustpl.bench, "_run_method", recording)
        cfg = small_config(methods=("ZF-General",), gamma_db=(3.0,), seed=11)
        robustpl.bench.run_trial(cfg, 1)
        h = generate_rayleigh_channels(3, 3, np.random.default_rng([11, 0, 1]))
        est, cov = draw_estimate(h, uplink_error_variance(cfg.sigma2_bs, 1, 4.99),
                                 np.random.default_rng([11, 1, 1, 0]))
        (instance,) = seen
        assert np.array_equal(instance.true_channels, h)
        assert np.array_equal(instance.est_channels, est)
        assert np.array_equal(instance.error_cov, cov)

    def test_thread_pool_matches_sequential(self):
        cfg = small_config(methods=("ZF-CoordUpdate",), gamma_db=(3.0,))
        assert run_sweep(cfg, n_threads=1) == run_sweep(cfg, n_threads=2)

    def test_import_leaves_the_process_pool_out(self):
        # the pool's modules load only for a sweep on two or more workers
        src = str(Path(robustpl.bench.__file__).resolve().parent.parent)
        code = ("import sys, robustpl; "
                "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_mc_certification_keeps_true_successes(self):
        cfg = small_config(methods=("ZF-General",), gamma_db=(3.0,),
                           mc_certify_samples=20_000)
        recs = run_sweep(cfg)
        plain = run_sweep(small_config(methods=("ZF-General",), gamma_db=(3.0,)))
        for a, b in zip(recs, plain):
            assert a.success == b.success

    def test_success_non_increasing_in_uncertainty(self):
        cfg = small_config(methods=("ZF-General",), n_trials=12, seed=5150,
                           training=None, sigma_e2=(0.002, 0.02, 0.08),
                           gamma_db=(5.0,))
        recs = run_sweep(cfg)
        curve = [np.mean([r.success for r in recs if r.sigma_e2 == s])
                 for s in cfg.sigma_e2]
        assert np.all(np.diff(curve) <= 1e-12), curve

    def test_trial_isolation_under_failure(self):
        # 3 users on 2 antennas at 30 dB need sum gamma / (1 + gamma) = 2.997 > 2
        # from the virtual uplink, so the PCSI direction solve raises Diverged;
        # the sweep still returns one record per cell
        cfg = small_config(methods=("PCSI-General",), gamma_db=(0.0, 30.0),
                           n_trials=1, n_tx=2)
        recs = run_sweep(cfg)
        assert len(recs) == 2
        assert (recs[1].gamma_db, recs[1].status) == (30.0, "Diverged")

    def test_undefined_surrogate_target_falls_back_to_general(self):
        # at this uncertainty 1 + eta_k <= 0, so the surrogate solvers'
        # points are solved by solve_general with the same directions
        cfg = small_config(methods=("ZF-General", "ZF-CoordUpdate"), seed=7,
                           training=None, sigma_e2=(0.5,))
        recs = run_sweep(cfg)
        general = [r for r in recs if r.method == "ZF-General"]
        fallback = [r for r in recs if r.method == "ZF-CoordUpdate"]
        assert [r.status for r in fallback] == ["fallback_" + g.status for g in general]
        for g, f in zip(general, fallback):
            assert dataclasses.replace(g, method=f.method, status=f.status) == f

    def test_mc_certification_rejects_a_point_it_cannot_reproduce(self, monkeypatch):
        def low(*args):
            return 0.5, 0.001
        monkeypatch.setattr(robustpl.bench, "mc_probability", low)
        cfg = small_config(methods=("ZF-General",), gamma_db=(3.0,))
        plain = run_sweep(cfg)
        recs = run_sweep(dataclasses.replace(cfg, mc_certify_samples=100))
        assert any(r.success for r in plain)
        assert not any(r.success for r in recs)
        for a, b in zip(recs, plain):
            assert dataclasses.replace(a, success=b.success) == b

    def test_failed_direction_solve_records_exception_name(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise Diverged("injected")
        monkeypatch.setattr(robustpl.bench, "build_pcsi_directions", diverge)
        cfg = small_config(methods=("PCSI-General",), gamma_db=(3.0,), n_trials=1)
        (rec,) = run_sweep(cfg)
        assert rec.status == "Diverged"
        assert (rec.success, rec.total_power, rec.integral_evals) == (False, 0.0, 0)


class TestAggregate:
    def test_single_method_all_success(self):
        recs = [TrialRecord("ZF-General", 3.0, 0.002, t, "solved", True,
                            1.0 + t, 1, 10, 12) for t in range(4)]
        rows = aggregate(recs)
        assert len(rows) == 1
        assert rows[0].success_pct == 100.0
        assert rows[0].avg_power_common == pytest.approx(np.mean([1, 2, 3, 4]))

    def test_common_subset_restricts_trials(self):
        recs = []
        for t in range(4):
            recs.append(TrialRecord("ZF-General", 3.0, 0.002, t, "solved", True,
                                    1.0, 1, 10, 12))
            recs.append(TrialRecord("ZF-CoordDescent", 3.0, 0.002, t, "solved",
                                    t < 2, 2.0, 1, 10, 12))
        rows = aggregate(recs, common_subset=True)
        assert all(r.avg_power_common in (1.0, 2.0) for r in rows)

    def test_disjoint_success_sets_raise(self):
        recs = [
            TrialRecord("ZF-General", 3.0, 0.002, 0, "solved", True, 1.0, 1, 1, 1),
            TrialRecord("ZF-General", 3.0, 0.002, 1, "solved", False, 1.0, 1, 1, 1),
            TrialRecord("ZF-CoordDescent", 3.0, 0.002, 0, "solved", False, 1.0, 1, 1, 1),
            TrialRecord("ZF-CoordDescent", 3.0, 0.002, 1, "solved", True, 1.0, 1, 1, 1),
        ]
        with pytest.raises(EmptyIntersection):
            aggregate(recs, common_subset=True)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestExport:
    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_records([], path)
        assert path.read_text() == (
            "method,gamma_db,sigma_e2,trial,status,success,"
            "total_power,cycles,bisection_steps,integral_evals\n")

    def test_read_rejects_a_wrong_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("method,gamma_db,trial\nZF-General,3.0,0\n")
        with pytest.raises(ValueError, match="unexpected record header"):
            read_records(path)

    @pytest.mark.parametrize("success", ["true", "yes", "", "2"])
    def test_read_rejects_a_success_other_than_0_or_1(self, success, tmp_path, capsys):
        path = tmp_path / "r.csv"
        export_records([TrialRecord("ZF-General", 3.0, 0.002, 0, "solved", True,
                                    1.5, 2, 10, 12)], path)
        header, row = path.read_text().splitlines()
        path.write_text(f"{header}\n{row.replace(',1,1.5,', f',{success},1.5,')}\n")
        with pytest.raises(ValueError, match="column success"):
            read_records(path)
        assert cli_main(["aggregate", "--in", str(path), "--out", str(tmp_path / "s.csv")]) == 1
        assert "column success" in capsys.readouterr().err

    def test_round_trip_is_stable(self, tmp_path):
        cfg = small_config(methods=("ZF-CoordUpdate",), gamma_db=(3.0,))
        recs = run_sweep(cfg)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        export_records(recs, p1)
        parsed = read_records(p1)
        export_records(parsed, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_records(p2) == parsed

    def test_row_count(self, tmp_path):
        cfg = small_config(training=None, sigma_e2=(0.001, 0.004))
        recs = run_sweep(cfg)
        path = tmp_path / "r.csv"
        export_records(recs, path)
        n_lines = path.read_text().count("\n")
        expected = cfg.n_trials * len(cfg.methods) * len(cfg.gamma_db) * 2
        assert n_lines == expected + 1
        assert len(recs) == expected

    def test_identical_bytes_for_identical_config(self, tmp_path):
        cfg = small_config(methods=("ZF-General",), gamma_db=(5.0,))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        export_records(run_sweep(cfg), p1)
        export_records(run_sweep(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def write_config(self, tmp_path, **overrides):
        cfg = dict(n_tx=3, n_users=3, n_trials=1, seed=7,
                   methods=["ZF-CoordUpdate"],
                   training={"L_ut": 1, "P_ut": 4.99}, gamma_db=[3.0])
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_sweep_and_aggregate_round(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "records.csv"
        summary = tmp_path / "summary.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        assert cli_main(["aggregate", "--in", str(out), "--out", str(summary),
                         "--common-subset"]) == 0
        text = summary.read_text()
        assert text.startswith("method,gamma_db,sigma_e2,success_pct,"
                               "avg_power_common,median_cycles,median_bisections\n")

    def test_exit_zero_even_with_infeasible_trials(self, tmp_path):
        # large uncertainty and a demanding target: trials fail, sweep succeeds
        cfg = self.write_config(tmp_path, methods=["ZF-General"],
                                training=None, sigma_e2=[0.5], gamma_db=[10.0])
        out = tmp_path / "records.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        recs = read_records(out)
        assert len(recs) == 1 and not recs[0].success
        assert recs[0].status == "infeasible_start_not_found"

    def test_unknown_config_key_fails(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_tx": 3, "weird": 1}))
        out = tmp_path / "r.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 1

    def test_out_of_range_solver_setting_fails(self, tmp_path):
        for overrides in ({"delta_min": 0}, {"training": {"L_ut": 1}},
                          {"training": {"L_ut": 0, "P_ut": 4.99}},
                          {"training": None, "sigma_e2": [-0.01]},
                          {"training": None, "sigma_e2": [0.0]},
                          {"gamma_db": [float("inf")]},  # Infinity in the JSON
                          # fixed solver values are not settings
                          {"quad_tol": 0.3}, {"delta_min": 1e-3}, {"i_max": 50},
                          {"eta_multiple": -1.3}):
            cfg = self.write_config(tmp_path, **overrides)
            out = tmp_path / "records.csv"
            assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
            assert not out.exists()

    def test_infinite_training_length_is_a_one_line_error(self, tmp_path, capsys):
        path, out = tmp_path / "cfg.json", tmp_path / "records.csv"
        # Python's json reads and writes the non-standard literal Infinity
        path.write_text(self.write_config(tmp_path).read_text().replace('"L_ut": 1', '"L_ut": Infinity'))
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: training.L_ut must be an integer of at least 1, not inf\n"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, threads, capsys):
        cfg, out = self.write_config(tmp_path), tmp_path / "records.csv"
        with pytest.raises(SystemExit) as exited:
            cli_main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads])
        assert exited.value.code == 2 and not out.exists()
        assert f"--threads: must be at least 1, not {threads}" in capsys.readouterr().err
        with pytest.raises(ValueError, match="max_workers"):  # the pool's own check
            run_sweep(small_config(), n_threads=int(threads))

    def test_sweep_starts_at_most_one_worker_per_trial(self, tmp_path, monkeypatch):
        import concurrent.futures

        class SerialPool:
            """A pool that records ``max_workers`` and maps in this process."""
            started = []

            def __init__(self, max_workers):
                self.started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = self.write_config(tmp_path, n_trials=2)
        pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(pooled), "--threads", "64"]) == 0
        assert SerialPool.started == [2]
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert SerialPool.started == [2] and pooled.read_bytes() == serial.read_bytes()
        run_sweep(small_config(n_trials=1), n_threads=2)  # one trial: no pool
        assert SerialPool.started == [2]

    def test_missing_input_fails(self, tmp_path):
        assert cli_main(["aggregate", "--in", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "s.csv")]) == 1

    def test_mc_certify_flag(self, tmp_path):
        # Monte Carlo certification is a config key only: a records file
        # depends on nothing but its config and seed
        cfg = self.write_config(tmp_path, mc_certify_samples=5000)
        out = tmp_path / "records.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_records(out)[0].success
