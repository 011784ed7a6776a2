"""Tests of the benchmark itself: injected solver faults must come out as
failed operations, never as results.

    python3 -m pytest perfbench/test_faults.py -q
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import robustpl.bench  # noqa: E402
import robustpl.zf  # noqa: E402
from robustpl import PowerAllocation  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import patched  # noqa: E402


def _scaled_powers(fn):
    """A solver that returns 0.9 times its powers with the old probabilities."""
    def faulty(*args, **kwargs):
        report = fn(*args, **kwargs)
        return dataclasses.replace(
            report, powers=PowerAllocation(powers=0.9 * report.powers.powers),
            total_power=0.9 * report.total_power)
    return faulty


def _raises_zero_division(fn):
    def faulty(*args, **kwargs):
        raise ZeroDivisionError("injected")
    return faulty


def _assert_caught(op):
    """A solve with scaled powers never counts as certified, and one that
    claims certification is a failed operation.  (Where noise is negligible
    against the error terms, scaling barely moves an uncertified solve's
    probabilities, so that solve may pass as the uncertified result it is.)"""
    assert not op.certified
    if np.all(op.report.per_user_prob_exact >= 1.0 - op.qos.epsilon):
        assert op.error is not None


def _run_zf_library(seed=3):
    outcome = workloads.run_library(workloads.make_inputs("zf-library", seed, 0.4))
    workloads.check_library(outcome, seed)
    return outcome


def _run_sweep(tmp_path, seed=3):
    config = workloads.make_inputs("paper-sweep", seed, 1.0)
    sweep = workloads.run_paper_sweep(config, tmp_path)
    workloads.check_paper_sweep(sweep, config, seed)
    return sweep


def test_clean_library_run_has_no_failures_and_repeats():
    first, second = _run_zf_library(), _run_zf_library()
    assert [op.error for op in first.ops] == [None] * len(first.ops)
    assert first.digest == second.digest


def test_scaled_powers_fail_in_library_workload():
    with patched([(robustpl.zf, "solve_zf_coord_update", _scaled_powers)]):
        outcome = _run_zf_library()
    for op in outcome.ops:
        if op.method == "ZF-CoordDescent":
            assert op.error is None
        else:
            _assert_caught(op)
    res = workloads.results(outcome, workloads.SPECS["zf-library"])
    assert res["certified_solves"] == sum(
        op.certified for op in outcome.ops if op.method == "ZF-CoordDescent")
    # no point has both methods left, so nothing enters the power average
    assert res["common_solves"] == 0


def test_scaled_powers_fail_in_paper_sweep(tmp_path):
    with patched([(robustpl.zf, "solve_zf_coord_update", _scaled_powers)]):
        sweep = _run_sweep(tmp_path)
    ops = sweep.outcome.ops
    assert sweep.exit_codes == (0, 0)
    for op in ops:
        if op.method != "ZF-CoordUpdate":
            assert op.error is None
        else:
            _assert_caught(op)


def test_zero_division_inside_run_trial_fails(tmp_path):
    with patched([(robustpl.bench, "solve_general", _raises_zero_division)]):
        sweep = _run_sweep(tmp_path)
    ops = sweep.outcome.ops
    # run_trial swallows the error into a record, and the sweep still exits 0
    assert sweep.exit_codes[0] == 0
    exact = {op.index for op in ops
             if op.method in ("PCSI-General", "RCI-General", "ZF-General")}
    failed = {op.index for op in ops if op.error is not None}
    assert exact <= failed
    assert all("ZeroDivisionError" in ops[i].error for i in exact)
    res = workloads.results(sweep.outcome, workloads.SPECS["paper-sweep"])
    assert res["certified_solves"] == sum(op.certified for op in ops
                                          if op.index not in failed)
    assert res["common_solves"] == 0


def test_monte_carlo_sampler_catches_scaled_powers():
    outcome = _run_zf_library()
    op = next(op for op in outcome.ops if op.certified)
    rng = np.random.default_rng(0)
    args = (op.instance, op.beamformer.columns)
    probs = op.report.per_user_prob_exact
    assert checks.mc_disagreements(*args, op.report.powers.powers, op.qos.gamma,
                                   probs, rng) == []
    assert checks.mc_disagreements(*args, 0.9 * op.report.powers.powers,
                                   op.qos.gamma, probs, rng) != []


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
