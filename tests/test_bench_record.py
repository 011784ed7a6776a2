"""The pair statistics of scripts/bench_record.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024),          # 10/10: p ~ 0.002
    (0, 10, 2 / 1024),          # two-sided: losing every pair is as rare
    (9, 1, 2 * 11 / 1024),      # 9 of 10: p ~ 0.021
    (5, 5, 1.0),                # an even split
    (7, 0, 2 / 128),            # three ties count for neither side
    (0, 0, 1.0),                # all ties
])
def test_sign_test_known_counts(wins, losses, p):
    assert bench_record.sign_test(wins, losses) == pytest.approx(p, rel=1e-12)
