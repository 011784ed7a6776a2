"""The probability kernels reproduce, bit for bit, the forms of
tests/data/kernel_forms.json, which scripts/kernel_forms.py recorded from
the three perfbench workloads: an edit to ``saddlepoint_cdf`` or
``cdf_quadrature`` that moves one bit of a value, raw value, bound or slope
fails here (README, "Where an exact solve spends its CPU")."""

import importlib.util
import json
from pathlib import Path

import pytest

import robustpl.quadform as quadform

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("kernel_forms", ROOT / "scripts" / "kernel_forms.py")
kernel_forms = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_forms)
DATA = json.loads((ROOT / "tests" / "data" / "kernel_forms.json").read_text())


@pytest.mark.parametrize("kernel", ["saddlepoint_cdf", "cdf_quadrature"])
def test_kernels_reproduce_the_recorded_forms(kernel):
    forms = DATA[kernel]
    assert 150 <= len(forms) <= 250
    differ = [i for i, form in enumerate(forms)
              if not kernel_forms.same(kernel_forms.call(quadform, form),
                                       {"result": form["result"], "raises": form["raises"]})]
    assert differ == []


def test_the_recorded_forms_include_slopes():
    sloped = [form for form in DATA["saddlepoint_cdf"] if form["slope_terms"] is not None]
    assert len(sloped) >= 24 and all(form["result"][3] is not None for form in sloped)
    assert all(form["result"][3] is None for form in DATA["cdf_quadrature"])
    assert DATA["calls"]["saddlepoint_cdf"] > len(DATA["saddlepoint_cdf"])
    assert DATA["calls"]["cdf_quadrature"] > len(DATA["cdf_quadrature"])


def test_same_is_bit_for_bit():
    same = kernel_forms.same
    assert same([1.0, None, "x"], [1.0, None, "x"]) and same(float("nan"), float("nan"))
    assert not same(0.0, -0.0) and not same(1.0, 1.0 + 2.0 ** -52) and not same(1.0, None)
