"""The check record every acceptance criterion reports its tolerances in."""

import json

import numpy as np
import pytest

from relwalk.verify import Check


@pytest.mark.parametrize("sense, below, at, above", [
    ("<", True, False, False),
    ("<=", True, True, False),
    (">", False, False, True),
    (">=", False, True, True),
    ("==", False, True, False),
])
def test_check_at_and_either_side_of_its_bound(sense, below, at, above):
    bound = 0.5
    for value, ok in ((np.nextafter(bound, 0.0), below), (bound, at),
                      (np.nextafter(bound, 1.0), above)):
        assert Check("x", value, sense, bound).record()["ok"] is ok, value


@pytest.mark.parametrize("value, sense, bound, margin, ok", [
    (0.25, "<", 0.5, 0.5, True), (0.75, "<", 0.5, -0.5, False),
    (0.25, "<=", 0.5, 0.5, True), (0.5, "<=", 0.5, 0.0, True),
    (0.75, ">", 0.5, 0.5, True), (0.25, ">", 0.5, -0.5, False),
    (0.25, ">=", 0.5, -0.5, False), (-1.5, "<", -1.0, 0.5, True),
    (-0.5, ">=", -1.0, 0.5, True), (-1.5, ">", -1.0, -0.5, False),
])
def test_margin_is_positive_on_the_passing_side(value, sense, bound, margin, ok):
    record = Check("x", value, sense, bound).record()
    assert record["margin"] == margin
    assert record["ok"] is ok


@pytest.mark.parametrize("check", [Check("n", 2, "==", 2), Check("n", 3, "==", 2),
                                   Check("x", 0.5, "<", 0.0)])
def test_no_margin_for_equality_or_a_zero_bound(check):
    assert check.record()["margin"] is None


def test_record_of_numpy_inputs_is_json():
    records = [Check("x", np.float64(0.25), "<", np.float64(0.5)).record(),
               Check("flag", np.bool_(True), "==", np.bool_(True)).record(),
               Check("n", np.int64(2), "==", 2).record()]
    assert json.loads(json.dumps(records)) == [
        {"name": "x", "value": 0.25, "sense": "<", "bound": 0.5, "margin": 0.5, "ok": True},
        {"name": "flag", "value": 1.0, "sense": "==", "bound": 1.0, "margin": None, "ok": True},
        {"name": "n", "value": 2.0, "sense": "==", "bound": 2.0, "margin": None, "ok": True}]
    assert all(type(r["ok"]) is bool and type(r["value"]) is float for r in records)
