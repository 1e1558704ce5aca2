"""Acceptance gate: one test per criterion, each printing its verdict line.

Kinetic runs are shared through a module-scoped context, which marches
each distinct run the selected criteria read once, up front, several at a
time (9 runs for the whole gate). Expect about half a minute of wall time
on two cores; run with -v to see one line per criterion as it completes.
"""

import pytest

from relwalk import verify

_NUMBERS = [number for number, _, _, _, _ in verify.CRITERIA]
_NAMES = {number: name for number, name, _, _, _ in verify.CRITERIA}


def _value_of(name):
    return lambda checks: checks[name]["value"]


# every check of each criterion, in order: name, sense and bound. None marks a
# bound measured in the same run; a callable derives it from the checks.
_BOUNDS = {
    1: [("max_drift", "<", 1e-10)],
    2: [("order eps=0.05", ">=", 0.9), ("order eps=0.025", ">=", 0.9),
        ("error_at_finest", "<", 1e-2)],
    3: [("worst_rel_error", "<", 1e-3)],
    4: [("relative_l1_drift", "<", 1e-6)],
    5: [("|peak T=0.5 - 0.948|", "<=", 0.015),
        ("|peak T=0.25 - peak T=0.5|", "<=", 0.015),
        ("|peak T=0.75 - peak T=0.5|", "<=", 0.015),
        ("plan_s + runtime_s", "<", 300.0)],
    6: [("shape_l1_distance", "<", 0.05),
        ("|formula_grid_peak - peak_target|", "<=", None)],
    7: [("nu_at_zero T=0.5 vs T=2", "<", _value_of("nu_at_zero T=2 vs T=10")),
        ("nu_at_zero T=2 vs T=10", "<", None),
        ("nu_at_zero T=0.5 vs peak", "<", None),
        ("gaussian_l1 T=10 vs T=2", "<", None)],
    8: [("base_residual", "<", 1e-2),
        ("refined_residual", "<=", lambda checks: 0.5 * checks["base_residual"]["value"])],
    9: [("fick_residual T=1", "<", 1e-2), ("fick_residual T=4", "<", 1e-2),
        ("fick_residual T=10", "<", 1e-2),
        ("propagative g_ratio_at_0.95 T=1", ">", 10.0),
        ("g_ratio_at_0.95 T=1", ">", 1.0), ("g_ratio_at_0.95 T=4", ">", 1.0),
        ("g_ratio_at_0.95 T=10", ">", 1.0),
        ("g_ratio_at_0.95 T=1 vs T=4", ">", _value_of("g_ratio_at_0.95 T=4")),
        ("g_ratio_at_0.95 T=4 vs T=10", ">", _value_of("g_ratio_at_0.95 T=10"))],
    10: [("ou_flatness", "<", 1e-2), ("l1_to_gaussian", "<", 0.02)],
    # fick.FLUX_RATIO at each of the two density maxima
    11: [("abs_J_over_max peak 1", ">", 1e-3), ("abs_J_over_max peak 2", ">", 1e-3),
         ("peaks_found", "==", 2)],
}


@pytest.fixture(scope="module")
def ctx(request):
    # building the context marches the runs of every criterion this
    # session selected, up to four at a time, before the first test
    numbers = [item.callspec.params["number"] for item in request.session.items
               if item.module is request.module]
    return verify.RunContext(threads=4, numbers=numbers)


@pytest.mark.parametrize(
    "number", _NUMBERS, ids=[f"{n:02d}-{_NAMES[n]}" for n in _NUMBERS])
def test_criterion(number, ctx, capsys):
    result = verify.run_criterion(number, ctx)
    with capsys.disabled():
        print(f"\n{result.line()}")
    failing = [f"{c['name']} = {c['value']!r}, not {c['sense']} {c['bound']!r}"
               for c in result.checks if not c["ok"]]
    assert result.passed, failing or result.details
    checks = {c["name"]: c for c in result.checks}
    assert list(checks) == [name for name, _, _ in _BOUNDS[number]]
    for name, sense, bound in _BOUNDS[number]:
        assert checks[name]["sense"] == sense, name
        if callable(bound):
            bound = bound(checks)
        assert bound is None or checks[name]["bound"] == bound, name
