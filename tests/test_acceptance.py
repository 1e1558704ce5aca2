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
        print(f"\n{result.line()}  [{result.runtime:.1f}s]")
    assert result.passed, result.details
