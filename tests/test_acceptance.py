"""Acceptance gate: one test per criterion, each printing its verdict line.

Kinetic runs are shared through a module-scoped context, so the expensive
evolutions happen once, several at a time. Expect a minute or more of wall
time; run with -v to see one line per criterion as it completes.
"""

import pytest

from relwalk import verify

_NUMBERS = [number for number, _, _, _ in verify.CRITERIA]
_NAMES = {number: name for number, name, _, _ in verify.CRITERIA}


@pytest.fixture(scope="module")
def ctx(request):
    # the first criterion that needs a kinetic run marches the runs of
    # every criterion this session selected, up to four at a time
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
