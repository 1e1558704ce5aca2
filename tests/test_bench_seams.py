"""The package keeps every binding and signature the benchmark's tracer swaps.

perfbench/tracing.py times a traced round by replacing module attributes
(roup.evolve_all, roup.tridiag_solve, dirac.solve_dirac and others) with
wrappers that bind their arguments by name. Its own smoke test lies
outside this suite, so this test compiles the tracer from its source
file, without importing it as a module (no bytecode is cached next to
it), installs it, runs a tiny kinetic march and a tiny Dirac solve, and
checks that every swapped attribute is put back.
"""

import types
from pathlib import Path

import relwalk
from relwalk import _io, cli, dirac, fick, kernels, qwalk, roup

_TRACING = Path(relwalk.__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(_TRACING.read_text(), str(_TRACING), "exec"), module.__dict__)
    return module


def test_traced_march_and_dirac_solve_restore_every_binding():
    tracing = _tracing()
    rw = types.SimpleNamespace(package=relwalk, io=_io, cli=cli, dirac=dirac, fick=fick,
                               kernels=kernels, qwalk=qwalk, roup=roup)
    modules = (_io, cli, dirac, fick, kernels, qwalk, roup)
    saved = [dict(vars(module)) for module in modules]
    shipped = roup.evolve_all, dirac.solve_dirac
    tracer = tracing.Tracer()
    with tracing.installed(tracer, rw):
        assert (roup.evolve_all, dirac.solve_dirac) != shipped
        params = roup.RoupParams.standard(1.0, 0.05, n_x=8, n_p=64)
        roup.evolve_all(params, 0.05, dt=0.01, threads=1)
        grid = kernels.Grid1D.periodic(2.0, 20)
        coeffs = dirac.DiracCoefficients.from_jet(qwalk.JetSpec())
        dirac.solve_dirac(coeffs, dirac.gaussian_packet(grid, width=0.3), 0.5, 0.1)
    for module, before in zip(modules, saved):
        assert all(vars(module).get(name) is value for name, value in before.items())
    metrics = tracer.metrics()
    assert metrics["roup.evolve_all.calls"] == 1
    assert metrics["dirac.solve_dirac.calls"] == 1
    assert metrics["dirac.site_steps"] == 5 * 20
