"""The benchmark's workloads: inputs, one timed round, and its correctness checks.

Each workload's constructor is its set-up (building inputs after the
package is imported); ``run`` is one round of the timed region and returns
(operations attempted, operations failed, problems); a round that raises
fails all ``ops`` of its operations.

* ``front``: one standard-grid kinetic evolution, single-threaded. The
  Strang/Crank-Nicolson marcher does almost all the work, so this is the
  plain baseline of the memory-bound step.
* ``sweep``: the two kinetic CLI studies users run, in-process on a small
  grid: many short evolutions, the threaded mode split, re-marching from
  T=0 for every requested time, refine-16 reconstruction, the metric and
  Fick checks, and the CSV/JSON writers.
* ``walk``: a seeded quantum walk and the walk/Dirac convergence study,
  where the cost is per-step Python overhead on small arrays and the
  kinetic marcher is not touched.

The kinetic workloads have no random inputs: they record the seed and
ignore it.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np


class Front:
    """roup.evolve_all at Q=1 to T=0.5, snapshots at 0.25 and 0.5, threads=1."""

    threads = 1
    ops = 1  # the evolution
    Q = 1.0
    T = 0.5
    times = (0.25, 0.5)
    peak_target = 0.948
    peak_tolerance = 0.015

    def __init__(self, rw, seed, smoke, workdir, cores):
        self.rw = rw
        # ~500 steps of dt=1e-3 on the standard grid (257 modes x 2048 momenta)
        n_x, n_p, self.dt = (128, 512, 5e-3) if smoke else (512, 2048, 1e-3)
        self.params = rw.roup.RoupParams.standard(self.Q, self.T, n_x=n_x, n_p=n_p)
        p_grid = self.params.p_grid
        self.mass0 = rw.kernels.quad(rw.roup.initial_state(self.params).modes[0], p_grid)

    def run(self, tracer):
        roup = self.rw.roup
        states = roup.evolve_all(self.params, self.T, dt=self.dt,
                                 output_times=list(self.times), threads=self.threads)
        problems = []
        for state in states:
            residual = roup.symmetry_residual(state)
            if not residual < 1e-6:
                problems.append(f"T={state.time:g}: symmetry residual {residual:.3e}")
            xi = roup.peak_location(roup.reconstruct_density(state, refine=8))[0]
        # states follow the sorted output times, so xi is the peak at T
        if not abs(xi - self.peak_target) <= self.peak_tolerance:
            problems.append(f"T={self.T:g}: peak xi {xi:.6f}")
        mass = self.rw.kernels.quad(states[-1].modes[0], self.params.p_grid)
        drift = abs(mass - self.mass0) / abs(self.mass0)
        if not drift < 1e-12:
            problems.append(f"K=0 mass drift {drift:.3e}")
        return 1, int(bool(problems)), problems


class Sweep:
    """cli.main metric and roup studies on a generated INI, threads=min(2, cores)."""

    def __init__(self, rw, seed, smoke, workdir, cores):
        self.rw = rw
        self.workdir = workdir
        self.threads = min(2, cores)
        grid = ("n_x = 128\nn_p = 256\nrefine = 16\ndt = 0.05\n" if smoke else
                "n_x = 256\nn_p = 512\nrefine = 16\ndt = 0.01\n")
        grid += f"threads = {self.threads}\n"
        ini = workdir / "sweep.ini"
        ini.write_text(f"[metric]\n{grid}\n[roup]\n{grid}", encoding="utf-8")
        times, qs = ("0.5,1", "0.5,1,2") if smoke else ("0.5,1,2,4", "0.5,1,2,4,8")
        self.studies = {
            "metric": ["metric", "--config", str(ini), "--Q", "1", "--times", times],
            "roup": ["roup", "--config", str(ini), "--T", "1", "--Qs", qs],
        }
        self.ops = len(self.studies)
        self.rounds = 0
        self.digest = None

    def run(self, tracer):
        self.rounds += 1
        out = self.workdir / f"round{self.rounds}"
        problems = []
        failed = 0
        for name, argv in self.studies.items():
            code = self.rw.cli.main(argv + ["--out", str(out / name)])
            if code != 0:
                problems.append(f"{name}: exit code {code}")
                failed += 1
            elif name == "metric":
                manifest = json.loads((out / name / "manifest.json").read_text())
                residuals = manifest["parameters"]["fick_residuals"]
                bad = {t: r for t, r in residuals.items() if not r < 1e-2}
                if bad:
                    problems.append(f"metric: Fick residuals {bad}")
                    failed += 1
        # CSVs and manifests must reproduce byte for byte from round to round
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(out)).encode())
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        digest = digest.hexdigest()
        shutil.rmtree(out, ignore_errors=True)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"outputs {digest[:16]} differ from round 1 {self.digest[:16]}")
            failed = self.ops
        return self.ops, failed, problems


class Walk:
    """Seeded unitarity walk, then the walk/Dirac convergence study."""

    threads = 1
    T = 2.0
    length = 16.0

    def __init__(self, rw, seed, smoke, workdir, cores):
        self.rw = rw
        qwalk = rw.qwalk
        n_sites, self.steps, levels = (128, 300, 3) if smoke else (1024, 10_000, 6)
        self.eps = [0.1 / 2 ** i for i in range(levels)]  # 0.1 down to 0.003125
        self.ops = 1 + levels  # the walk and each convergence level
        self.field = qwalk.random_smooth_angle_field(seed=seed, n_sites=n_sites)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(2, n_sites)) + 1j * rng.normal(size=(2, n_sites))
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
        grid = rw.kernels.Grid1D.periodic(float(n_sites), n_sites)
        self.state0 = qwalk.WalkState(psi[0], psi[1], 0, 1.0, 1.0, grid)
        # the CLI's "benchmark" jet and default packet
        self.jet = qwalk.JetSpec(
            p=0,
            zeta0=-np.pi / 2.0,
            theta_bar=lambda T, X: 0.3 * np.cos(X),
            xi_bar=lambda T, X: 0.2,
            alpha_bar=lambda T, X: 0.1 * np.sin(T),
        )
        self.packet = lambda g: rw.dirac.gaussian_packet(g, width=1.0, momentum=0.5)

    def run(self, tracer):
        qwalk = self.rw.qwalk
        field = tracer.wrap("qwalk.angle_field", self.field) if tracer else self.field
        state = self.state0
        p0 = qwalk.total_probability(state)
        drift = 0.0
        for _ in range(self.steps):
            state = qwalk.step_walk(state, field)
            drift = max(drift, abs(qwalk.total_probability(state) - p0))
        problems = []
        if not drift < 1e-10:
            problems.append(f"walk norm drift {drift:.3e}")
        rows = self.rw.dirac.convergence_study(self.jet, self.packet, self.T,
                                               self.eps, self.length)
        bad_levels = {i for i, row in enumerate(rows) if i and not row.order >= 0.9}
        if not rows[-1].l2_error < 1e-2:
            bad_levels.add(len(rows) - 1)
        problems += [f"eps={rows[i].epsilon:g}: order {rows[i].order}, "
                     f"L2 error {rows[i].l2_error:.3e}" for i in sorted(bad_levels)]
        return self.ops, int(not drift < 1e-10) + len(bad_levels), problems


WORKLOADS = {"front": Front, "sweep": Sweep, "walk": Walk}
