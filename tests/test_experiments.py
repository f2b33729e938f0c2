"""Functional assembly, sweep report, determinism, and CLI tests."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lowmach.dyadic import NormSpec, chemin_lerner_norm, norm, time_norm
from lowmach.experiments import (
    ExperimentConfig,
    convergence_study,
    emit_report,
    fit_loglog_slope,
    run_invariant_suite,
    vanishing_limit_check,
)
from lowmach.functionals import (
    DiagnosticsRow,
    FunctionalSettings,
    bridge_constant,
    compute_functionals,
)
from lowmach.lattice import LatticeSpec, SpectralField
from lowmach.operators import (
    AcousticCoeffs,
    acoustic_transform,
    helmholtz_project,
    wave_group,
)
from lowmach.solvers import Trajectory, generate_initial_data


def make_compressible_like(lattice, rng, times, eps, scale=1.0):
    """Synthetic trajectory with the record layout of a compressible run."""
    states = []
    for t in times:
        a0, u0 = generate_initial_data(
            lattice, scale, scale, seed=int(rng.integers(0, 2**31))
        )
        pu = helmholtz_project(u0, "P")
        qu = u0 - pu
        veps = wave_group(acoustic_transform(a0, qu, check=False), -t / eps)
        states.append({"a": a0, "u": u0, "Pu": pu, "Qu": qu, "Veps": veps})
    return Trajectory(times=np.asarray(times), states=states)


def zero_compressible(lattice, times):
    zs = SpectralField.zeros(lattice)
    zv = SpectralField.zeros(lattice, lattice.d)
    zac = AcousticCoeffs.zeros(lattice)
    states = [{"a": zs, "u": zv, "Pu": zv, "Qu": zv, "Veps": zac} for _ in times]
    return Trajectory(times=np.asarray(times), states=states)


@pytest.fixture
def lat16():
    return LatticeSpec.square(2, 16)


@pytest.fixture
def settings():
    return FunctionalSettings(eps=0.1, zeta=2.0, eta0=0.5, theta=0.25)


class TestFunctionals:
    def test_all_zero_trajectories(self, lat16, settings):
        times = np.linspace(0.0, 1.0, 5)
        traj_eps = zero_compressible(lat16, times)
        traj_v = Trajectory(
            times=times,
            states=[{"v": SpectralField.zeros(lat16, 2)} for _ in times],
        )
        traj_V = Trajectory(
            times=times, states=[{"V": AcousticCoeffs.zeros(lat16)} for _ in times]
        )
        row = compute_functionals(traj_eps, traj_v, traj_V, settings)
        for name, value in row.values.items():
            assert value == 0.0, name

    def test_identical_trajectories_zero_differences(self, lat16, settings):
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 0.5, 4)
        traj_eps = make_compressible_like(lat16, rng, times, settings.eps)
        traj_v = Trajectory(
            times=times, states=[{"v": s["Pu"]} for s in traj_eps.states]
        )
        traj_V = Trajectory(
            times=times, states=[{"V": s["Veps"]} for s in traj_eps.states]
        )
        row = compute_functionals(traj_eps, traj_v, traj_V, settings)
        assert row.values["Z_theta"] == 0.0
        assert row.values["W_theta"] == 0.0
        assert row.values["low_bracket_diff"] == 0.0
        assert row.values["Vdiff_composite"] == 0.0
        assert row.values["X"] > 0.0

    def test_bridge_inequality(self, lat16):
        rng = np.random.default_rng(1)
        theta = 0.25
        zeta = 4.0
        times = np.linspace(0.0, 1.0, 6)
        fields = []
        for _ in times:
            a0, u0 = generate_initial_data(
                lat16, 1.0, 1.0, seed=int(rng.integers(0, 2**31))
            )
            qu = helmholtz_project(u0, "Q")
            fields.append(acoustic_transform(a0, qu))
        d = lat16.d
        lhs = chemin_lerner_norm(
            times,
            fields,
            float("inf"),
            NormSpec(s=d / 2 - 1, r=1, band="l", zeta=zeta),
        ) + chemin_lerner_norm(
            times, fields, 2.0, NormSpec(s=d / 2, r=1, band="l", zeta=zeta)
        )
        z_norm = chemin_lerner_norm(
            times, fields, float("inf"), NormSpec(kind="H", s=d / 2 - 1 - theta)
        ) + time_norm(times, fields, 2.0, NormSpec(kind="H", s=d / 2 - theta))
        C = bridge_constant(lat16, theta)
        assert lhs <= C * zeta ** (2 * theta) * z_norm * (1 + 1e-12)

    def test_y_bounded_by_d_plus_background(self, lat16, settings):
        # triangle inequality with constant one over the implemented norms
        rng = np.random.default_rng(2)
        times = np.linspace(0.0, 0.5, 4)
        traj_eps = make_compressible_like(lat16, rng, times, settings.eps)
        traj_v = Trajectory(
            times=times,
            states=[
                {"v": helmholtz_project(s["u"], "P") * 0.7} for s in traj_eps.states
            ],
        )
        traj_V = Trajectory(
            times=times, states=[{"V": 0.6 * s["Veps"]} for s in traj_eps.states]
        )
        row = compute_functionals(traj_eps, traj_v, traj_V, settings)
        d = lat16.d
        z = settings.zeta
        v_fields = traj_v.series("v")
        V_fields = traj_V.series("V")
        background = (
            chemin_lerner_norm(times, V_fields, float("inf"), NormSpec(s=d / 2 - 1, r=1, band="l", zeta=z))
            + chemin_lerner_norm(times, V_fields, 2.0, NormSpec(s=d / 2, r=1, band="l", zeta=z))
            + chemin_lerner_norm(times, v_fields, float("inf"), NormSpec(s=d / 2 - 1, r=1, band="l", zeta=z))
            + time_norm(times, v_fields, 1.0, NormSpec(s=d / 2 + 1, r=1, band="l", zeta=z, underlined=True))
        )
        assert row.values["Y"] <= (row.values["D"] + background) * (1 + 1e-12)

    def test_monotone_in_horizon(self, lat16, settings):
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 1.0, 9)
        traj_eps = make_compressible_like(lat16, rng, times, settings.eps)
        traj_v = Trajectory(
            times=times, states=[{"v": s["Pu"] * 0.5} for s in traj_eps.states]
        )
        traj_V = Trajectory(
            times=times, states=[{"V": 0.5 * s["Veps"]} for s in traj_eps.states]
        )
        half = compute_functionals(
            traj_eps.restricted(0.5), traj_v.restricted(0.5), traj_V.restricted(0.5), settings
        )
        full = compute_functionals(traj_eps, traj_v, traj_V, settings)
        for key in full.values:
            assert half.values[key] <= full.values[key] * (1 + 1e-12), key


class TestFitterAndVerdicts:
    def test_synthetic_slope(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        vals = [e**0.2 for e in eps]
        slope = fit_loglog_slope(eps, vals)
        assert slope == pytest.approx(0.2, abs=1e-6)

    def test_single_eps_flag(self, lat16):
        assert fit_loglog_slope([0.1], [1.0]) is None

    def test_vanishing_verdicts(self):
        from lowmach.experiments import ConvergenceReport

        def make(values):
            rows = [
                DiagnosticsRow(
                    eps=e,
                    t_final=1.0,
                    values={
                        "eps_a_linf_besov": v,
                        "Vdiff_composite": v,
                        "Pudiff_composite": v,
                    },
                )
                for e, v in zip((0.2, 0.1, 0.05), values)
            ]
            return ConvergenceReport(
                config={}, rows=rows, slope=None, slope_flag="ok", verdicts={}
            )

        good = vanishing_limit_check(make([1.0, 0.6, 0.3]))
        assert all(v["pass"] for v in good.values())
        bad = vanishing_limit_check(make([1.0, 1.0, 1.0]))
        assert not any(v["pass"] for v in bad.values())
        assert set(bad) == {"eps_a_linf_besov", "Vdiff_composite", "Pudiff_composite"}


class TestReports:
    def make_report(self):
        from lowmach.experiments import ConvergenceReport

        rows = [
            DiagnosticsRow(eps=0.2, t_final=1.0, values={"X": 1.5, "D": 0.3}),
            DiagnosticsRow(eps=0.1, t_final=1.0, values={"X": 1.2, "D": 0.2}),
        ]
        return ConvergenceReport(
            config={"schema": 1},
            rows=rows,
            slope=0.5,
            slope_flag="ok",
            verdicts={"D": "decreasing"},
        )

    def test_empty_rows_header_only(self, tmp_path):
        from lowmach.experiments import ConvergenceReport

        report = ConvergenceReport(
            config={}, rows=[], slope=None, slope_flag="insufficient-data", verdicts={}
        )
        paths = emit_report(report, str(tmp_path))
        with open(paths["wide"]) as fh:
            lines = fh.read().splitlines()
        assert lines == ["eps,T"]

    def test_column_order_and_round_trip(self, tmp_path):
        report = self.make_report()
        paths = emit_report(report, str(tmp_path))
        with open(paths["wide"]) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["eps", "T", "D", "X"]
        with open(paths["json"]) as fh:
            payload = json.load(fh)
        assert payload["rows"][0]["values"] == report.rows[0].values
        assert payload["verdicts"] == {"D": "decreasing"}


class TestConfig:
    def test_validation(self, lat16):
        with pytest.raises(ValueError):
            ExperimentConfig(lattice=lat16, eps_list=(0.1, 0.2))
        with pytest.raises(ValueError):
            ExperimentConfig(lattice=lat16, theta=0.7)
        with pytest.raises(ValueError):
            ExperimentConfig(lattice=lat16, zeta=-1.0)

    def test_band_overlap_warns_not_raises(self, lat16):
        with pytest.warns(RuntimeWarning, match="medium band is empty"):
            cfg = ExperimentConfig(
                lattice=lat16, zeta=8.0, eta0=0.075, eps_list=(0.2, 0.1)
            )
        assert cfg.issues()

    def test_json_round_trip(self, lat16):
        import warnings

        cfg = ExperimentConfig(
            lattice=lat16, eps_list=(0.2, 0.1), zeta=1.0, eta0=0.4, seed=7
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = ExperimentConfig.from_json(cfg.to_json())
        assert again.eps_list == cfg.eps_list
        assert again.zeta == cfg.zeta
        assert again.seed == cfg.seed
        assert again.lattice == cfg.lattice


def tiny_config(tmp_path, lat=None):
    cfg = ExperimentConfig(
        lattice=lat or LatticeSpec.square(2, 16),
        eps_list=(0.2, 0.1),
        mu=0.05,
        lam=0.05,
        dt=5e-3,
        t_final=0.05,
        sample_stride=2,
        zeta=1.5,
        eta0=0.4,
        amplitude_a=1.0,
        amplitude_u=1.0,
        seed=3,
        out_dir=str(tmp_path),
    )
    return cfg


class TestStudyAndDeterminism:
    def test_live_small_study(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = convergence_study(cfg)
        assert len(report.rows) == 2
        assert report.slope is not None
        for row in report.rows:
            assert row.values["X"] > 0
        paths = emit_report(report, str(tmp_path))
        assert os.path.exists(paths["wide"])

    def test_csv_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path)
        r1 = convergence_study(cfg)
        r2 = convergence_study(cfg)
        p1 = emit_report(r1, os.path.join(str(tmp_path), "run1"))
        p2 = emit_report(r2, os.path.join(str(tmp_path), "run2"))
        with open(p1["wide"], "rb") as fh:
            b1 = fh.read()
        with open(p2["wide"], "rb") as fh:
            b2 = fh.read()
        assert b1 == b2


class TestInvariantSuite:
    def test_all_pass(self):
        results = run_invariant_suite()
        assert results
        for name, ok, detail in results:
            assert ok, f"{name}: {detail}"


class TestCLI:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "lowmach.cli", *args],
            capture_output=True,
            text=True,
        )

    def write_config(self, tmp_path, **overrides):
        cfg = tiny_config(tmp_path)
        payload = cfg.to_json()
        payload["experiment"].update(overrides)
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def test_check_exits_zero(self):
        proc = self.run_cli("check")
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_simulate_and_norms(self, tmp_path):
        path = self.write_config(tmp_path)
        out = os.path.join(str(tmp_path), "sim")
        proc = self.run_cli("simulate", "--config", path, "--out", out, "--eps", "0.2")
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        proc2 = self.run_cli("norms", "--field", summary["checkpoint"])
        assert proc2.returncode == 0, proc2.stderr
        assert "B:s=0" in proc2.stdout

    def test_limit_sim_cli(self, tmp_path):
        path = self.write_config(tmp_path)
        out = os.path.join(str(tmp_path), "lim")
        proc = self.run_cli("limit-sim", "--config", path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["final_v_l2"] > 0
        assert payload["final_V_l2"] > 0
        # norm table over the averaged-state checkpoint (stacked branches)
        proc2 = self.run_cli(
            "norms", "--field", payload["limit"], "--spec", "H:s=0.5"
        )
        assert proc2.returncode == 0, proc2.stderr
        assert "H:s=0.5" in proc2.stdout

    def test_resonances_cli(self, tmp_path):
        path = self.write_config(tmp_path)
        proc = self.run_cli(
            "resonances", "--config", path, "--cutoff", "1", "--out", str(tmp_path)
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        c1 = payload["small_divisors"]["C1"]
        assert c1 == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)

    def test_converge_cli(self, tmp_path):
        path = self.write_config(tmp_path)
        out = os.path.join(str(tmp_path), "study")
        proc = self.run_cli("converge", "--config", path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(out, "report.csv"))

    def test_converge_threads_matches_sequential(self, tmp_path):
        path = self.write_config(tmp_path)
        out1 = os.path.join(str(tmp_path), "seq")
        out2 = os.path.join(str(tmp_path), "par")
        p1 = self.run_cli("converge", "--config", path, "--out", out1)
        p2 = self.run_cli("converge", "--config", path, "--out", out2, "--threads", "2")
        assert p1.returncode == 0, p1.stderr
        assert p2.returncode == 0, p2.stderr
        for name in ("report.csv", "report_long.csv"):
            with open(os.path.join(out1, name), "rb") as fh:
                seq = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                par = fh.read()
            assert seq == par, name
        with open(os.path.join(out1, "report.json")) as fh:
            seq_json = json.load(fh)
        with open(os.path.join(out2, "report.json")) as fh:
            par_json = json.load(fh)
        eps_keys = {f"eps_{eps:g}" for eps in seq_json["config"]["experiment"]["eps"]}
        assert len(eps_keys) == 2
        assert {k for k in par_json["timings"] if k.startswith("eps_")} == eps_keys
        assert all(par_json["timings"][k] > 0 for k in eps_keys)
        assert set(seq_json["timings"]) == eps_keys | {"incompressible", "limit"}
        for key in ("rows", "slope_W_theta", "slope_flag", "verdicts"):
            assert par_json[key] == seq_json[key], key

    def test_threads_only_on_converge(self, tmp_path):
        path = self.write_config(tmp_path)
        proc = self.run_cli(
            "simulate", "--config", path, "--out", str(tmp_path), "--threads", "2"
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --threads" in proc.stderr

    def test_vacuum_abort_exit_code(self, tmp_path):
        # enormous data at eps = 1 drives the density to vacuum immediately
        path = self.write_config(tmp_path, amplitude_a=500.0, amplitude_u=500.0, eps=[1.0])
        proc = self.run_cli("simulate", "--config", path, "--out", str(tmp_path))
        assert proc.returncode == 3
        assert "aborted" in proc.stderr

    def test_invalid_config_exit_code(self, tmp_path):
        path = os.path.join(str(tmp_path), "bad.json")
        with open(path, "w") as fh:
            json.dump({"schema": 99}, fh)
        proc = self.run_cli("check", "--config", path)
        assert proc.returncode == 2
