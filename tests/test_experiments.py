"""Functional assembly, sweep report, determinism, and CLI tests."""

import concurrent.futures
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lowmach.dyadic import (
    DEFAULT_PROFILE,
    BlockEnergies,
    NormSpec,
    block_energies,
    block_range,
    chemin_lerner_norm,
    norm,
    parse_norm_spec,
    time_norm,
)
from lowmach import experiments, resonance
from lowmach.cli import main
from lowmach.experiments import (
    ExperimentConfig,
    convergence_study,
    emit_report,
    fit_loglog_slope,
    limit_initial_data,
    run_invariant_suite,
    vanishing_limit_check,
)
from lowmach.functionals import (
    DiagnosticsRow,
    FunctionalSettings,
    compute_functionals,
    sample_energies,
)
from lowmach.lattice import LatticeSpec, SpectralField
from lowmach.operators import (
    AcousticCoeffs,
    acoustic_transform,
    helmholtz_project,
    wave_group,
)
from lowmach.solvers import (
    CompressibleStepper,
    Forcing,
    ForcingMode,
    LimitStepper,
    SolverConfig,
    generate_initial_data,
    load_checkpoint,
    run_trajectory,
    save_checkpoint,
)
from oracles import SampledRun, bridge_constant, full, hermitian_defect

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_states(lattice, rng, times):
    """Random compressible states (a, u), one per sample time."""
    return [
        generate_initial_data(lattice, 1.0, 1.0, seed=int(rng.integers(0, 2**31)))
        for _ in times
    ]


def filtered_parts(state, t, eps):
    """Pu and the filtered state Veps = L(-t/eps)(a, Qu) of a compressible
    state (a, u) at time ``t``."""
    a, u = state
    pu = helmholtz_project(u, "P")
    return pu, wave_group(acoustic_transform(a, u - pu, check=False), -t / eps)


# the series of the rows of a sample_energies array, in order
SERIES = ("a", "Qu", "Pu", "Vdiff", "udiff")


def halves(fields):
    """The coefficients of fields, the half spectra that the steppers store."""
    return tuple(f.coeffs for f in fields)


def functionals_of(times, states, vs, Vs, settings):
    """compute_functionals on the sample_energies rows of aligned samples."""
    lattice = vs[0].lattice
    rows = [
        sample_energies(lattice, halves(s), halves((v, V)), t, settings.eps, settings.theta)
        for t, s, v, V in zip(times, states, vs, Vs)
    ]
    return compute_functionals(lattice, times, np.stack(rows, axis=1), settings)


@pytest.fixture
def settings():
    return FunctionalSettings(eps=0.1, zeta=2.0, eta0=0.5, theta=0.25)


class TestFunctionals:
    def test_all_zero_trajectories(self, lat16, settings):
        times = np.linspace(0.0, 1.0, 5)
        zs, zv = SpectralField.zeros(lat16), SpectralField.zeros(lat16, 2)
        states = [(zs, zv)] * len(times)
        zero_V = [AcousticCoeffs.zeros(lat16)] * len(times)
        row = functionals_of(times, states, [zv] * len(times), zero_V, settings)
        assert "W_theta_scaled" in row.values  # the row is whole where it is computed
        for name, value in row.values.items():
            assert value == 0.0, name

    def test_rows_match_times(self, lat16, settings):
        rows = np.zeros((len(SERIES), 3, 1))
        with pytest.raises(ValueError, match="3 sample rows for 4 sample times"):
            compute_functionals(lat16, np.linspace(0.0, 1.0, 4), rows, settings)

    def test_identical_trajectories_zero_differences(self, lat16, settings):
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 0.5, 4)
        states = random_states(lat16, rng, times)
        vs, Vs = zip(*(filtered_parts(s, t, settings.eps) for s, t in zip(states, times)))
        row = functionals_of(times, states, vs, Vs, settings)
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
        states = random_states(lat16, rng, times)
        v_fields = [helmholtz_project(u, "P") * 0.7 for _, u in states]
        V_fields = [0.6 * filtered_parts(s, t, settings.eps)[1] for s, t in zip(states, times)]
        row = functionals_of(times, states, v_fields, V_fields, settings)
        d = lat16.d
        z = settings.zeta
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
        states = random_states(lat16, rng, times)
        parts = [filtered_parts(s, t, settings.eps) for s, t in zip(states, times)]
        vs = [pu * 0.5 for pu, _ in parts]
        Vs = [0.5 * veps for _, veps in parts]
        half = functionals_of(times[:5], states[:5], vs[:5], Vs[:5], settings)  # t <= 0.5
        full = functionals_of(times, states, vs, Vs, settings)
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

    @pytest.mark.parametrize(
        "make, overrides, message",
        [
            (SolverConfig, {"t_final": math.inf}, "config field t_final must be finite"),
            (SolverConfig, {"dt": math.nan}, "config field dt must be finite"),
            (SolverConfig, {"mu": math.inf}, "config field mu must be finite"),
            (SolverConfig, {"gamma": math.inf}, "config field gamma must be finite"),
            (SolverConfig, {"sample_stride": 1.5}, "field sample_stride must be an integer"),
            # finite, but t_final/dt overflows to inf
            (SolverConfig, {"dt": 1e-300, "t_final": 1e10}, "does not divide"),
            (ExperimentConfig, {"amplitude_a": math.nan}, "experiment.amplitude_a must be finite"),
            (ExperimentConfig, {"zeta": math.inf}, "config field experiment.zeta must be finite"),
            (ExperimentConfig, {"eta0": math.inf}, "config field experiment.eta0 must be finite"),
            (ExperimentConfig, {"seed": 1.5}, "config field experiment.seed must be an integer"),
            # checked before any comparison, which would raise a bare TypeError
            (SolverConfig, {"mu": "0.1"}, "config field mu must be a number, got '0.1'"),
            (SolverConfig, {"eps": "0.1"}, "config field eps must be a number, got '0.1'"),
            (SolverConfig, {"gamma": "2"}, "config field gamma must be a number, got '2'"),
            (ExperimentConfig, {"theta": "0.2"}, "config field experiment.theta must be a number"),
            (ExperimentConfig, {"zeta": "8"}, "config field experiment.zeta must be a number"),
            (ExperimentConfig, {"eps_list": 0.1}, "config field experiment.eps must be a list"),
        ],
    )
    def test_python_api_rejects_bad_numbers(self, lat16, make, overrides, message):
        """A config built in Python checks its numbers as a JSON config's
        are checked, naming the field of each bad value."""
        with pytest.raises(ValueError, match=message):
            make(lattice=lat16, **overrides)

    def test_numbers_are_stored_converted(self, lat16):
        """An integer given in Python is stored as the float that a JSON round
        trip reads, so the config and its round trip write the same JSON."""
        cfg = ExperimentConfig(lattice=lat16, mu=1, eps_list=[1, 0.5], eta0=1, zeta=0.5)
        assert type(cfg.mu) is float and type(cfg.eta0) is float
        assert all(type(eps) is float for eps in cfg.eps_list)
        data = cfg.to_json()
        assert data["solver"]["mu"] == 1.0 and type(data["solver"]["mu"]) is float
        assert ExperimentConfig.from_json(json.loads(json.dumps(data))).to_json() == data
        assert type(SolverConfig(lattice=lat16, dt=1, t_final=2).dt) is float

    def test_eps_list_is_stored_as_a_tuple(self):
        listed = dataclasses.replace(tiny_config(), eps_list=[0.2, 0.1])
        assert listed == tiny_config() and hash(listed) == hash(tiny_config())
        assert listed.eps_list == (0.2, 0.1)
        with pytest.raises(AttributeError):
            listed.eps_list.append(0.5)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"eps_list": (0.2, 0.1, -0.1)}, "Mach number must lie in"),
            ({"eps_list": (1.5, 0.1)}, "Mach number must lie in"),
            ({"mu": -0.05}, "viscosities"),
            ({"lam": -1.0}, "viscosities"),
            ({"dt": 0.0}, "dt and t_final must be positive"),
            ({"t_final": -1.0}, "dt and t_final must be positive"),
            ({"dt": 0.3}, "does not divide"),
            ({"sample_stride": 0}, "sample_stride"),
            ({"gamma": 0.0}, "gamma must be positive"),
            ({"gamma": -1.4}, "gamma must be positive"),
            ({"eta0": 0.0}, "eta0 must be positive"),
            ({"eta0": -0.1}, "eta0 must be positive"),
            # a "json" entry edits the sections of a config file instead;
            # None deletes the key
            ({"json": {"experiment": {"eta0": "0.1"}}}, "experiment.eta0 must be a number"),
            ({"json": {"experiment": {"eps": 0.1}}}, "experiment.eps must be a list"),
            ({"json": {"experiment": {"eps": ["0.1"]}}}, "experiment.eps must be a number"),
            ({"json": {"lattice": {"resolution": None}}}, "lacks 'resolution'"),
            ({"json": {"lattice": {"periods": [1, 1]}}}, "config field lattice is malformed"),
            (
                {"json": {"lattice": {"periods": [[1, 0], [1, 1]]}}},
                "config field lattice is malformed: periods",
            ),
            (
                {"json": {"lattice": {"dealias_fraction": [2, 0]}}},
                "config field lattice is malformed: dealias_fraction",
            ),
            (
                {"json": {"lattice": {"resolution": "ab"}}},
                "config field lattice is malformed: resolution",
            ),
            ({"json": {"solver": {"dtt": 0.1}}}, r"unknown config keys: solver\.dtt"),
            ({"json": {"experimnt": {"zeta": 1.0}}}, "unknown config keys: experimnt"),
            (
                {"json": {"lattice": {"d": 3}}},
                "config field lattice is malformed: d is 3, not the number of periods, 2",
            ),
            # inviscid: the default eta0 = nu/2 would be 0
            ({"mu": 0.0, "lam": 0.0, "eta0": None}, "experiment.eta0 must be given"),
            (
                {"json": {"solver": {"mu": 0.0, "lambda": 0.0}, "experiment": {"eta0": None}}},
                "experiment.eta0 must be given",
            ),
            # the file's "lambda" is the solver's lam
            ({"json": {"solver": {"lambda": -1.0}}}, "viscosities"),
            # json.load reads NaN, Infinity and -Infinity as floats
            ({"json": {"solver": {"mu": math.nan}}}, "solver.mu must be finite, got nan"),
            ({"json": {"solver": {"mu": math.inf}}}, "solver.mu must be finite, got inf"),
            ({"json": {"solver": {"lambda": math.nan}}}, "solver.lambda must be finite"),
            ({"json": {"solver": {"dt": math.nan}}}, "solver.dt must be finite"),
            ({"json": {"experiment": {"zeta": math.nan}}}, "experiment.zeta must be finite"),
            ({"json": {"experiment": {"amplitude_a": math.nan}}}, "amplitude_a must be finite"),
            ({"json": {"experiment": {"amplitude_u": -math.inf}}}, "amplitude_u must be finite"),
            ({"json": {"experiment": {"smoothness": math.nan}}}, "smoothness must be finite"),
            ({"json": {"experiment": {"eps": [0.2, math.nan]}}}, "experiment.eps must be finite"),
            ({"json": {"experiment": {"eta0": math.inf}}}, "experiment.eta0 must be finite"),
            ({"zeta": math.nan}, "config field experiment.zeta must be finite, got nan"),
            # a JSON integer beyond the float range
            ({"json": {"solver": {"mu": 10**400}}}, "solver.mu is too large for a float"),
            # every forcing number is read like the numbers above
            (
                {"json": {"forcing": [{"mode": [1, 0], "amplitude": [[math.nan, 0], [0, 0]]}]}},
                r"forcing\[0\]\.amplitude must be finite, got nan",
            ),
            (
                {
                    "json": {
                        "forcing": [
                            {"mode": [0, 1], "amplitude": [[0.5, 0], [0, 0]]},
                            {
                                "mode": [1, 0],
                                "amplitude": [[1, 0], [0, 0]],
                                "envelope": "cos",
                                "omega": math.nan,
                            },
                        ]
                    }
                },
                r"forcing\[1\]\.omega must be finite, got nan",
            ),
            (
                {"json": {"forcing": [{"mode": [1.5, 0], "amplitude": [[1, 0], [0, 0]]}]}},
                r"forcing\[0\]\.mode must be an integer, got 1.5",
            ),
            (
                {"json": {"forcing": [{"mode": [True, 0], "amplitude": [[1, 0], [0, 0]]}]}},
                r"forcing\[0\]\.mode must be an integer, got True",
            ),
            ({"json": {"forcing": {}}}, r"config field forcing must be a list, got \{\}"),
            ({"json": {"forcing": 0}}, "config field forcing must be a list, got 0"),
            ({"json": {"forcing": False}}, "config field forcing must be a list, got False"),
            ({"json": {"forcing": ""}}, "config field forcing must be a list, got ''"),
            # a forcing entry has no keys but its four
            (
                {
                    "json": {
                        "forcing": [
                            {
                                "mode": [1, 0],
                                "amplitude": [[1, 0], [0, 0]],
                                "envelope": "cos",
                                "omgea": 3.0,
                            }
                        ]
                    }
                },
                r"unknown config keys: forcing\[0\]\.omgea$",
            ),
            (
                {
                    "json": {
                        "forcing": [
                            {"mode": [0, 1], "amplitude": [[0.5, 0], [0, 0]]},
                            {"mode": [1, 0], "amplitude": [[1, 0], [0, 0]], "phase": 0, "Mode": 1},
                        ]
                    }
                },
                r"unknown config keys: forcing\[1\]\.Mode, forcing\[1\]\.phase$",
            ),
            (
                {"json": {"lattice": {"dealias_fraction": [1, 2]}}},
                r"config field lattice is malformed: dealias_fraction is \[1, 2\], not \[2, 3\]",
            ),
            # a NaN given in Python is named before any comparison reads it
            ({"mu": math.nan}, "config field solver.mu must be finite, got nan"),
        ],
    )
    def test_rejected_at_load(self, tmp_path, lat16, overrides, message):
        if "json" not in overrides:
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(lattice=lat16, **overrides)
            return
        payload = edited_config_json(overrides["json"])
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(payload)

    def test_solver_settings_are_config_settings(self):
        """Every SolverConfig field but the Mach number is an ExperimentConfig
        field, and solver_config passes it through unchanged: a run has no
        setting that a config cannot express."""
        solver = {f.name for f in dataclasses.fields(SolverConfig)}
        experiment = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert solver - experiment == {"eps"}
        # no field at SolverConfig's default, so that a dropped one shows
        cfg = dataclasses.replace(oracle_case("cos-forcing"), gamma=1.4, sample_stride=4)
        for eps in cfg.eps_list:
            run = cfg.solver_config(eps)
            assert run.eps == eps
            for name in solver - {"eps"}:
                assert getattr(run, name) == getattr(cfg, name), name

    def test_defaults_from_the_dataclass(self, lat16):
        loaded = ExperimentConfig.from_json({"schema": 1, "lattice": lat16.descriptor()})
        assert loaded == ExperimentConfig(lattice=lat16)

    def test_band_overlap_warns_not_raises(self, lat16):
        """An empty medium band is a warning of the sweep, which reads the
        bands, not of loading the config; the sweep runs to its end."""
        cfg = ExperimentConfig(
            lattice=lat16, zeta=8.0, eta0=0.075, eps_list=(0.2, 0.1), dt=5e-3, t_final=0.02
        )
        assert cfg.issues()
        with pytest.warns(RuntimeWarning, match="medium band is empty"):
            report = convergence_study(cfg)
        assert len(report.rows) == 2

    @pytest.mark.parametrize(
        "path",
        [
            "configs/desk.json",
            "configs/sweep64.json",
            "bench/workloads/compressible128.json",
            "bench/workloads/sweep3d.json",
            "forced",
        ],
    )
    def test_json_round_trip(self, path):
        if path == "forced":
            cfg = oracle_case("cos-forcing")
            assert cfg.forcing is not None
        else:
            cfg = ExperimentConfig.load(os.path.join(REPO, path))
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg and hash(again) == hash(cfg)


def tiny_config():
    return ExperimentConfig(
        lattice=LatticeSpec.square(2, 16),
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
    )


def edited_config_json(edits):
    """The JSON of ``tiny_config`` with ``{section: {key: value}}`` applied;
    a value of None deletes the key, and a ``forcing`` edit replaces the
    forcing list whole."""
    payload = tiny_config().to_json()
    for section, changes in edits.items():
        if section == "forcing":
            payload[section] = changes
            continue
        for key, value in changes.items():
            if value is None:
                del payload[section][key]
            else:
                payload.setdefault(section, {})[key] = value
    return payload


class TestStudyAndDeterminism:
    def test_live_small_study(self, tmp_path):
        cfg = tiny_config()
        report = convergence_study(cfg)
        assert len(report.rows) == 2
        assert report.slope is not None and report.slope_flag == "ok"
        for row in report.rows:
            assert row.values["X"] > 0
        paths = emit_report(report, str(tmp_path))
        assert os.path.exists(paths["wide"])

    def test_slope_flag_follows_the_fit(self):
        """Zero data give W_theta = 0 at every Mach number, which has no
        log-log slope: the flag says so, though there are two Mach numbers."""
        cfg = dataclasses.replace(tiny_config(), amplitude_a=0.0, amplitude_u=0.0)
        report = convergence_study(cfg)
        assert report.row_values("W_theta") == [0.0, 0.0]
        assert report.slope is None
        assert report.slope_flag == "insufficient-data"

    def test_csv_byte_identical(self, tmp_path):
        cfg = tiny_config()
        r1 = convergence_study(cfg)
        r2 = convergence_study(cfg)
        p1 = emit_report(r1, os.path.join(str(tmp_path), "run1"))
        p2 = emit_report(r2, os.path.join(str(tmp_path), "run2"))
        with open(p1["wide"], "rb") as fh:
            b1 = fh.read()
        with open(p2["wide"], "rb") as fh:
            b2 = fh.read()
        assert b1 == b2


class TestSharedStage:
    def test_pool_steps_one_limit_pair_per_worker(self, tmp_path, monkeypatch):
        """A pooled sweep starts at most one worker per Mach number.  Each
        worker steps one limit pair beside its Mach numbers, and this process
        steps none."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the logging wrapper reaches the workers only through fork")
        log = os.path.join(str(tmp_path), "steppers.log")

        def logged(cls):
            class Logged(cls):
                def __init__(self, cfg, *args):
                    with open(log, "a") as fh:
                        fh.write(f"{os.getpid()} {cls.__name__} {cfg.eps}\n")
                    super().__init__(cfg, *args)

            return Logged

        pool_sizes = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pool_sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(experiments, "LimitStepper", logged(LimitStepper))
        monkeypatch.setattr(experiments, "CompressibleStepper", logged(CompressibleStepper))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        cfg = tiny_config()
        convergence_study(cfg, threads=4)
        assert pool_sizes == [len(cfg.eps_list)] == [2]
        with open(log) as fh:
            steppers = [line.split() for line in fh]
        assert str(os.getpid()) not in {pid for pid, _, _ in steppers}
        assert sorted(eps for _, name, eps in steppers if name == "CompressibleStepper") == [
            "0.1",
            "0.2",
        ]
        assert [name for _, name, _ in steppers].count("LimitStepper") == pool_sizes[0]
        # one Mach number per worker here, so one limit stepper beside each
        for pid in {pid for pid, _, _ in steppers}:
            names = [name for p, name, _ in steppers if p == pid]
            assert names.count("LimitStepper") == names.count("CompressibleStepper") >= 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_builds_the_limit_table_once(self, tmp_path, monkeypatch, threads):
        """The sweep builds the limit table once, in this process: the pool's
        workers receive it cached with the lattice."""
        if threads > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the logging wrapper reaches the workers only through fork")
        log, build = os.path.join(str(tmp_path), "builds.log"), resonance.build_limit_tables

        def logged(lattice):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(lattice)

        monkeypatch.setattr(resonance, "build_limit_tables", logged)
        convergence_study(tiny_config(), threads=threads)
        with open(log) as fh:
            assert fh.read().split() == [str(os.getpid())]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_report_timings_per_stepper(self, tmp_path, threads):
        cfg = tiny_config()
        paths = emit_report(convergence_study(cfg, threads=threads), str(tmp_path))
        with open(paths["json"]) as fh:
            timings = json.load(fh)["timings"]
        assert set(timings) == {"limit_table", "limit", "eps_0.2", "eps_0.1"}
        assert all(value > 0 for value in timings.values()), timings

    def test_pool_reports_progress_in_eps_order(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(tiny_config().to_json(), fh)
        seq, par = (os.path.join(str(tmp_path), name) for name in ("seq", "par"))
        lines = {}
        for out, threads in ((seq, "1"), (par, "2")):
            args = ["converge", "--config", path, "--out", out, "--threads", threads, "--verbose"]
            assert main(args) == 0
            err = capsys.readouterr().err
            lines[threads] = [line for line in err.splitlines() if line.startswith("[converge]")]
        # both paths report the same lines
        assert lines["1"] == lines["2"] == [
            "[converge] eps = 0.2 done",
            "[converge] eps = 0.1 done",
        ]
        for name in ("report.csv", "report_long.csv"):
            with open(os.path.join(seq, name), "rb") as a, open(os.path.join(par, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_limit_sim_writes_the_stage_finals(self, tmp_path):
        cfg = tiny_config()
        a0, u0 = cfg.initial_data()
        base = cfg.solver_config(0.2)
        stage = SampledRun(limit_initial_data(a0, u0), base, "limit")
        # v's part of the coupled run is the incompressible run, sample by sample
        run_v = SampledRun(helmholtz_project(u0, "P"), base, "incompressible")
        assert stage.times == run_v.times
        assert len(stage.states) == len(run_v.states) == 6
        for (v, _), alone in zip(stage.states, run_v.states):
            assert v.coeffs.tobytes() == alone.coeffs.tobytes()
        v_final, V = stage.final
        assert v_final.coeffs.tobytes() == run_v.final.coeffs.tobytes()
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(cfg.to_json(), fh)
        out = os.path.join(str(tmp_path), "lim")
        assert main(["limit-sim", "--config", path, "--out", out]) == 0
        for name, key, final in (("incompressible", "v", full(v_final)), ("limit", "V", full(V))):
            _, t, arrays, meta = load_checkpoint(os.path.join(out, f"{name}.lmc"))
            assert (t, meta["kind"]) == (cfg.t_final, name)
            np.testing.assert_array_equal(arrays[key], final)


class TestInvariantSuite:
    def test_all_pass(self):
        results = run_invariant_suite()
        assert results
        for name, ok, detail in results:
            assert ok, f"{name}: {detail}"


# report.csv of ``converge --seed 0`` on configs/desk.json with solver.gamma
# set to 1.4, recorded with numpy 2.4: each right-hand side takes the K pass
DESK_GAMMA_1_4_REPORT = (
    "eps,T,D,P,Pudiff_composite,Vdiff_composite,W_theta,W_theta_scaled,X,Y,Z_theta,eps_a_linf_besov,hm_bracket,low_bracket_diff\n"
    "0.2,0.5,2.56516425879105,1.2163773572988341,0.013569432849258881,0.049536659627148344,0.011387868346480267,0.015712179738454103,2.8888330538207674,4.0529403126533,0.02966350182836795,0.20023128587115335,2.550812799997795,0.014351458793255155\n"
    "0.1,0.5,2.1537580135546293,1.2160351245628442,0.008789195805405716,0.033326505927325646,0.007323719797205987,0.011607313650084456,2.9495497348787936,3.6469553984659804,0.020313139692740997,0.1001045291564102,2.1450225483521144,0.008735465202514886\n"
    "0.05,0.5,1.5033386942862819,1.215770496927073,0.004420589678392071,0.02527150161673149,0.0036888807174924546,0.0067158441834999265,2.5870028868034547,2.9999218001604886,0.015536130048383391,0.05005302582483115,1.498202736319747,0.005135957966534811\n"
)


class TestCLI:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "lowmach.cli", *args],
            capture_output=True,
            text=True,
        )

    def write_config(self, tmp_path, **overrides):
        cfg = tiny_config()
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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--config", "nonexist.json"], "No such file or directory: nonexist.json"),
            (["norms", "--field", "nonexist.lmc"], "No such file or directory: nonexist.lmc"),
            (["check", "--config", "{tmp}"], "Is a directory: {tmp}"),
        ],
    )
    def test_unreadable_file_is_a_one_line_message(self, tmp_path, capsys, args, message):
        tmp = str(tmp_path)
        args = [arg.format(tmp=tmp) for arg in args]
        out = os.path.join(tmp, "out")
        if args[0] == "simulate":
            args += ["--out", out]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"invalid input: {message.format(tmp=tmp)}\n"
        assert not os.path.exists(out)

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

    def test_limit_sim_writes_V_on_the_full_grid(self, tmp_path):
        """The limit pair steps V's half spectra; its checkpoint still holds
        V on the full grid, shape (2, *resolution), with Hermitian branches,
        equal to the final state of the same run in process."""
        path = self.write_config(tmp_path)
        out = os.path.join(str(tmp_path), "lim")
        proc = self.run_cli("limit-sim", "--config", path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        lattice, _, arrays, meta = load_checkpoint(os.path.join(out, "limit.lmc"))
        cfg = tiny_config()
        assert meta == {"kind": "limit"} and lattice == cfg.lattice
        assert arrays["V"].shape == (2,) + cfg.lattice.resolution
        run = cfg.solver_config(cfg.eps_list[0])
        _, V = run_trajectory(limit_initial_data(*cfg.initial_data()), run, "limit")
        assert arrays["V"].tobytes() == full(V).astype("<c16").tobytes()
        scale = float(np.max(np.abs(arrays["V"])))
        assert hermitian_defect(lattice, arrays["V"]) <= 1e-12 * scale

    def test_resonances_cli(self, tmp_path):
        path = self.write_config(tmp_path)
        proc = self.run_cli(
            "resonances", "--config", path, "--cutoff", "1", "--out", str(tmp_path)
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        c1 = payload["small_divisors"]["C1"]
        assert c1 == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)

    def test_converge_takes_the_k_pass(self, tmp_path):
        """Every shipped config has gamma = 2, where the compressible
        right-hand side skips its K pass; at gamma = 1.4 the sweep reproduces
        the recorded values.  Values, not bytes: FFT round-off differs
        between numpy versions."""
        with open(os.path.join(REPO, "configs", "desk.json")) as fh:
            payload = json.load(fh)
        payload["solver"]["gamma"] = 1.4
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out = os.path.join(str(tmp_path), "study")
        assert main(["converge", "--config", path, "--out", out, "--seed", "0"]) == 0
        with open(os.path.join(out, "report.csv")) as fh:
            got = list(csv.reader(fh))
        expected = list(csv.reader(DESK_GAMMA_1_4_REPORT.splitlines()))
        assert got[0] == expected[0] and len(got) == len(expected) == 4
        for row, ref in zip(got[1:], expected[1:]):
            assert [float(x) for x in row] == pytest.approx([float(x) for x in ref], rel=1e-9)

    def test_simulate_and_limit_sim_pinned(self, tmp_path, capsys):
        """On configs/desk.json at seed 0, both runs print the recorded
        final norms and write their checkpoints at t_final.  Values, not
        bytes: FFT round-off differs between numpy versions."""
        path = os.path.join(REPO, "configs", "desk.json")
        expected = {
            "simulate": {
                "eps": 0.2,
                "final_a_l2": 0.2775675106574665,
                "final_u_l2": 0.6796206778547392,
                "samples": 51,
                "t_final": 0.5,
            },
            "limit-sim": {"final_V_l2": 0.40360876977154037, "final_v_l2": 0.614349873503252},
        }
        for command, values in expected.items():
            out = os.path.join(str(tmp_path), command)
            assert main([command, "--config", path, "--out", out, "--seed", "0"]) == 0
            printed = json.loads(capsys.readouterr().out)
            paths = [printed.pop(k) for k in ("checkpoint", "incompressible", "limit") if k in printed]
            assert printed.keys() == values.keys()
            for key, value in values.items():
                assert printed[key] == pytest.approx(value, rel=1e-9), key
            assert len(paths) == (1 if command == "simulate" else 2)
            for checkpoint in paths:
                assert load_checkpoint(checkpoint)[1] == pytest.approx(0.5, rel=1e-9)

    def test_norms_pinned(self, tmp_path, capsys):
        """``lowmach norms`` on the simulate checkpoint of configs/desk.json
        at seed 0 prints the recorded values, with the default specs and
        with a p = inf spec, which reads the grid values of each block
        through the inverse transform.  Values, not bytes: FFT round-off
        differs between numpy versions."""
        path = os.path.join(REPO, "configs", "desk.json")
        out = os.path.join(str(tmp_path), "sim")
        assert main(["simulate", "--config", path, "--out", out, "--seed", "0"]) == 0
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        expected = {
            (): {
                ("a", "B:s=0:p=2:r=1"): 0.3972272168251837,
                ("a", "B:s=1:p=2:r=1"): 0.5156423223207063,
                ("a", "H:s=1"): 0.47535258966067095,
                ("u", "B:s=0:p=2:r=1"): 1.1055843866356019,
                ("u", "B:s=1:p=2:r=1"): 1.2464157714052697,
                ("u", "H:s=1"): 0.8304870095134854,
            },
            ("--spec", "B:s=1:p=inf:r=1"): {
                ("a", "B:s=1:p=inf:r=1"): 0.2031908981919466,
                ("u", "B:s=1:p=inf:r=1"): 0.3194645874384472,
            },
        }
        for specs, values in expected.items():
            assert main(["norms", "--field", checkpoint, *specs]) == 0
            header, *lines = capsys.readouterr().out.splitlines()
            assert header == '# t = 0.5, meta = {"eps": 0.2, "kind": "compressible"}'
            printed = {(name, key): float(value) for name, key, value in map(str.split, lines)}
            assert printed.keys() == values.keys()
            for row, value in values.items():
                assert printed[row] == pytest.approx(value, rel=1e-9), row

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
        assert set(seq_json["timings"]) == eps_keys | {"limit_table", "limit"}
        assert set(par_json["timings"]) == set(seq_json["timings"])
        for key in ("rows", "slope_W_theta", "slope_flag", "verdicts"):
            assert par_json[key] == seq_json[key], key

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        path = self.write_config(tmp_path)
        code = main(["converge", "--config", path, "--out", str(tmp_path), "--threads", threads])
        assert code == 2
        assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(str(tmp_path), "report.csv"))

    @pytest.mark.parametrize(
        "entry, message",
        [
            (
                {"mode": [1, 0], "amplitude": [[1.0, 0.0]]},
                "forcing mode (1, 0) has 1 amplitude components, the lattice needs d = 2",
            ),
            (
                {"mode": [1, 0], "amplitude": [[1.0, 0.0]] * 3},
                "forcing mode (1, 0) has 3 amplitude components, the lattice needs d = 2",
            ),
            (
                {"mode": [0, 1], "amplitude": [[1.0, 0.0]] * 2, "envelope": "bogus"},
                "forcing mode (0, 1) has unknown envelope 'bogus'",
            ),
            (
                {"amplitude": [[1.0, 0.0]] * 2},
                "config field forcing[0] is malformed: KeyError('mode')",
            ),
            (
                {"mode": [1, 0], "amplitude": 1.0},
                "config field forcing[0] is malformed: TypeError(",
            ),
            (
                {"mode": [1, 0], "amplitude": [[1.0, 0.0]] * 2, "envelope": "cos", "omega": math.nan},
                "config field forcing[0].omega must be finite, got nan",
            ),
            (
                {"mode": [1, 0], "amplitude": [[1.0, 0.0]] * 2, "envelope": "cos", "omgea": 3.0},
                "unknown config keys: forcing[0].omgea",
            ),
            # exp(20000 * 0.05) overflows before the config's t_final
            (
                {"mode": [1, 0], "amplitude": [[1.0, 0.0]] * 2, "envelope": "exp", "omega": -2e4},
                "forcing mode (1, 0): the exp envelope with omega = -20000.0 overflows before "
                "t_final = 0.05",
            ),
        ],
    )
    def test_bad_forcing_rejected_at_load(self, tmp_path, capsys, entry, message):
        payload = tiny_config().to_json()
        payload["forcing"] = [entry]
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_json(payload)
        assert message in str(info.value)
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out = os.path.join(str(tmp_path), "sim")
        assert main(["simulate", "--config", path, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

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

    @pytest.mark.parametrize("command", ["simulate", "limit-sim"])
    def test_cfl_abort_exit_code(self, tmp_path, capsys, command):
        # the desk config with large velocities: dt = 5e-3 breaks the CFL bound
        # of u, and of its divergence-free part v, at the first step
        with open(os.path.join(REPO, "configs", "desk.json")) as fh:
            payload = json.load(fh)
        payload["experiment"]["amplitude_u"] = 400.0
        payload["solver"]["dt"] = 5e-3
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out = os.path.join(str(tmp_path), "out")
        assert main([command, "--config", path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "aborted: dt = 5.000e-03 exceeds advective CFL bound" in err
        assert not os.path.exists(out)

    def test_inviscid_config_without_eta0_rejected(self, tmp_path, capsys):
        payload = edited_config_json({"solver": {"mu": 0.0, "lambda": 0.0}})
        payload["experiment"]["eta0"] = None
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out = os.path.join(str(tmp_path), "sweep")
        assert main(["converge", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid input: config field experiment.eta0 must be given" in err
        assert not os.path.exists(out)
        # an explicit eta0 makes the same inviscid config valid
        payload["experiment"]["eta0"] = 0.4
        assert ExperimentConfig.from_json(payload).eta0_value == 0.4

    @pytest.mark.parametrize(
        "spec", ["H:s=1:band=h:eta=4", "B:s=1:mean=yes", "B:s=1:eta=4"]
    )
    def test_norms_rejects_ignored_spec_fields(self, tmp_path, capsys, spec):
        path = os.path.join(str(tmp_path), "field.lmc")
        a0, _ = generate_initial_data(LatticeSpec.square(2, 16), 1.0, 1.0, seed=3)
        save_checkpoint(path, a0.lattice, 0.0, {"a": a0})
        assert main(["norms", "--field", path, "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input: ")
        assert captured.out == ""

    def test_norms_rejects_a_field_that_is_not_real(self, tmp_path, capsys):
        """A checkpoint field whose coefficients are not Hermitian, here a of
        the simulate checkpoint of configs/desk.json times 1 + i, is not a
        real field: exit 2, with a message that names it, and no table."""
        path = os.path.join(REPO, "configs", "desk.json")
        out = os.path.join(str(tmp_path), "sim")
        assert main(["simulate", "--config", path, "--out", out, "--seed", "0"]) == 0
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        lattice, time, arrays, meta = load_checkpoint(checkpoint)
        edited = os.path.join(str(tmp_path), "edited.lmc")
        fields = {"a": (1 + 1j) * arrays["a"], "u": arrays["u"]}
        save_checkpoint(edited, lattice, time, fields, meta)
        assert main(["norms", "--field", edited]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "invalid input: checkpoint field 'a' is not real: its coefficients are not Hermitian\n"
        )
        assert captured.out == ""
        # the file as written reads back
        assert main(["norms", "--field", checkpoint]) == 0

    def test_negative_mach_number_rejected_before_any_run(self, tmp_path, capsys):
        path = self.write_config(tmp_path, eps=[0.2, 0.1, -0.1])
        out = os.path.join(str(tmp_path), "sweep")
        assert main(["converge", "--config", path, "--out", out]) == 2
        assert "Mach number must lie in (0, 1]" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"experiment": {"eta0": "0.1"}}, "config field experiment.eta0 must be a number"),
            ({"experiment": {"eps": 0.1}}, "config field experiment.eps must be a list"),
            ({"experiment": {"eps": ["0.1"]}}, "config field experiment.eps must be a number"),
            ({"lattice": {"resolution": None}}, "the lattice descriptor lacks 'resolution'"),
            (
                {"lattice": {"periods": [[1, 0], [1, 1]]}},
                "config field lattice is malformed: periods[0] is [1, 0], not a fraction",
            ),
            # json.dump writes the NaN literal that json.load reads back
            ({"solver": {"mu": math.nan}}, "config field solver.mu must be finite, got nan"),
        ],
    )
    def test_malformed_config_rejected(self, tmp_path, capsys, edits, message):
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(edited_config_json(edits), fh)
        out = os.path.join(str(tmp_path), "sim")
        assert main(["simulate", "--config", path, "--out", out]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert main(["check", "--config", path]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["inf", "-1", "nan"])
    def test_resonances_bad_cutoff_rejected(self, tmp_path, capsys, cutoff):
        path = self.write_config(tmp_path)
        out = os.path.join(str(tmp_path), "res")
        assert main(["resonances", "--config", path, "--cutoff", cutoff, "--out", out]) == 2
        message = f"invalid input: cutoff M = {float(cutoff)} must be a finite number >= 0"
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", [["resonances", "--cutoff", "1"], ["converge"]])
    def test_periods_beyond_int64_rejected(self, tmp_path, capsys, command):
        # D*|k|^2 reaches 2.5e21 at the box's edge on the second axis
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(edited_config_json({"lattice": {"periods": [[1, 1], [1, 10**10]]}}), fh)
        out = os.path.join(str(tmp_path), "out")
        assert main([command[0], "--config", path, "--out", out, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err == (
            "invalid input: the scaled norms D*|k|^2 on the lattice with periods "
            "(1, 1/10000000000) exceed the int64 range\n"
        )
        assert not os.path.exists(out)

    def test_invalid_config_exit_code(self, tmp_path):
        path = os.path.join(str(tmp_path), "bad.json")
        with open(path, "w") as fh:
            json.dump({"schema": 99}, fh)
        proc = self.run_cli("check", "--config", path)
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# Per-norm oracle: the functional assembly before block energies, where every
# norm recomputes the mode powers of every sample
# ---------------------------------------------------------------------------

_INF = float("inf")


def _full_power(field):
    """|c_k|^2 per mode of the full coefficient grid, summed over components."""
    return np.sum(np.abs(full(field)) ** 2, axis=0)


def _oracle_power(obj):
    if isinstance(obj, tuple):
        return sum(_full_power(o) for o in obj)
    return _full_power(obj)


def _oracle_mean_l2(obj):
    if isinstance(obj, tuple):
        return math.sqrt(sum(_oracle_mean_l2(o) ** 2 for o in obj))
    return float(np.sqrt(np.sum(np.abs(obj.mean_coefficient()) ** 2)))


def _oracle_ell(terms, r):
    arr = np.asarray(terms, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.max(arr)) if r == _INF else float(np.sum(arr**r) ** (1.0 / r))


def _oracle_lq(times, values, q):
    values = np.asarray(values, dtype=np.float64)
    if q == _INF:
        return float(np.max(values))
    return float(np.sum(np.diff(times) * (values[1:] ** q + values[:-1] ** q) / 2.0) ** (1.0 / q))


def _oracle_block_norm(lattice, power, j):
    weights = DEFAULT_PROFILE(np.ldexp(lattice.k_modulus(), -j))
    return math.sqrt(float(np.sum(weights**2 * power)))


def _oracle_norm(obj, spec):
    lattice = (obj[0] if isinstance(obj, tuple) else obj).lattice
    power = _oracle_power(obj)
    if spec.kind == "H":
        ksq = lattice.k_squared()
        weights = np.zeros_like(ksq)
        weights[ksq > 0] = ksq[ksq > 0] ** spec.s
        total = float(np.sum(weights * power))
        if not spec.underlined:
            total += _oracle_mean_l2(obj) ** 2
        return math.sqrt(total)
    terms = [
        2.0 ** (j * spec.s) * _oracle_block_norm(lattice, power, j)
        for j in block_range(lattice)
        if spec.block_active(j)
    ]
    if spec.includes_mean:
        terms.append(_oracle_mean_l2(obj))
    return _oracle_ell(terms, spec.r)


def _oracle_time_norm(times, fields, q, spec):
    return _oracle_lq(times, [_oracle_norm(f, spec) for f in fields], q)


def _oracle_cl_norm(times, fields, q, spec):
    if spec.kind == "H":
        spec = NormSpec(kind="B", s=spec.s, p=2, r=2, underlined=spec.underlined)
    lattice = (fields[0][0] if isinstance(fields[0], tuple) else fields[0]).lattice
    powers = [_oracle_power(f) for f in fields]
    terms = [
        2.0 ** (j * spec.s) * _oracle_lq(times, [_oracle_block_norm(lattice, p, j) for p in powers], q)
        for j in block_range(lattice)
        if spec.block_active(j)
    ]
    if spec.includes_mean:
        terms.append(_oracle_lq(times, [_oracle_mean_l2(f) for f in fields], q))
    return _oracle_ell(terms, spec.r)


def _b(s, band="full", eta=None, zeta=None, underlined=False):
    return NormSpec(s=s, r=1, band=band, eta=eta, zeta=zeta, underlined=underlined)


def oracle_functionals(traj_eps, traj_limit, fs):
    """The eleven functionals, norm by norm from the sampled fields and the
    (v, V) samples of the limit run."""
    times = np.asarray(traj_eps.times)
    a = [a for a, _ in traj_eps.states]
    pu, veps = zip(*(filtered_parts(s, t, fs.eps) for s, t in zip(traj_eps.states, times)))
    qu = [u - p for (_, u), p in zip(traj_eps.states, pu)]
    pairs = list(zip(a, qu))
    vs, Vs = zip(*traj_limit.states)
    vdiff = [ve - V for ve, V in zip(veps, Vs)]
    udiff = [p - v for p, v in zip(pu, vs)]
    d = a[0].lattice.d
    hi, eps, zeta, theta = fs.high_cut, fs.eps, fs.zeta, fs.theta
    cl = lambda fields, q, spec: _oracle_cl_norm(times, fields, q, spec)
    tn = lambda fields, q, spec: _oracle_time_norm(times, fields, q, spec)

    def low_bracket(w, u):
        return (
            cl(w, _INF, _b(d / 2 - 1, "l", zeta=zeta))
            + cl(w, 2.0, _b(d / 2, "l", zeta=zeta))
            + cl(u, _INF, _b(d / 2 - 1, "l", zeta=zeta))
            + tn(u, 1.0, _b(d / 2 + 1, "l", zeta=zeta, underlined=True))
        )

    high_a = eps * cl(a, _INF, _b(d / 2, "h", eta=hi)) + tn(a, 1.0, _b(d / 2, "h", eta=hi)) / eps
    x_val = (
        high_a
        + cl(a, _INF, _b(d / 2 - 1, "l", zeta=hi))
        + tn(a, 1.0, _b(d / 2 + 1, "l", zeta=hi))
        + cl(qu, _INF, _b(d / 2 - 1))
        + tn(qu, 1.0, _b(d / 2 + 1))
    )
    hm = (
        eps * cl(a, _INF, _b(d / 2))
        + high_a
        + cl(qu, _INF, _b(d / 2 - 1, "h", eta=hi))
        + tn(qu, 1.0, _b(d / 2 + 1, "h", eta=hi))
        + cl(pu, _INF, _b(d / 2 - 1, "h", eta=zeta))
        + tn(pu, 1.0, _b(d / 2 + 1, "h", eta=zeta))
    )
    if fs.medium_band_nonempty():
        hm += cl(pairs, _INF, _b(d / 2 - 1, "m", zeta=zeta, eta=hi))
        hm += tn(pairs, 1.0, _b(d / 2 + 1, "m", zeta=zeta, eta=hi))
    low_diff = low_bracket(vdiff, udiff)
    return {
        "X": x_val,
        "P": cl(pu, _INF, _b(d / 2 - 1)) + tn(pu, 1.0, _b(d / 2 + 1, underlined=True)),
        "D": hm + low_diff,
        "Y": hm + low_bracket(pairs, pu),
        "Z_theta": cl(vdiff, _INF, NormSpec(kind="H", s=d / 2 - 1 - theta))
        + tn(vdiff, 2.0, NormSpec(kind="H", s=d / 2 - theta)),
        "W_theta": cl(udiff, _INF, _b(d / 2 - 1 - theta))
        + tn(udiff, 1.0, _b(d / 2 + 1 - theta, underlined=True)),
        "eps_a_linf_besov": eps * cl(a, _INF, _b(d / 2)),
        "Vdiff_composite": cl(vdiff, _INF, _b(d / 2 - 1)) + cl(vdiff, 2.0, _b(d / 2)),
        "Pudiff_composite": cl(udiff, _INF, _b(d / 2 - 1))
        + tn(udiff, 1.0, _b(d / 2 + 1, underlined=True)),
        "hm_bracket": hm,
        "low_bracket_diff": low_diff,
    }


def oracle_case(name):
    lattices = {
        "16x16": LatticeSpec.square(2, 16),
        "16x12-periods-1-3/2": LatticeSpec(periods=(1, Fraction(3, 2)), resolution=(16, 12)),
        "3d-8": LatticeSpec.square(3, 8),
    }
    lattice = lattices.get(name, LatticeSpec.square(2, 16))
    forcing = None
    if name == "cos-forcing":
        mode = ForcingMode(mode=(1, 2), amplitude=(0.3, -0.2j), envelope="cos", omega=7.0)
        forcing = Forcing(lattice, [mode])
    # zeta 8, eta0 0.075 leave the medium band empty, as in configs/sweep64.json
    zeta, eta0 = (1.5, 0.4) if name == "medium-band" else (8.0, 0.075)
    return ExperimentConfig(
        lattice=lattice,
        eps_list=(0.2, 0.1),
        dt=5e-3,
        t_final=0.04,
        sample_stride=2,
        zeta=zeta,
        eta0=eta0,
        amplitude_a=1.0,
        amplitude_u=1.0,
        seed=4,
        forcing=forcing,
    )


def study_with_issues(cfg):
    """``convergence_study(cfg)``, whose warnings must be the config's
    issues, one per Mach number whose medium band is empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = convergence_study(cfg)
    assert [str(w.message) for w in caught] == cfg.issues()
    return report


def full_trajectories(cfg):
    """Trajectories of whole states per Mach number, built as the sweep builds them."""
    a0, u0 = generate_initial_data(
        cfg.lattice, cfg.amplitude_a, cfg.amplitude_u, cfg.smoothness, cfg.seed
    )
    v0 = helmholtz_project(u0, "P")
    base = cfg.solver_config(cfg.eps_list[0])
    V0 = acoustic_transform(a0, u0 - v0)
    traj_limit = SampledRun((v0, V0), base, "limit")
    for eps in cfg.eps_list:
        traj_eps = SampledRun((a0, u0), cfg.solver_config(eps), "compressible")
        yield eps, traj_eps, traj_limit


class TestBlockEnergyPath:
    """The block-energy functionals against the per-norm oracle."""

    CASES = ["16x16", "16x12-periods-1-3/2", "3d-8", "medium-band", "cos-forcing"]

    @pytest.mark.parametrize("case", CASES)
    def test_against_oracle(self, case):
        cfg = oracle_case(case)
        if case == "medium-band":
            assert any(band["medium"] for band in cfg.bands())
        study = study_with_issues(cfg)
        for (eps, traj_eps, traj_limit), streamed in zip(full_trajectories(cfg), study.rows):
            settings = cfg.functional_settings(eps)
            expected = oracle_functionals(traj_eps, traj_limit, settings)
            assert len(expected) == 11
            for key, value in expected.items():
                assert value > 0, key
                assert streamed.values[key] == pytest.approx(value, rel=1e-13, abs=0), key

    def test_bundle_rows_add(self, lat16):
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=5)
        qu = helmholtz_project(u0, "Q")
        summed = block_energies(a0, (0.75,)) + block_energies(qu, (0.75,))
        for spec in ("B:s=1:p=2:r=2", "B:s=0.5:r=1:band=h:eta=2", "H:s=0.75"):
            expected = _oracle_norm((a0, qu), parse_norm_spec(spec))
            assert norm(summed, spec) == pytest.approx(expected, rel=1e-13)

    def test_rows_lacking_the_sobolev_order(self, lat16):
        rows = block_energies(generate_initial_data(lat16, 1.0, 1.0)[0])
        with pytest.raises(ValueError, match="Sobolev sum"):
            norm(rows, "H:s=1")


# The full-grid sample path, kept as the oracle of the half-box one: the
# operators on whole coefficient grids, then one sum per row weight.


def reference_energy_weights(lattice, h_orders):
    ksq = lattice.k_squared()
    kmod = lattice.k_modulus()
    weights = [DEFAULT_PROFILE(np.ldexp(kmod, -j)) ** 2 for j in block_range(lattice)]
    weights.append((ksq == 0).astype(np.float64))
    for s in h_orders:
        weights.append(np.zeros_like(ksq))
        weights[-1][ksq > 0] = ksq[ksq > 0] ** s
    return weights


def reference_block_energies(obj, h_orders=()):
    h_orders = tuple(float(s) for s in h_orders)
    weights = reference_energy_weights(obj.lattice, h_orders)
    power = _full_power(obj)
    return BlockEnergies(obj.lattice, h_orders, np.array([np.sum(w * power) for w in weights]))


def reference_sample_energies(state, partner, t, eps, theta):
    (a, u), (v, V) = state, partner
    pu = helmholtz_project(u, "P")
    qu = u - pu
    veps = wave_group(acoustic_transform(a, qu, check=False), -t / eps)
    h_orders = (a.lattice.d / 2 - theta,)
    rows = {
        key: reference_block_energies(f, h_orders)
        for key, f in (("a", a), ("Qu", qu), ("Pu", pu))
    }
    rows["aQu"] = rows["a"] + rows["Qu"]
    rows["Vdiff"] = reference_block_energies(veps - V, h_orders)
    rows["udiff"] = reference_block_energies(pu - v, h_orders)
    return rows


SAMPLE_LATTICES = {
    "16x16": LatticeSpec.square(2, 16),
    "16x12": LatticeSpec((1, Fraction(3, 2)), (16, 12)),
    "8x8x8": LatticeSpec.square(3, 8),
    "8x8x6": LatticeSpec((1, Fraction(1, 2), Fraction(2, 3)), (8, 8, 6)),
    "1d-24": LatticeSpec.square(1, 24),
}


def sample_rows(lattice, rows, theta):
    """A sample_energies array read as one BlockEnergies row per series,
    with the bundle row aQu = a + Qu, keyed as reference_sample_energies."""
    h_orders = (lattice.d / 2 - theta,)
    out = {key: BlockEnergies(lattice, h_orders, row) for key, row in zip(SERIES, rows)}
    out["aQu"] = out["a"] + out["Qu"]
    return out


def assert_rows_close(got, ref, rtol=1e-13):
    """Every entry within ``rtol`` of the reference, relative to that entry."""
    assert got.lattice == ref.lattice and got.h_orders == ref.h_orders
    assert np.all(np.abs(got.values - ref.values) <= rtol * np.abs(ref.values))


class TestHalfBoxSamplePath:
    """``sample_energies`` and ``block_energies`` on the half box against the
    full-grid path."""

    @pytest.mark.parametrize("name", list(SAMPLE_LATTICES))
    @pytest.mark.parametrize("t_over_eps", [0.0, 0.7, 3.0, 250.0])
    def test_sample_energies_match_full_grid(self, name, t_over_eps):
        lattice, eps = SAMPLE_LATTICES[name], 0.05
        t = t_over_eps * eps
        a, u = generate_initial_data(lattice, 1.0, 1.0, seed=31)
        a2, u2 = generate_initial_data(lattice, 1.0, 1.0, seed=32)
        v = helmholtz_project(u2, "P")
        V = wave_group(acoustic_transform(a2, u2 - v), 0.4)
        got = sample_rows(
            lattice, sample_energies(lattice, halves((a, u)), halves((v, V)), t, eps, 0.25), 0.25
        )
        ref = reference_sample_energies((a, u), (v, V), t, eps, 0.25)
        assert got.keys() == ref.keys()
        for key in ref:
            assert_rows_close(got[key], ref[key])
            assert np.any(ref[key].values > 0), key

    @pytest.mark.parametrize("case", ["16x16", "3d-8", "medium-band"])
    def test_sweep_samples_match_full_grid(self, case, monkeypatch):
        """The sweep's per-sample arrays, reduced from the steppers' half
        spectra, against the full-grid rows of each sample's states, stacked
        per series."""
        cfg = dataclasses.replace(oracle_case(case), t_final=0.05)
        seen = {}

        def keep(lattice, times, samples, settings):
            seen[settings.eps] = (list(times), samples.copy())
            return compute_functionals(lattice, times, samples, settings)

        monkeypatch.setattr(experiments, "compute_functionals", keep)
        study_with_issues(cfg)
        assert sorted(seen) == sorted(cfg.eps_list)
        for eps, traj_eps, traj_limit in full_trajectories(cfg):
            times, samples = seen[eps]
            assert times == traj_eps.times == traj_limit.times
            rows = [
                reference_sample_energies(state, partner, t, eps, cfg.theta)
                for t, state, partner in zip(times, traj_eps.states, traj_limit.states)
            ]
            assert samples.shape[:2] == (len(SERIES), len(times))
            for series, key in zip(samples, SERIES):
                ref = np.stack([row[key].values for row in rows])
                assert np.all(np.abs(series - ref) <= 1e-13 * np.abs(ref)), key
                assert np.any(ref > 0), key

    @pytest.mark.parametrize("name", list(SAMPLE_LATTICES))
    def test_block_energies_of_non_hermitian_fields(self, name):
        """Half spectra of random coefficients, whose column 0 is not
        Hermitian along the leading axes, the one part of a half spectrum
        that can break the symmetry: their block energies against the
        full-grid sums of their expansions."""
        lattice = SAMPLE_LATTICES[name]
        rng = np.random.default_rng(33)

        def noise(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        V = AcousticCoeffs(lattice, noise(*lattice.half_shape), noise(*lattice.half_shape))
        w = SpectralField(lattice, noise(3, *lattice.half_shape))
        assert hermitian_defect(lattice, full(w)) > 0.1
        for field in (V, w):
            got = block_energies(field, (0.75, -0.5))
            assert_rows_close(got, reference_block_energies(field, (0.75, -0.5)))

    def test_limit_run_keeps_each_branch_hermitian(self):
        # the half-box path counts the Vdiff power of each mode with n_d > 0
        # for its mirror too; that needs V's branches Hermitian along the run
        cfg = dataclasses.replace(tiny_config(), t_final=0.5)
        initial = limit_initial_data(*cfg.initial_data())
        stage = SampledRun(initial, cfg.solver_config(0.2), "limit")
        assert len(stage.states) == 51
        for _, V in stage.states:
            scale = float(np.max(np.abs(V.coeffs)))
            assert scale > 0
            assert hermitian_defect(V.lattice, full(V)) <= 1e-14 * scale


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    """Memory that must not grow with the number of samples."""

    N_STEPS = 40

    def test_final_state_only_run(self, lat16):
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=0)
        peaks = {}
        for stride in (self.N_STEPS, 1):
            cfg = SolverConfig(
                lattice=lat16,
                eps=0.1,
                mu=0.05,
                lam=0.05,
                dt=5e-3,
                t_final=self.N_STEPS * 5e-3,
                sample_stride=stride,
            )
            peaks[stride] = _peak(lambda: run_trajectory((a0, u0), cfg, "compressible"))
        # forty more samples may cost their time stamps, not one more field
        assert peaks[1] <= peaks[self.N_STEPS] + a0.coeffs.nbytes

        full = SampledRun((a0, u0), cfg, "compressible")
        final = run_trajectory((a0, u0), cfg, "compressible")
        assert len(full.states) == self.N_STEPS + 1
        for got, sampled in zip(final, full.states[-1]):
            np.testing.assert_array_equal(got.coeffs, sampled.coeffs)

    def test_sweep_keeps_rows_not_fields(self):
        """A whole convergence_study on 16², limit table and limit pair
        included: its peak grows by less than one scalar field per extra
        sample, so neither the limit pair's samples nor the compressible ones
        are kept."""
        peaks = {}
        # the first run also holds what its lazy imports and lattice caches
        # allocate, so it is repeated and only the repeat is compared
        for stride in (self.N_STEPS, self.N_STEPS, 1):
            cfg = dataclasses.replace(
                oracle_case("medium-band"), t_final=self.N_STEPS * 5e-3, sample_stride=stride
            )
            peaks[stride] = _peak(lambda: convergence_study(cfg))
        field_bytes = 16 * math.prod(cfg.lattice.resolution)
        extra_samples = self.N_STEPS - 1
        assert peaks[1] - peaks[self.N_STEPS] < extra_samples * field_bytes

    def test_sweep_holds_v_samples_once(self):
        """When the sweep returns, with its report held, the live memory holds
        no (v, V) sample: each extra sample costs less than one scalar field,
        where a stored sample costs seven."""
        live = {}
        # the first run also holds what its lazy imports allocate, so it is
        # repeated and only the repeat is compared
        for stride in (self.N_STEPS, self.N_STEPS, 1):
            cfg = dataclasses.replace(
                oracle_case("medium-band"), t_final=self.N_STEPS * 5e-3, sample_stride=stride
            )
            tracemalloc.start()
            try:
                report = convergence_study(cfg)
                live[stride] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(report.rows) == len(cfg.eps_list)
        field_bytes = 16 * math.prod(cfg.lattice.resolution)
        extra_samples = self.N_STEPS - 1
        assert live[1] - live[self.N_STEPS] < extra_samples * field_bytes


class TestBandOccupancy:
    def test_simulate_on_sweep64_does_not_warn(self, tmp_path, capsys):
        """configs/sweep64.json leaves the medium band empty, but loading it
        and running ``simulate``, which reads no band, warn of nothing."""
        path = os.path.join(REPO, "configs", "sweep64.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = ExperimentConfig.load(path)
            code = main(["simulate", "--config", path, "--out", str(tmp_path), "--seed", "0"])
        assert code == 0 and cfg.issues()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_sweep64_medium_band_empty_and_overlapping(self):
        cfg = ExperimentConfig.load(os.path.join(REPO, "configs", "sweep64.json"))
        bands = cfg.bands()
        assert [band["eps"] for band in bands] == [0.2, 0.1, 0.05, 0.025]
        # eta0/eps is at most 3 < zeta = 8: the high band starts inside the low one
        for band, first_high in zip(bands, (-1, 0, 1, 2)):
            assert band["medium"] == []
            assert band["overlap"] is True
            assert band["low"] == [-1, 0, 1, 2]
            assert band["high"] == list(range(first_high, 6))

    def test_report_json_and_check(self, tmp_path):
        cfg = oracle_case("medium-band")
        report = convergence_study(cfg)
        with open(emit_report(report, str(tmp_path))["json"]) as fh:
            bands = json.load(fh)["bands"]
        assert bands == cfg.bands()
        eps01 = bands[1]
        assert (eps01["eps"], eps01["medium"], eps01["overlap"]) == (0.1, [1], False)
        with open(os.path.join(str(tmp_path), "report.csv")) as fh:
            assert "medium" not in fh.read()

        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w") as fh:
            json.dump(cfg.to_json(), fh)
        proc = subprocess.run(
            [sys.executable, "-m", "lowmach.cli", "check", "--config", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "band  eps=0.1: low [-1, 0] medium [1] high [2, 3] overlap False" in proc.stdout
