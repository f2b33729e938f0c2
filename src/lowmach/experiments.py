"""Experiment configuration, the Mach-number sweep, and report emission."""

from __future__ import annotations

import json
import math
import os
import time as _time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dyadic import NormSpec, block_range, compute_jb, norm
from .functionals import DiagnosticsRow, FunctionalSettings, compute_functionals, sample_energies
from .lattice import (
    GridField,
    LatticeSpec,
    SpectralField,
    forward_transform,
    inverse_transform,
)
from .operators import PressureLaw, acoustic_transform, helmholtz_project, wave_group
from .resonance import build_limit_tables, resonance_test
from .solvers import (
    Forcing,
    SolverConfig,
    Trajectory,
    generate_initial_data,
    run_trajectory,
)

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "SharedStage",
    "convergence_study",
    "shared_stage",
    "vanishing_limit_check",
    "fit_loglog_slope",
    "emit_report",
    "run_invariant_suite",
]

SCHEMA_VERSION = 1


def _config_number(value, name: str, kind=float):
    """``kind(value)`` for a JSON number, an integer where ``kind`` is int;
    ValueError naming the config field otherwise (strings and booleans too)."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config field {name} must be {what}, got {value!r}")
    return kind(value)


# (JSON section, JSON key, ExperimentConfig field, kind) of the numeric settings
_CONFIG_NUMBERS = (
    ("solver", "mu", "mu", float),
    ("solver", "lambda", "lam", float),
    ("solver", "gamma", "gamma", float),
    ("solver", "dt", "dt", float),
    ("solver", "t_final", "t_final", float),
    ("solver", "sample_stride", "sample_stride", int),
    ("experiment", "zeta", "zeta", float),
    ("experiment", "theta", "theta", float),
    ("experiment", "amplitude_a", "amplitude_a", float),
    ("experiment", "amplitude_u", "amplitude_u", float),
    ("experiment", "smoothness", "smoothness", float),
    ("experiment", "seed", "seed", int),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a Mach-number sweep."""

    lattice: LatticeSpec
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    mu: float = 0.05
    lam: float = 0.05
    gamma: float = 2.0
    dt: float = 2.5e-3
    t_final: float = 1.0
    sample_stride: int = 2
    zeta: float = 8.0
    eta0: float | None = None  # defaults to nu/2
    theta: float = 0.25
    amplitude_a: float = 2.0
    amplitude_u: float = 2.0
    smoothness: float = 3.0
    seed: int = 0
    forcing: Forcing | None = None

    def __post_init__(self):
        if not self.eps_list:
            raise ValueError("need at least one Mach number")
        if any(e2 >= e1 for e1, e2 in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("Mach numbers must be strictly descending")
        if not (0 < self.theta < 0.5):
            raise ValueError("theta must lie in (0, 1/2)")
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.eta0 is not None and not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        for eps in self.eps_list:
            self.solver_config(eps)  # runs SolverConfig's checks at load
        if self.eta0 is None and self.nu == 0:
            raise ValueError("config field experiment.eta0 must be given when nu/2 is 0")
        for issue in self.issues():
            warnings.warn(issue, RuntimeWarning)

    @property
    def nu(self) -> float:
        return 2.0 * self.mu + self.lam

    @property
    def eta0_value(self) -> float:
        return 0.5 * self.nu if self.eta0 is None else self.eta0

    def issues(self) -> list[str]:
        """Band-geometry conditions that are assumed by the estimates.

        Violations are reported as warnings rather than errors: the
        functionals remain well-defined (the medium band is simply empty when
        zeta >= eta0/eps).
        """
        out = []
        for eps in self.eps_list:
            if not (self.zeta < self.eta0_value / eps):
                out.append(
                    f"zeta = {self.zeta:g} >= eta0/eps = {self.eta0_value / eps:g} "
                    f"for eps = {eps:g}: medium band is empty"
                )
        return out

    def initial_data(self) -> tuple[SpectralField, SpectralField]:
        """The sweep's initial (a0, u0), drawn with the config's seed."""
        return generate_initial_data(
            self.lattice, self.amplitude_a, self.amplitude_u, self.smoothness, self.seed
        )

    def solver_config(self, eps: float) -> SolverConfig:
        return SolverConfig(
            lattice=self.lattice,
            mu=self.mu,
            lam=self.lam,
            eps=eps,
            law=PressureLaw.gamma_law(self.gamma),
            dt=self.dt,
            t_final=self.t_final,
            forcing=self.forcing,
            sample_stride=self.sample_stride,
        )

    def functional_settings(self, eps: float) -> FunctionalSettings:
        return FunctionalSettings(eps=eps, zeta=self.zeta, eta0=self.eta0_value, theta=self.theta)

    def bands(self) -> list[dict]:
        """Per Mach number, the active blocks of the low (2^j < zeta), medium
        (zeta <= 2^j < eta0/eps) and high (2^j >= eta0/eps) bands, and whether
        low and high share a block."""
        scales = {j: 2.0**j for j in block_range(self.lattice)}
        out = []
        for eps in self.eps_list:
            high_cut = self.functional_settings(eps).high_cut
            low = [j for j, s in scales.items() if s < self.zeta]
            medium = [j for j, s in scales.items() if self.zeta <= s < high_cut]
            high = [j for j, s in scales.items() if s >= high_cut]
            band = {"eps": eps, "low": low, "medium": medium, "high": high}
            out.append(dict(band, overlap=bool(set(low) & set(high))))
        return out

    def to_json(self) -> dict:
        sections = {"solver": {}, "experiment": {"eps": list(self.eps_list), "eta0": self.eta0}}
        for section, key, name, _ in _CONFIG_NUMBERS:
            sections[section][key] = getattr(self, name)
        return {
            "schema": SCHEMA_VERSION,
            "lattice": self.lattice.descriptor(),
            **sections,
            "forcing": self.forcing.to_json() if self.forcing else [],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """The config of a parsed JSON file.  A missing ``lattice`` or lattice
        key, an unknown section or key, or a value of the wrong JSON type
        raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError("a config must be a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {data.get('schema')!r}")
        if "lattice" not in data:
            raise ValueError("config field lattice is missing")
        sections = {name: data.get(name, {}) for name in ("lattice", "solver", "experiment")}
        for name, section in sections.items():
            if not isinstance(section, dict):
                raise ValueError(f"config field {name} must be a JSON object")
        lattice = LatticeSpec.from_descriptor(
            sections["lattice"], malformed="config field lattice is malformed"
        )
        # the keys that descriptor() and to_json() write are the known ones
        known = {
            "lattice": set(lattice.descriptor()),
            "solver": set(),
            "experiment": {"eps", "eta0"},
        }
        for section, key, _, _ in _CONFIG_NUMBERS:
            known[section].add(key)
        unknown = sorted(data.keys() - {"schema", "forcing", *known}) + sorted(
            f"{name}.{key}" for name, keys in known.items() for key in sections[name].keys() - keys
        )
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        # every key present is checked; the dataclass's defaults fill in the rest
        settings = {}
        for section, key, name, kind in _CONFIG_NUMBERS:
            if key in sections[section]:
                value = sections[section][key]
                settings[name] = _config_number(value, f"{section}.{key}", kind)
        experiment = sections["experiment"]
        if "eps" in experiment:
            eps = experiment["eps"]
            if not isinstance(eps, list):
                raise ValueError(f"config field experiment.eps must be a list, got {eps!r}")
            settings["eps_list"] = tuple(_config_number(e, "experiment.eps") for e in eps)
        if experiment.get("eta0") is not None:
            settings["eta0"] = _config_number(experiment["eta0"], "experiment.eta0")
        if data.get("forcing"):
            settings["forcing"] = Forcing.from_json(lattice, data["forcing"])
        return cls(lattice=lattice, **settings)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass
class ConvergenceReport:
    config: dict
    rows: list[DiagnosticsRow]
    slope: float | None
    slope_flag: str
    verdicts: dict
    timings: dict = field(default_factory=dict)
    bands: list = field(default_factory=list)

    def row_values(self, key: str) -> list[float]:
        return [row.values[key] for row in self.rows]


def fit_loglog_slope(eps_values, values):
    """Least-squares slope of log(value) against log(eps)."""
    eps_values = np.asarray(eps_values, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if eps_values.size < 2 or np.any(values <= 0):
        return None
    return float(np.polyfit(np.log(eps_values), np.log(values), 1)[0])


def _monotone_verdict(values) -> str:
    diffs = np.diff(values)
    return "decreasing" if np.all(diffs < 0) else "not-decreasing"


@dataclass
class SharedStage:
    """The Mach-independent part of a sweep, built once by :func:`shared_stage`.

    ``initial`` is the compressible pair (a0, u0) of every Mach number's
    run.  ``traj`` is one coupled "limit" run whose samples are (v, V)
    pairs: the incompressible velocity and the averaged state it drives,
    stepped together.  ``timings`` gives the wall time of the limit table's
    build (``limit_table``) and of that run (``limit``).
    """

    initial: tuple[SpectralField, SpectralField]
    traj: Trajectory
    timings: dict


def shared_stage(cfg: ExperimentConfig) -> SharedStage:
    """Initial data, limit table and the coupled incompressible and averaged
    run of a sweep; none of them depends on the Mach number."""
    a0, u0 = initial = cfg.initial_data()
    t0 = _time.perf_counter()
    table = build_limit_tables(cfg.lattice)
    timings = {"limit_table": _time.perf_counter() - t0}

    t0 = _time.perf_counter()
    v0 = helmholtz_project(u0, "P")
    V0 = acoustic_transform(a0, u0 - v0)
    traj = run_trajectory((v0, V0), cfg.solver_config(cfg.eps_list[0]), "limit", table=table)
    timings["limit"] = _time.perf_counter() - t0
    return SharedStage(initial, traj, timings)


def convergence_study(
    cfg: ExperimentConfig, progress=None, threads: int = 1
) -> ConvergenceReport:
    """Run the full sweep: the shared stage once, then one compressible run
    per Mach number with its functionals row.

    With ``threads`` > 1 the Mach numbers run in a process pool of at most one
    worker per Mach number.  Each worker receives the stage once, through the
    pool initializer (under the fork start method nothing is pickled), and
    returns only its row.  ``progress(msg)`` is called before each Mach
    number that runs in this process, and on the pool path as each row comes
    back, in the order of ``eps_list``.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    stage = shared_stage(cfg)
    workers = min(threads, len(cfg.eps_list))
    if workers > 1:
        # imported here: concurrent.futures is a noticeable share of the CLI's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, initializer=_init_worker, initargs=(cfg, stage)
        ) as pool:
            rows = []
            for eps, row in zip(cfg.eps_list, pool.map(_worker_row, cfg.eps_list)):
                if progress:
                    progress(f"eps = {eps:g} done")
                rows.append(row)
    else:
        rows = []
        for eps in cfg.eps_list:
            if progress:
                progress(f"eps = {eps:g}")
            rows.append(_eps_row(cfg, stage, eps))

    slope = fit_loglog_slope(cfg.eps_list, [r.values["W_theta"] for r in rows])
    slope_flag = "ok" if len(cfg.eps_list) >= 2 else "insufficient-data"
    verdicts = {
        key: _monotone_verdict([r.values[key] for r in rows])
        for key in ("D", "eps_a_linf_besov", "Vdiff_composite", "Pudiff_composite", "W_theta")
    }
    timings = dict(stage.timings)
    timings.update((f"eps_{eps:g}", row.wall_time) for eps, row in zip(cfg.eps_list, rows))
    return ConvergenceReport(
        config=cfg.to_json(),
        rows=rows,
        slope=slope,
        slope_flag=slope_flag,
        verdicts=verdicts,
        timings=timings,
        bands=cfg.bands(),
    )


def _eps_row(cfg: ExperimentConfig, stage: SharedStage, eps: float) -> DiagnosticsRow:
    """Functionals row of the compressible run at Mach number ``eps``.

    Each compressible sample is reduced at once to its
    :func:`sample_energies` rows, against the (v, V) sample of the stage at
    the same index; no compressible field outlives its sample.
    """
    t0 = _time.perf_counter()
    partners = iter(stage.traj.states)

    def reduce(state, t):
        return sample_energies(state, next(partners), t, eps, cfg.theta)

    traj_eps = run_trajectory(stage.initial, cfg.solver_config(eps), "compressible", record=reduce)
    row = compute_functionals(traj_eps.times, traj_eps.states, cfg.functional_settings(eps))
    row.wall_time = _time.perf_counter() - t0
    return row


# (cfg, stage) of a pool worker process, set once by the pool initializer
_worker_args: tuple = ()


def _init_worker(cfg: ExperimentConfig, stage: SharedStage) -> None:
    global _worker_args
    _worker_args = (cfg, stage)


def _worker_row(eps: float) -> DiagnosticsRow:
    return _eps_row(*_worker_args, eps)


def vanishing_limit_check(report: ConvergenceReport) -> dict:
    """Verdicts for the vanishing quantities across the Mach sweep.

    Each quantity must decrease strictly along the descending Mach list and
    end at or below half its initial value.
    """
    out = {}
    for key in ("eps_a_linf_besov", "Vdiff_composite", "Pudiff_composite"):
        vals = report.row_values(key)
        decreasing = bool(np.all(np.diff(vals) < 0))
        small_enough = vals[-1] <= 0.5 * vals[0]
        out[key] = {
            "pass": decreasing and small_enough,
            "decreasing": decreasing,
            "final_over_initial": vals[-1] / vals[0] if vals[0] > 0 else math.inf,
        }
    return out


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_report(report: ConvergenceReport, out_dir: str) -> dict:
    """Write report.csv (wide), report_long.csv, and report.json.

    The CSV layout is fixed: columns eps, T, then functional names sorted;
    identical configs and seeds produce byte-identical CSV files (wall times
    live only in the JSON).
    """
    os.makedirs(out_dir, exist_ok=True)
    names = sorted({name for row in report.rows for name in row.values})
    wide_path = os.path.join(out_dir, "report.csv")
    with open(wide_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["eps", "T"] + names) + "\n")
        for row in report.rows:
            cells = [_fmt(row.eps), _fmt(row.t_final)]
            cells += [_fmt(row.values[name]) for name in names]
            fh.write(",".join(cells) + "\n")
    long_path = os.path.join(out_dir, "report_long.csv")
    with open(long_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("eps,T,functional,value\n")
        for row in report.rows:
            for name in names:
                fh.write(
                    ",".join(
                        [_fmt(row.eps), _fmt(row.t_final), name, _fmt(row.values[name])]
                    )
                    + "\n"
                )
    json_path = os.path.join(out_dir, "report.json")
    payload = {
        "schema": SCHEMA_VERSION,
        "config": report.config,
        "rows": [
            {"eps": row.eps, "T": row.t_final, "values": row.values}
            for row in report.rows
        ],
        "slope_W_theta": report.slope,
        "slope_flag": report.slope_flag,
        "verdicts": report.verdicts,
        "timings": report.timings,
        "bands": report.bands,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return {"wide": wide_path, "long": long_path, "json": json_path}


# ---------------------------------------------------------------------------
# Invariant battery (CLI `check`)
# ---------------------------------------------------------------------------


def run_invariant_suite():
    """Fast self-checks of the core machinery at 16^2; returns (name, ok, detail)."""
    results = []
    lattice = LatticeSpec.square(2, 16)
    rng = np.random.default_rng(0)

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    values = rng.standard_normal((1,) + lattice.resolution)
    fld = forward_transform(GridField(lattice, values))
    back = forward_transform(inverse_transform(fld))
    err = float(np.max(np.abs(back.coeffs - fld.coeffs)))
    record("transform-round-trip", err <= 1e-12 * np.max(np.abs(fld.coeffs)), f"err={err:.2e}")

    grid = inverse_transform(fld)
    integral = float(
        np.sum(np.abs(grid.values) ** 2) * lattice.volume / np.prod(lattice.resolution)
    )
    coeff = float(np.sum(fld.mode_power()))
    record(
        "parseval",
        abs(integral - coeff) <= 1e-12 * coeff,
        f"defect={abs(integral - coeff):.2e}",
    )

    total = None
    from .dyadic import dyadic_block, low_cut

    total = low_cut(fld, compute_jb(lattice) + 1)
    for j in block_range(lattice):
        total = total + dyadic_block(fld, j)
    err = float(np.max(np.abs(total.coeffs - fld.coeffs)))
    record("block-partition", err <= 1e-12 * np.max(np.abs(fld.coeffs)), f"err={err:.2e}")

    uvals = rng.standard_normal((lattice.d,) + lattice.resolution)
    u = forward_transform(GridField(lattice, uvals))
    p = helmholtz_project(u, "P")
    q = helmholtz_project(u, "Q")
    err = float(np.max(np.abs((p + q).coeffs - u.coeffs)))
    record("helmholtz-identity", err <= 1e-12 * np.max(np.abs(u.coeffs)), f"err={err:.2e}")

    coeffs = fld.coeffs.copy()
    coeffs[(0,) + (0,) * lattice.d] = 0.0
    a = SpectralField(lattice, coeffs, reality=True)
    V = acoustic_transform(a, q)
    w = wave_group(V, 1.37)
    n1 = norm(V, NormSpec(kind="H", s=0.75))
    n2 = norm(w, NormSpec(kind="H", s=0.75))
    record("wave-group-isometry", abs(n1 - n2) <= 1e-12 * n1, f"defect={abs(n1 - n2):.2e}")

    record(
        "resonance-hand-cases",
        resonance_test([(1, 1), (1, 1), (-1, 4)]).resonant
        and not resonance_test([(1, 1), (1, 1), (-1, 2)]).resonant
        and resonance_test([(1, 9), (1, 16), (-1, 49)]).resonant,
    )

    full = norm(fld, NormSpec(s=0.5, r=1))
    h = norm(fld, NormSpec(s=0.5, r=1, band="h", eta=4.0))
    m = norm(fld, NormSpec(s=0.5, r=1, band="m", zeta=1.0, eta=4.0))
    lo = norm(fld, NormSpec(s=0.5, r=1, band="l", zeta=1.0))
    record(
        "banded-additivity",
        abs(h + m + lo - full) <= 1e-12 * full,
        f"defect={abs(h + m + lo - full):.2e}",
    )
    return results
