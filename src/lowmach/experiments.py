"""Experiment configuration, the Mach-number sweep, and report emission."""

from __future__ import annotations

import json
import math
import os
import time as _time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dyadic import NormSpec, block_range, compute_jb, dyadic_block, low_cut, norm
from .functionals import DiagnosticsRow, FunctionalSettings, compute_functionals, sample_energies
from .lattice import LatticeSpec, SpectralField, forward_transform, inverse_transform
from .operators import acoustic_transform, helmholtz_project, wave_group
from .resonance import _limit_table, resonance_test
from .solvers import (
    CompressibleStepper,
    Forcing,
    LimitStepper,
    SolverConfig,
    _config_number,
    generate_initial_data,
    run_lockstep,
    sample_clock,
)

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "convergence_study",
    "limit_initial_data",
    "vanishing_limit_check",
    "fit_loglog_slope",
    "emit_report",
    "run_invariant_suite",
]

SCHEMA_VERSION = 1


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
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)  # a list or tuple, stored as a tuple
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
        if not isinstance(self.eps_list, (list, tuple)):
            raise ValueError(f"config field experiment.eps must be a list, got {self.eps_list!r}")
        numbers = {"eps_list": tuple(_config_number(e, "experiment.eps") for e in self.eps_list)}
        for section, key, name, kind in _CONFIG_NUMBERS:
            numbers[name] = _config_number(getattr(self, name), f"{section}.{key}", kind)
        if self.eta0 is not None:
            numbers["eta0"] = _config_number(self.eta0, "experiment.eta0")
        for name, value in numbers.items():
            object.__setattr__(self, name, value)
        if not self.eps_list:
            raise ValueError("need at least one Mach number")
        if any(e2 >= e1 for e1, e2 in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("Mach numbers must be strictly descending")
        if not (0 < self.theta < 0.5):
            raise ValueError("theta must lie in (0, 1/2)")
        if not self.zeta > 0:
            raise ValueError("zeta must be positive")
        if self.eta0 is not None and not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        for eps in self.eps_list:
            self.solver_config(eps)  # runs SolverConfig's checks at load
        if self.eta0 is None and self.nu == 0:
            raise ValueError("config field experiment.eta0 must be given when nu/2 is 0")

    @property
    def nu(self) -> float:
        return 2.0 * self.mu + self.lam

    @property
    def eta0_value(self) -> float:
        return 0.5 * self.nu if self.eta0 is None else self.eta0

    def issues(self) -> list[str]:
        """Band-geometry conditions that are assumed by the estimates.

        Violations are reported where the bands are used (as warnings of
        :func:`convergence_study`, as lines of ``check``), not as errors: the
        functionals stay well-defined (the medium band is empty when zeta >= eta0/eps).
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
            gamma=self.gamma,
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
        # the dataclass checks every number given and fills in the rest
        settings = {
            name: sections[section][key]
            for section, key, name, _ in _CONFIG_NUMBERS
            if key in sections[section]
        }
        experiment = sections["experiment"]
        for key, name in (("eps", "eps_list"), ("eta0", "eta0")):
            if key in experiment:
                settings[name] = experiment[key]
        if "forcing" in data:
            forcing = Forcing.from_json(lattice, data["forcing"])
            if forcing.modes:  # an empty list is no forcing, as to_json writes it
                settings["forcing"] = forcing
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
    """Least-squares slope of log(value) against log(eps); None for fewer
    than two Mach numbers or a value that is not positive.  In closed form:
    ``np.polyfit`` goes through LAPACK, whose first call alone adds about
    1 MB to the resident memory of a sweep."""
    eps_values = np.asarray(eps_values, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if eps_values.size < 2 or np.any(values <= 0):
        return None
    x = np.log(eps_values) - np.mean(np.log(eps_values))
    y = np.log(values)
    return float(np.sum(x * (y - np.mean(y))) / np.sum(x * x))


def _monotone_verdict(values) -> str:
    diffs = np.diff(values)
    return "decreasing" if np.all(diffs < 0) else "not-decreasing"


def limit_initial_data(a0: SpectralField, u0: SpectralField) -> tuple:
    """The limit pair (v0, V0) of compressible data (a0, u0): the
    incompressible velocity v0 = P u0 and the averaged state V0 = L(a0, Q u0)."""
    v0 = helmholtz_project(u0, "P")
    return v0, acoustic_transform(a0, u0 - v0)


def convergence_study(cfg: ExperimentConfig, threads: int = 1) -> ConvergenceReport:
    """Run the full sweep: the limit table once, then the limit pair and every
    Mach number's compressible run in lockstep (:func:`_lockstep_rows`).

    With ``threads`` > 1, a pool of at most one worker per Mach number runs
    the lockstep on consecutive shares of ``eps_list``, each worker with its
    own limit stepper.  The timings are the table build (``limit_table``),
    the limit steppers' time summed over workers (``limit``) and each Mach
    number's stepping and reductions (``eps_<eps>``).  Each config issue,
    such as an empty medium band, is a RuntimeWarning.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    for issue in cfg.issues():
        warnings.warn(issue, RuntimeWarning)
    initial = cfg.initial_data()
    t0 = _time.perf_counter()
    _limit_table(cfg.lattice)  # cached with the lattice, which the pool's workers receive
    timings = {"limit_table": _time.perf_counter() - t0, "limit": 0.0}
    n, workers = len(cfg.eps_list), min(threads, len(cfg.eps_list))
    shares = [cfg.eps_list[i * n // workers : (i + 1) * n // workers] for i in range(workers)]
    calls = ([cfg] * workers, [initial] * workers, shares)
    if workers > 1:
        # imported here: concurrent.futures is a noticeable share of the CLI's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_lockstep_rows, *calls))
    else:
        results = list(map(_lockstep_rows, *calls))
    rows = []
    for share, (share_rows, clock) in zip(shares, results):
        timings["limit"] += clock.pop("limit")
        timings.update((f"eps_{eps:g}", clock[eps]) for eps in share)
        rows += share_rows
    slope = fit_loglog_slope(cfg.eps_list, [r.values["W_theta"] for r in rows])
    slope_flag = "insufficient-data" if slope is None else "ok"
    verdicts = {
        key: _monotone_verdict([r.values[key] for r in rows])
        for key in ("D", "eps_a_linf_besov", "Vdiff_composite", "Pudiff_composite", "W_theta")
    }
    return ConvergenceReport(
        config=cfg.to_json(),
        rows=rows,
        slope=slope,
        slope_flag=slope_flag,
        verdicts=verdicts,
        timings=timings,
        bands=cfg.bands(),
    )


def _lockstep_rows(
    cfg: ExperimentConfig, initial: tuple, eps_list: tuple
) -> tuple[list[DiagnosticsRow], dict]:
    """Functionals rows of the Mach numbers ``eps_list``, and the wall time of
    each stepper, keyed by its Mach number or "limit".

    One :class:`CompressibleStepper` per Mach number steps (a, u), and one
    :class:`LimitStepper` the limit pair (v, V); :func:`run_lockstep` advances
    them together.  At time 0 and at each sample time the hook reduces each
    compressible stepper's half spectra to its :func:`sample_energies` rows
    against the limit stepper's, and writes them into that Mach number's
    array of shape (5, sample times, entries); no full field is built.  A
    Mach number's time is its stepping, its reductions and its functionals.
    """
    lattice, limit_cfg = cfg.lattice, cfg.solver_config(cfg.eps_list[0])
    steppers = {eps: CompressibleStepper(cfg.solver_config(eps), *initial) for eps in eps_list}
    steppers["limit"] = LimitStepper(limit_cfg, *limit_initial_data(*initial))
    times = [0.0, *sample_clock(limit_cfg)]
    samples = {}
    reducing = dict.fromkeys(eps_list, 0.0)
    index = 0  # the position of the next sample in times

    def on_sample(t, steppers):
        nonlocal index
        partner = np.split(steppers["limit"].x, [lattice.d])  # (v, V)
        for eps in eps_list:
            t0 = _time.perf_counter()
            state = np.split(steppers[eps].x, [1])  # (a, u)
            rows = sample_energies(lattice, state, partner, t, eps, cfg.theta)
            if eps not in samples:
                samples[eps] = np.empty((len(rows), len(times), rows.shape[1]))
            samples[eps][:, index] = rows
            reducing[eps] += _time.perf_counter() - t0
        index += 1

    on_sample(0.0, steppers)
    clock = run_lockstep(steppers, limit_cfg, on_sample)
    rows = []
    for eps in eps_list:
        t0 = _time.perf_counter()
        settings = cfg.functional_settings(eps)
        rows.append(compute_functionals(lattice, times, samples.pop(eps), settings))
        clock[eps] += reducing[eps] + _time.perf_counter() - t0
    return rows, clock


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
    fld = forward_transform(lattice, values)
    back = forward_transform(lattice, inverse_transform(fld))
    err = float(np.max(np.abs(back.coeffs - fld.coeffs)))
    record("transform-round-trip", err <= 1e-12 * np.max(np.abs(fld.coeffs)), f"err={err:.2e}")

    grid = inverse_transform(fld)
    integral = float(
        np.sum(np.abs(grid) ** 2) * lattice.volume / np.prod(lattice.resolution)
    )
    coeff = fld.l2_norm() ** 2
    record(
        "parseval",
        abs(integral - coeff) <= 1e-12 * coeff,
        f"defect={abs(integral - coeff):.2e}",
    )

    total = low_cut(fld, compute_jb(lattice) + 1)
    for j in block_range(lattice):
        total = total + dyadic_block(fld, j)
    err = float(np.max(np.abs(total.coeffs - fld.coeffs)))
    record("block-partition", err <= 1e-12 * np.max(np.abs(fld.coeffs)), f"err={err:.2e}")

    uvals = rng.standard_normal((lattice.d,) + lattice.resolution)
    u = forward_transform(lattice, uvals)
    p = helmholtz_project(u, "P")
    q = helmholtz_project(u, "Q")
    err = float(np.max(np.abs((p + q).coeffs - u.coeffs)))
    record("helmholtz-identity", err <= 1e-12 * np.max(np.abs(u.coeffs)), f"err={err:.2e}")

    coeffs = fld.coeffs.copy()
    coeffs[(0,) + (0,) * lattice.d] = 0.0
    a = SpectralField(lattice, coeffs)
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
