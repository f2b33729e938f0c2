"""Command-line interface.

Subcommands:
  simulate    one compressible run at a single Mach number
  limit-sim   the coupled incompressible and averaged-system run
  resonances  resonance table statistics and small divisors
  norms       norm table of a checkpointed field
  converge    full Mach-number sweep with diagnostics report
  check       fast invariant battery

Exit codes: 0 success, 2 invariant failure or invalid input (a malformed
value, or a file that cannot be read or written), 3 vacuum/CFL abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .dyadic import norm, parse_norm_spec
from .experiments import (
    ExperimentConfig,
    convergence_study,
    emit_report,
    limit_initial_data,
    run_invariant_suite,
    vanishing_limit_check,
)
from .lattice import LatticeSpec, SpectralField
from .operators import VacuumError
from .resonance import build_limit_tables, small_divisors
from .solvers import CFLError, load_checkpoint, run_trajectory, save_checkpoint

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_ABORT = 3


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = ExperimentConfig(lattice=LatticeSpec.square(2, 32))
    updates = {}
    if getattr(args, "eps", None):
        updates["eps_list"] = tuple(float(e) for e in args.eps.split(","))
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    eps = cfg.eps_list[0]
    run = cfg.solver_config(eps)
    samples = [0.0]  # the sample times; only the final state is written
    a, u = run_trajectory(
        cfg.initial_data(), run, "compressible", on_sample=lambda t, steppers: samples.append(t)
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"compressible_eps{eps:g}.lmc")
    t_final = run.n_steps * run.dt
    save_checkpoint(
        path, cfg.lattice, t_final, {"a": a, "u": u}, meta={"eps": eps, "kind": "compressible"}
    )
    summary = {
        "eps": eps,
        "t_final": t_final,
        "samples": len(samples),
        "final_a_l2": a.l2_norm(),
        "final_u_l2": u.l2_norm(),
        "checkpoint": path,
    }
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_limit_sim(args) -> int:
    cfg = _load_config(args)
    initial = limit_initial_data(*cfg.initial_data())
    run = cfg.solver_config(cfg.eps_list[0])
    v, V = run_trajectory(initial, run, "limit")
    os.makedirs(args.out, exist_ok=True)
    paths = {}
    for kind, key, final in (("incompressible", "v", v), ("limit", "V", V)):
        paths[kind] = os.path.join(args.out, f"{kind}.lmc")
        save_checkpoint(
            paths[kind], cfg.lattice, run.n_steps * run.dt, {key: final}, meta={"kind": kind}
        )
    summary = dict(paths, final_v_l2=v.l2_norm(), final_V_l2=V.l2_norm())
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_resonances(args) -> int:
    cfg = _load_config(args)
    table = build_limit_tables(cfg.lattice)
    report = small_divisors(cfg.lattice, args.cutoff, theta=cfg.theta)
    payload = {
        "lattice": cfg.lattice.descriptor(),
        "limit_table_counts": table.counts(),
        "small_divisors": report.to_json(),
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "resonances.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _cmd_norms(args) -> int:
    lattice, time, arrays, meta = load_checkpoint(args.field)
    specs = [parse_norm_spec(s) for s in args.spec]
    rows = []
    for name, arr in sorted(arrays.items()):
        field = SpectralField(lattice, np.asarray(arr))
        for spec in specs:
            rows.append((name, spec.key(), norm(field, spec)))
    width = max(len(r[1]) for r in rows) if rows else 10
    print(f"# t = {time}, meta = {json.dumps(meta, sort_keys=True)}")
    for name, key, value in rows:
        print(f"{name:>8s}  {key:<{width}s}  {value!r}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _load_config(args)
    report = convergence_study(cfg, threads=args.threads)
    if args.verbose:
        for eps in cfg.eps_list:
            print(f"[converge] eps = {eps:g} done", file=sys.stderr)
    paths = emit_report(report, args.out)
    verdicts = vanishing_limit_check(report)
    print(
        json.dumps(
            {
                "files": paths,
                "slope_W_theta": report.slope,
                "monotonicity": report.verdicts,
                "vanishing": {k: v["pass"] for k, v in verdicts.items()},
            },
            indent=1,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    results = run_invariant_suite()
    ok = True
    for name, passed, detail in results:
        status = "ok" if passed else "FAIL"
        print(f"{status:>4s}  {name}  {detail}")
        ok &= passed
    cfg_issues = []
    if args.config:
        cfg = ExperimentConfig.load(args.config)
        cfg_issues = cfg.issues()
        for issue in cfg_issues:
            print(f"warn  config: {issue}")
        for band in cfg.bands():
            print(
                f"band  eps={band['eps']:g}: low {band['low']} medium {band['medium']} "
                f"high {band['high']} overlap {band['overlap']}"
            )
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowmach",
        description="Pseudospectral simulation and diagnostics for slightly "
        "compressible flow on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
        p.add_argument("--eps", help="comma-separated Mach numbers")

    p = sub.add_parser("simulate", help="single compressible run")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("limit-sim", help="incompressible plus averaged-system run")
    common(p)
    p.set_defaults(func=_cmd_limit_sim)

    p = sub.add_parser("resonances", help="resonance statistics and small divisors")
    common(p)
    p.add_argument("--cutoff", type=float, default=2.0, help="modulus cutoff M")
    p.set_defaults(func=_cmd_resonances)

    p = sub.add_parser("norms", help="norm table for a checkpointed field")
    p.add_argument("--field", required=True, help="checkpoint file")
    p.add_argument(
        "--spec",
        action="append",
        default=None,
        help="norm spec string (repeatable), e.g. B:s=1:p=2:r=1:band=h:eta=32",
    )
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("converge", help="full Mach sweep with report")
    common(p)
    p.add_argument(
        "--threads", type=int, default=1, help="sweep worker count (at most one per Mach number)"
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("check", help="fast invariant battery")
    p.add_argument("--config", help="also validate a configuration file")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "spec", "missing") is None:
        args.spec = ["B:s=0:p=2:r=1", "B:s=1:p=2:r=1", "H:s=1"]
    try:
        return args.func(args)
    except (VacuumError, CFLError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        detail = f"{exc.strerror}: {exc.filename}" if exc.filename else str(exc)
        print(f"invalid input: {detail}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
