#!/usr/bin/env python3
"""lowmach benchmark: the Mach-number sweep and its layers, timed from outside.

Run from the repository root:

    python3 bench/run.py --workload sweep64 --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --self-test            # fast pass over every code path

Each repetition is a fresh ``python3 bench/child.py`` process that imports
lowmach and calls ``lowmach.cli.main`` with the workload's arguments and
``--seed``.  Repetitions run back to back while another one is expected to
end within ``--seconds`` (at least one runs); untraced runs also start
set-up probes before, between and after them.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced repetitions and reports the per-layer metrics of the traced ones.  Every repetition's output is
checked (checks.py).  The last line of standard output is the result JSON;
the line before it holds the samples and the environment record, which is
also written to ``.bench_work/results/``.  See NOTES.md for the workloads
and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.basename(HERE)
WORK = ".bench_work"
REFERENCE_SEED = 0  # the seed reference.json was recorded at; also the default
# Extra processes per untraced run that stop at main's entry: some before the
# repetitions, some after each one, and some after the last.  Set-up time
# drifts with the shared host's load over seconds to minutes, so probes taken
# back to back would all see the same phase.
SETUP_PROBES_AT_ENDS = 3
SETUP_PROBES_PER_REP = 2
DEADLINE_S = 170.0  # a run never outlives this; a child still going is killed


@dataclasses.dataclass(frozen=True)
class Workload:
    command: str  # lowmach subcommand
    config: str  # relative to the repository root
    key: str  # reference.json entry; workloads sharing it must agree byte for byte
    threads: int = 1


WORKLOADS = {
    "sweep64": Workload("converge", "configs/sweep64.json", "sweep64"),
    "compressible128": Workload("simulate", f"{BENCH}/workloads/compressible128.json", "compressible128"),
    # Not in BENCHMARK.json, kept for manual runs: sweep3d so that the listed
    # workloads get longer runs, sweep64-t2 because with two workers on two
    # shared cores its run-to-run spread was twice sweep64's.
    "sweep3d": Workload("converge", f"{BENCH}/workloads/sweep3d.json", "sweep3d"),
    "sweep64-t2": Workload("converge", "configs/sweep64.json", "sweep64", threads=2),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMPUTED_UNITS = {
    "lattice.fft_flops_computed": "flop-computed",
    "lattice.fft_bytes_computed": "B-computed",
    "resonance.table_bytes": "B-computed",
    "resonance.q2_yield_computed": "ratio-computed",
}


def per_layer_unit(name: str) -> str:
    if name in COMPUTED_UNITS:
        return COMPUTED_UNITS[name]
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac") or name.endswith("_dev"):
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def median(values):
    return statistics.median(values) if values else float("nan")


def wall_tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11], "samples": n}


def git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    src = os.path.join("src", "lowmach")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def desk_config(name: str) -> dict:
    """The self-test's small stand-in for a workload's config."""
    with open(os.path.join("configs", "desk.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    if name == "sweep3d":
        cfg["lattice"].update(
            d=3, periods=[[1, 1], [1, 2], [2, 3]], resolution=[8, 8, 6]
        )
    return cfg


class Run:
    """One benchmark run of one workload: probes, repetitions and checks."""

    def __init__(self, name: str, seed: int, seconds: float, self_test=False, recording=False):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workload = WORKLOADS[name]
        self.work = os.path.join(WORK, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.deadline = time.monotonic() + DEADLINE_S
        if self_test:
            self.config = desk_config(name)
            self.config_path = os.path.join(self.work, "config.json")
            with open(self.config_path, "w", encoding="utf-8") as fh:
                json.dump(self.config, fh)
        else:
            self.config_path = self.workload.config
            with open(self.config_path, encoding="utf-8") as fh:
                self.config = json.load(fh)
        self.config["experiment"]["seed"] = seed
        self.reference = None
        if seed == REFERENCE_SEED and not (self_test or recording):
            with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
                self.reference = json.load(fh)["workloads"][self.workload.key]
        with open(self.config_path, "rb") as fh:
            key = hashlib.sha256(
                f"{code_fingerprint()}\0{self.workload.command}\0{seed}\0".encode() + fh.read()
            ).hexdigest()
        self.store_path = os.path.join(WORK, "store", key + ".json")
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.probes = 0
        self.errors: list[str] = []

    def launch(self, tag: str, cli_args: list[str], setup_only=False, trace_path=None) -> dict:
        """Start one child, wait for it, and return its times and usage."""
        stamp = os.path.join(self.work, f"{tag}.stamp.json")
        argv = [sys.executable, os.path.join(BENCH, "child.py"), stamp]
        if setup_only:
            argv.append("--setup-only")
        if trace_path:
            argv += ["--trace", trace_path]
        argv += ["--"] + cli_args
        out_path = os.path.join(self.work, f"{tag}.out")
        err_path = os.path.join(self.work, f"{tag}.err")
        start = time.monotonic()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, start_new_session=True)
        # killpg also ends the worker processes a converge --threads run starts
        killer = threading.Timer(max(0.0, self.deadline - start), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {
            "tag": tag,
            "rc": proc.returncode,
            "wall_s": wall,
            # wait4 reports the child plus every descendant it reaped
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": None,
            "errors": [],
        }
        try:
            with open(stamp, encoding="utf-8") as fh:
                sample["setup_s"] = json.load(fh)["entered"] - start
        except (OSError, ValueError, KeyError):
            sample["errors"].append("no stamp written")
        if proc.returncode != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-400:].decode(errors="replace")
            sample["errors"].append(f"exit code {proc.returncode}: {tail}")
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            sample["stdout"] = fh.read()
        return sample

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            self.probes += 1
            sample = self.launch(f"setup{self.probes}", ["noop"], setup_only=True)
            if sample["errors"]:
                self.errors.append(f"set-up probe {self.probes}: {sample['errors']}")
            else:
                self.setups.append(sample["setup_s"])

    def repetition(self, traced: bool) -> None:
        tag = f"rep{len(self.reps)}" + ("-traced" if traced else "")
        out_dir = os.path.join(self.work, tag)
        cli_args = [self.workload.command, "--config", self.config_path, "--out", out_dir]
        cli_args += ["--seed", str(self.seed)]
        if self.workload.threads > 1:
            cli_args += ["--threads", str(self.workload.threads)]
        trace_path = os.path.join(self.work, f"{tag}.spans.json") if traced else None
        sample = self.launch(tag, cli_args, trace_path=trace_path)
        sample["traced"] = traced
        sample["max_rel_dev"] = 0.0
        if not sample["errors"]:
            outcome = checks.check_repetition(
                self.workload.command,
                out_dir,
                sample["stdout"],
                self.config,
                self.reference,
                self.store_path,
            )
            sample["errors"] += outcome.errors
            sample["max_rel_dev"] = outcome.max_rel_dev
            if self.reference is not None:
                sample["identical_to_reference"] = (
                    outcome.observed.get("sha256") == self.reference.get("sha256")
                )
            sample["observed"] = outcome.observed
        if traced and not sample["errors"]:
            layers, top_level = tracer.summarize(trace_path)
            if top_level > sample["wall_s"]:
                sample["errors"].append(
                    f"top-level spans sum to {top_level:.3f} s, beyond the run's {sample['wall_s']:.3f} s"
                )
            sample["layers"] = layers
        if not sample["errors"]:
            self.setups.append(sample["setup_s"])
        del sample["stdout"]
        self.reps.append(sample)

    def measure(self, trace: bool) -> None:
        """Repetitions (with --trace, untraced/traced pairs; without, set-up
        probes before, between and after them) while the next one and the
        closing probes are expected to end within ``seconds``; always at least
        one repetition."""
        begin = time.monotonic()
        closing = 0.0  # time the closing probes are expected to take
        if not trace:
            self.probe_setup(SETUP_PROBES_AT_ENDS)
            closing = time.monotonic() - begin
        longest = 0.0
        while True:
            t0 = time.monotonic()
            self.repetition(traced=False)
            if trace:
                self.repetition(traced=True)
            else:
                self.probe_setup(SETUP_PROBES_PER_REP)
            now = time.monotonic()
            longest = max(longest, now - t0)
            if now + longest + closing > begin + self.seconds or now + 1.5 * longest > self.deadline:
                break
        if not trace:
            self.probe_setup(SETUP_PROBES_AT_ENDS)

    def result(self, trace: bool) -> tuple[dict, dict]:
        failed = sum(1 for r in self.reps if r["errors"])
        attempted = len(self.reps)
        untraced = [r for r in self.reps if not r["traced"]]
        metrics = {}
        if trace:
            traced = [r for r in self.reps if r["traced"] and "layers" in r]
            names = traced[0]["layers"].keys() if traced else []
            for name in names:
                metrics[name] = median([r["layers"][name] for r in traced])
            base = median([r["wall_s"] for r in untraced])
            metrics["trace.overhead_frac"] = (median([r["wall_s"] for r in traced]) - base) / base
            metrics["check.max_rel_dev"] = max(r["max_rel_dev"] for r in self.reps)
            metrics["check.failed_frac"] = failed / attempted
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            for name in END_TO_END:
                pool = self.setups if name == "setup_s" else [r[name] for r in untraced]
                metrics[name] = median(pool)
            units = END_TO_END
        result = {
            "correct": failed == 0 and not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        details = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(trace),
            "failed_frac": failed / attempted,
            "wall_s_samples": len(untraced),
            "wall_s_tail": wall_tail([r["wall_s"] for r in untraced]),
            "setup_s_samples": self.setups,
            "reference_checked": self.reference is not None,
            "errors": self.errors,
            "repetitions": [
                {k: v for k, v in r.items() if k not in ("layers", "observed")} for r in self.reps
            ],
        }
        return result, details


def environment(load_before: float) -> dict:
    load_after = os.getloadavg()[0]
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
        "load_exceeded_nproc": max(load_before, load_after) > nproc,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, self_test=False, recording=False):
    load_before = os.getloadavg()[0]
    run = Run(name, seed, seconds, self_test=self_test, recording=recording)
    run.measure(trace)
    result, details = run.result(trace)
    details["env"] = environment(load_before)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(WORK, "results", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    return result, details, run


def missing_inputs(names) -> list[str]:
    needed = [os.path.join("src", "lowmach", "cli.py"), os.path.join("configs", "desk.json")]
    needed.append(os.path.join(BENCH, "reference.json"))
    needed += [WORKLOADS[n].config for n in names]
    return [path for path in needed if not os.path.isfile(path)]


def self_test(seed: int) -> int:
    """Every workload's code path on desk-sized configs, untraced and traced."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        print(f"FAIL  BENCHMARK.json names unknown workloads {sorted(unknown)}")
    ok = not unknown
    for name in WORKLOADS:
        for trace in (False, True):
            result, details, _ = run_workload(name, seed, 0.0, trace, self_test=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if not result["correct"]:
                problems.append(
                    [r["errors"] for r in details["repetitions"] if r["errors"]] + details["errors"]
                )
            if emitted != expected[trace]:
                problems.append(
                    {
                        "missing": sorted(set(expected[trace]) - set(emitted)),
                        "extra": sorted(set(emitted) - set(expected[trace])),
                        "unit_mismatch": sorted(
                            k for k in emitted if k in expected[trace] and emitted[k] != expected[trace][k]
                        ),
                    }
                )
            ok &= not problems
            print(f"{'ok' if not problems else 'FAIL':>4s}  {name} trace={int(trace)}  {problems or ''}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="desk-sized pass over every workload")
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="write this run's outputs to reference.json (reference seed only)",
    )
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    os.chdir(ROOT)
    missing = missing_inputs(WORKLOADS if args.self_test else [args.workload])
    if missing:
        print(f"bench: cannot run here, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args.seed)

    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"references are recorded at seed {REFERENCE_SEED}")
    result, details, run = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), recording=args.record_reference
    )
    if args.record_reference:
        record_reference(run)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def record_reference(run: Run) -> None:
    """Store the first repetition's outputs as the workload's reference."""
    rep = run.reps[0]
    if rep["errors"]:
        raise SystemExit(f"bench: not recording a failed repetition: {rep['errors']}")
    path = os.path.join(BENCH, "reference.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["workloads"][run.workload.key] = rep["observed"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
