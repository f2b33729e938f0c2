"""Output checks for one benchmark repetition.

Every repetition is checked against invariants that hold for any seed: exit
code 0, the final time equals ``t_final``, every functional is finite and
non-negative, the mean mode of ``a`` is zero, and the same code, config and
seed give byte-identical output.  The last is checked against a store of
earlier repetitions in the same checkout, which also holds ``sweep64-t2``
byte-identical to sequential ``sweep64`` because the two share a store key.

At the reference seed the values are also compared with ``reference.json``,
recorded from the seed commit, within ``RTOL``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

# Relative tolerance against the recorded reference: far above round-off
# (about 1e-12 in these functionals) and far below any change of method.
RTOL = 1e-6
_MAGIC = b"LOWMACHK1\n"


class Outcome:
    """What one repetition produced and what was wrong with it."""

    def __init__(self):
        self.errors: list[str] = []
        self.observed: dict = {}
        self.max_rel_dev = 0.0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def compare(self, values: dict, against: dict, label: str) -> float:
        """Largest relative deviation of ``values`` from ``against``."""
        worst = 0.0
        for key, ref in against.items():
            if key not in values:
                self.errors.append(f"{label}: value {key} missing")
                continue
            dev = abs(values[key] - ref) / abs(ref) if ref else abs(values[key])
            worst = max(worst, dev)
        self.max_rel_dev = max(self.max_rel_dev, worst)
        return worst


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same_time(t: float, t_final: float) -> bool:
    return abs(t - t_final) <= 1e-12 * t_final


def _check_converge(out: Outcome, out_dir: str, stdout: dict, config: dict) -> None:
    path = os.path.join(out_dir, "report.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    out.require(header[:2] == ["eps", "T"], f"report.csv header {header[:2]}")
    eps_list = [row[0] for row in rows]
    out.require(eps_list == config["experiment"]["eps"], f"report.csv eps column {eps_list}")
    t_final = config["solver"]["t_final"]
    values = {}
    for row in rows:
        out.require(_same_time(row[1], t_final), f"final time {row[1]!r} != t_final {t_final!r}")
        for name, value in zip(header[2:], row[2:]):
            out.require(math.isfinite(value) and value >= 0, f"{name} = {value!r} at eps {row[0]!r}")
            values[f"eps={row[0]!r}:{name}"] = value
    out.observed = {
        "values": values,
        "monotonicity": stdout["monotonicity"],
        "vanishing": stdout["vanishing"],
        "sha256": _sha256(path),
    }


def _read_checkpoint(path: str) -> tuple[float, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MAGIC):
        raise ValueError(f"{path} is not a checkpoint")
    offset = len(_MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    header = json.loads(blob[offset : offset + hlen])
    offset += hlen
    arrays = {}
    for entry in header["fields"]:
        count = math.prod(entry["shape"])
        arr = np.frombuffer(blob, dtype="<c16", count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(entry["shape"])
        offset += 16 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} bytes past the last field")
    return header["time"], arrays


def _check_simulate(out: Outcome, stdout: dict, config: dict) -> None:
    t_final = config["solver"]["t_final"]
    path = stdout["checkpoint"]
    time, arrays = _read_checkpoint(path)
    out.require(_same_time(stdout["t_final"], t_final), f"final time {stdout['t_final']!r}")
    out.require(_same_time(time, t_final), f"checkpoint time {time!r} != t_final {t_final!r}")
    a, u = arrays["a"], arrays["u"]
    norms = {
        "final_a_l2": math.sqrt(float(np.sum(np.abs(a) ** 2))),
        "final_u_l2": math.sqrt(float(np.sum(np.abs(u) ** 2))),
    }
    for key, value in norms.items():
        out.require(math.isfinite(value) and value > 0, f"{key} = {value!r}")
        out.require(
            abs(value - stdout[key]) <= 1e-9 * value,
            f"{key}: checkpoint gives {value!r}, the CLI printed {stdout[key]!r}",
        )
    mean = abs(complex(a.reshape(-1)[0]))
    out.require(mean <= 1e-13 * norms["final_a_l2"], f"mean mode of a is {mean!r}, not 0")
    out.observed = {"values": norms, "sha256": _sha256(path)}


def check_repetition(
    command: str,
    out_dir: str,
    stdout_text: str,
    config: dict,
    reference: dict | None,
    store_path: str,
) -> Outcome:
    """Check one finished, successful repetition of ``converge`` or ``simulate``.

    ``reference`` is the recorded entry when the run used the reference seed,
    else None.  ``store_path`` names the store entry for this code, config
    and seed.
    """
    out = Outcome()
    try:
        stdout = json.loads(stdout_text)
        if command == "converge":
            _check_converge(out, out_dir, stdout, config)
        else:
            _check_simulate(out, stdout, config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out.errors.append(f"output unreadable: {exc!r}")
        return out

    if reference is not None:
        dev = out.compare(out.observed["values"], reference["values"], "reference")
        out.require(dev <= RTOL, f"deviates from the reference by {dev:.3g} > {RTOL:g}")
        for key in ("monotonicity", "vanishing"):
            if key in reference:
                out.require(
                    out.observed[key] == reference[key],
                    f"{key} verdicts {out.observed[key]} != reference {reference[key]}",
                )

    if os.path.exists(store_path):
        with open(store_path, "r", encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier["sha256"] != out.observed["sha256"]:
            dev = out.compare(out.observed["values"], earlier["values"], "earlier run")
            out.errors.append(
                f"output differs from an earlier run of the same code, config and seed "
                f"(largest relative deviation {dev:.3g})"
            )
    else:
        os.makedirs(os.path.dirname(store_path), exist_ok=True)
        tmp = f"{store_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(out.observed, fh, sort_keys=True)
        os.replace(tmp, store_path)
    return out
