"""Benchmark workloads and the output checks that decide whether a run is correct.

A workload is a fixed list of lab configs run one after another by a single
caller (a closed loop).  The benchmark seed becomes every config's ``seed``.
The checks read only the files an experiment wrote and compare them with exact
identities or closed-form values of the shapes involved, so a faster wrong
answer counts as a failed operation.

This module imports nothing outside the standard library: the set-up time the
benchmark reports starts before cantorlab (and with it numpy) is imported.
"""

from __future__ import annotations

import math
import os
import re

#: worker threads for every config (the machine the benchmark targets has 2)
THREADS = min(2, os.cpu_count() or 1)

WORKLOADS = {
    # The headline set: sampling with the KD-tree field on corner4 does most
    # of the work, the bootstrap and Cauchy truncations a few percent each.
    # 100k + 25k + 50k (Cauchy's doubled run) = 175k walks.
    "corner4-walks": (
        {"experiment": "dimension-gap", "shape": "corner4", "samples": 100_000},
        {"experiment": "cauchy", "shape": "corner4", "samples": 25_000},
    ),
    # No walks at all: the bypass side of every sampler change.  Exact Menger
    # sums, shell quadrature and covering counts; the seed changes nothing.
    "exact-sums": (
        {"experiment": "curvature-profile", "shape": "corner4", "kmax": 5},
        {"experiment": "lemma-L", "shape": "middle-thirds", "kmax": 7},
        {"experiment": "regularity", "shape": "corner4", "kmax": 6},
    ),
    # The same sampler on closed-form fields (800k walks): a walk-count change
    # moves this and corner4-walks together, a KD-tree change only corner4.
    "reference-walks": (
        {"experiment": "green-comparability", "shape": "circle", "samples": 400_000},
        {"experiment": "green-comparability", "shape": "segment", "samples": 400_000},
    ),
}

_WALK_EXPERIMENTS = {"dimension-gap": 1, "green-comparability": 1, "cauchy": 3}


def config_text(spec: dict, seed: int, threads: int) -> str:
    """The ``cantorlab run`` config file for one workload entry."""
    items = {**spec, "seed": seed, "threads": threads}
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def walks_issued(spec: dict) -> int:
    """Walks one run of the config starts (cauchy samples n and then 2n)."""
    return _WALK_EXPERIMENTS.get(spec["experiment"], 0) * spec.get("samples", 0)


def label(spec: dict) -> str:
    return f"{spec['experiment']}.{spec['shape']}"


# -- output checks -----------------------------------------------------------------

#: tolerance of the dimension-gap control line, which prints 5 decimals
_PRINTED_5DP = 5e-6

#: relative tolerance of the shell quadrature's own refinement gate
_SHELL_RTOL = 0.02

_CAPACITY = {"circle": 1.0, "segment": 0.5}
_CAPACITY_TOL = 0.02
_GREEN_TOL = 0.02


def _read(out: str, name: str) -> str:
    with open(os.path.join(out, name)) as fh:
        return fh.read()


def _rows(out: str, name: str) -> list[list[str]]:
    """Data rows of a lab table (after its ``#`` metadata line and header)."""
    lines = [ln for ln in _read(out, name).splitlines() if ln]
    return [ln.split(",") for ln in lines[2:]]


def _summary_value(out: str, pattern: str) -> str:
    m = re.search(pattern, _read(out, "summary.txt"))
    if m is None:
        raise ValueError(f"summary.txt has no match for {pattern!r}")
    return m.group(1)


def _check_dimension(out: str, shape: str, problems: list, values: dict):
    control = float(_summary_value(out, r"natural-measure control dim=(\S+)"))
    if abs(control - 1.0) > _PRINTED_5DP:
        problems.append(f"natural-measure control dim {control} is not 1")
    hi = float(_summary_value(out, r"interval \[\S+, ([^\]]+)\]"))
    if not hi < 1.0:
        problems.append(f"dimension interval upper end {hi} is not below 1")


def _check_cauchy(out: str, shape: str, problems: list, values: dict):
    line = _summary_value(out, r"(far-field:.*)")
    if not line.endswith("-> PASS"):
        problems.append(f"far-field law failed: {line}")


def _check_curvature(out: str, shape: str, problems: list, values: dict):
    energy = {int(r[0]): float(r[1]) for r in _rows(out, "curvature.csv")}
    # corner4 at k=1: four corners of a square, each triple a right isosceles
    # triangle with c^2 = 32/9, weight 4^-3, four triples, ordered sum x6
    if abs(energy.get(1, math.nan) - 4.0 / 3.0) > 1e-12:
        problems.append(f"k=1 curvature energy {energy.get(1)} is not 4/3")
    values_k = [energy[k] for k in sorted(energy)]
    if not all(b > a for a, b in zip(values_k, values_k[1:])):
        problems.append(f"curvature energies are not increasing: {values_k}")


def _check_lemma_l(out: str, shape: str, problems: list, values: dict):
    # middle-thirds, a = 3: the shell renewal identity S_{k+1} = 2 * 3^-(2-p) S_k
    delta = math.log(2.0) / math.log(3.0)
    power = (1.0 - delta) * (2.0 + delta)
    renewal = 2.0 * 3.0 ** -(2.0 - power)
    devs = [abs(float(r[2]) / renewal - 1.0) for r in _rows(out, "lemma_l.csv") if int(r[0]) >= 2]
    worst = max(devs, default=math.inf)
    values["shell_renewal_max_dev"] = worst
    if not worst <= _SHELL_RTOL:
        problems.append(f"shell ratio deviates {worst:.4g} from renewal value {renewal:.6f}")


def _check_regularity(out: str, shape: str, problems: list, values: dict):
    counts = [int(r[1]) for r in _rows(out, "regularity.csv")]
    for k in range(2, len(counts) - 1):
        if counts[k + 1] != 4 * counts[k]:
            problems.append(f"covering counts m_{k + 1}={counts[k + 1]} != 4*m_{k}={counts[k]}")


def _check_green(out: str, shape: str, problems: list, values: dict):
    capacity = float(_summary_value(out, r"capacity=(\S+)"))
    if abs(capacity - _CAPACITY[shape]) > _CAPACITY_TOL:
        problems.append(f"{shape} capacity {capacity} is not {_CAPACITY[shape]}")
    if shape == "circle":
        # unit circle: G(z) = log|z| = log(1 + dist) outside it
        worst = max(abs(float(g) - math.log1p(float(d))) for d, g in _rows(out, "green.csv"))
        if worst > _GREEN_TOL:
            problems.append(f"circle Green values miss log(1+d) by {worst:.4g}")


_CHECKS = {
    "dimension-gap": _check_dimension,
    "cauchy": _check_cauchy,
    "curvature-profile": _check_curvature,
    "lemma-L": _check_lemma_l,
    "regularity": _check_regularity,
    "green-comparability": _check_green,
}


def check_outputs(spec: dict, out: str) -> tuple[list[str], dict]:
    """Problems found in one experiment's output files, and checked values."""
    problems: list[str] = []
    values: dict = {}
    try:
        _CHECKS[spec["experiment"]](out, spec["shape"], problems, values)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems, values
