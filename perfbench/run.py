"""Run one cantorlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corner4-walks --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: cantorlab is imported from
``src/`` next to this directory, and outputs go to ``.perfbench_out/``, which
is removed again at the end.  Without the sources it exits with status 2.

Each pass runs the workload's configs once, in a fresh interpreter, as a
``cantorlab run`` user pays for it: import, config parsing and cold memory
included.  ``--trace 0`` repeats passes until ``--seconds`` have passed and
reports the end-to-end metrics: the CPU time of the ``run_experiment`` calls
per pass (all passes' total over their number), and the medians of set-up
time (with extra set-up-only interpreters up to MIN_SETUPS samples) and of
peak RSS.  It prints the wall time per pass too.
``--trace 1`` runs one untraced pass, one traced pass and one traced pass at a
single thread, and reports per-layer metrics from the traced pass.

Every experiment run is one operation.  It fails when it raises, when its
outputs fail the workload's checks, or when they differ from the first pass's
(same seed, so they must be byte-identical).  In a traced run the exact
counters of the two traced passes must also agree.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import COUNT, ID, SAMPLE, Spans, Tracer
from workloads import THREADS, WORKLOADS, check_outputs, config_text, label, walks_issued

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-up samples per untraced run; passes give one each, set-up-only
#: interpreters make up the rest
MIN_SETUPS = 5

#: a run stops its passes after this long, inside the 180 s it may take
RUN_DEADLINE_S = 170

#: every experiment label any workload runs, for the per-experiment wall metrics
ALL_LABELS = tuple(dict.fromkeys(label(s) for specs in WORKLOADS.values() for s in specs))


# -- one pass, in a fresh interpreter ----------------------------------------------


def setup(workload: str, seed: int, out_dir: Path):
    """Import cantorlab, prepare the workload's configs and a fresh output directory.

    Returns (cantorlab, configs, seconds taken).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cantorlab = importlib.import_module("cantorlab")
    if Path(cantorlab.__file__).resolve().parent != SRC / "cantorlab":
        raise SystemExit(f"perfbench: imported cantorlab from {cantorlab.__file__}, not {SRC}")
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cfgs = [
        cantorlab.parse_experiment_config(config_text(spec, seed, THREADS))
        for spec in WORKLOADS[workload]
    ]
    return cantorlab, cfgs, time.perf_counter() - t0


def run_pass(run_experiment, cfgs, out_dir: Path, threads: int):
    """Run every config once.

    Returns [{"wall": seconds, "cpu": user + system seconds of all threads,
    "error": text or None}].
    """
    runs = []
    for i, cfg in enumerate(cfgs):
        cfg = dataclasses.replace(cfg, out=str(out_dir / str(i)), threads=threads)
        err = None
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            run_experiment(cfg)
        except Exception as exc:  # a failed experiment is a counted failure, not a crash
            traceback.print_exc()
            err = f"{type(exc).__name__}: {exc}"
        runs.append({"wall": time.perf_counter() - t0, "cpu": cpu_seconds() - c0, "error": err})
    return runs


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def layer_metrics(sp: Spans) -> dict:
    """Per-layer metrics that one traced pass gives on its own."""
    walks = sp.count(SAMPLE)
    sample_s = sp.busy(SAMPLE)
    ems = sp.measures()
    gq_s, gq_n = sp.busy("geometry.field_query"), sp.count("geometry.field_query")
    md_s = sp.busy("dynamics.manning_dimension")
    cp_s = sp.busy("curvature.curvature_profile")
    triples = sp.count("curvature.curvature_profile")
    return {
        "geometry.field_query_s": (gq_s, "s"),
        "geometry.field_query_points": (gq_n, "count"),
        "geometry.field_query_us_per_point": (1e6 * ratio(gq_s, gq_n), "us"),
        "geometry.field_build_s": (sp.busy("geometry.field_build"), "s"),
        "geometry.field_leaves": (sp.count("geometry.field_build"), "count"),
        "geometry.shell_integral_sums_s": (sp.busy("geometry.shell_integral_sums"), "s"),
        "geometry.shell_cells": (
            sp.count("geometry.field_query", parent_name="geometry.shell_integral_sums"), "count"),
        "geometry.covering_counts_s": (sp.busy("geometry.covering_counts"), "s"),
        "shapes.field_query_s": (sp.busy("shapes.field_query"), "s"),
        "shapes.field_query_points": (sp.count("shapes.field_query"), "count"),
        "potential.sample_s": (sample_s, "s"),
        "potential.walks_per_s": (ratio(walks, sample_s), "1/s"),
        "potential.steps_per_walk": (ratio(sp.steps(), walks), "count"),
        "potential.sampler_self_s": (sp.self_time(SAMPLE), "s"),
        "potential.stopped_share": (
            1.0 - ratio(sum(em.discarded for em in ems), walks) if walks else 0.0, "ratio"),
        "potential.atoms": (sum(em.atom_count for em in ems), "count"),
        "potential.green_model_s": (sp.busy("potential.green_model"), "s"),
        "potential.comparability_fit_s": (sp.busy("potential.comparability_fit"), "s"),
        "potential.log_potential_evals_per_s": (
            ratio(sp.count("potential.log_potential"), sp.busy("potential.log_potential")), "1/s"),
        "dynamics.manning_dimension_s": (md_s, "s"),
        "dynamics.replicates_per_s": (ratio(sp.count("dynamics.manning_dimension"), md_s), "1/s"),
        "curvature.curvature_profile_s": (cp_s, "s"),
        "curvature.triples": (triples, "count"),
        "curvature.triples_per_s": (ratio(triples, cp_s), "1/s"),
        "curvature.cauchy_truncations_s": (sp.busy("curvature.cauchy_truncations"), "s"),
        "curvature.cauchy_transform_s": (sp.busy("curvature.cauchy_transform"), "s"),
        "lab.self_s": (sp.self_time("lab.run_experiment"), "s"),
    }


def control_problems(sp: Spans, n_runs: int) -> list:
    """The natural-measure control (the dimension call without a bootstrap) is exactly 1."""
    problems = [[] for _ in range(n_runs)]
    index = {r[ID]: i for i, r in enumerate(sp.runs)}
    for s in sp.named("dynamics.manning_dimension"):
        est = sp.kept.get(s[ID])
        if est is not None and s[COUNT] == 0 and abs(est.dim - 1.0) > 1e-9:
            problems[index[sp.root(s)]].append(f"control dim {est.dim!r} is not within 1e-9 of 1")
    return problems


def versions() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} threads={THREADS} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def child(args) -> dict:
    """One pass (or only the set-up) of the workload in this interpreter."""
    out_dir = Path(args.child_out)
    cantorlab, cfgs, setup_s = setup(args.workload, args.seed, out_dir)
    result = {"setup_s": setup_s, "versions": versions()}
    if args.setup_only:
        return result
    if args.trace:
        tracer = Tracer()
        with tracer.installed(cantorlab) as run_experiment:
            result["runs"] = run_pass(run_experiment, cfgs, out_dir, args.threads)
        sp = Spans(tracer)
        result["layers"] = layer_metrics(sp)
        result["counters"] = [sp.counters(r[ID]) for r in sp.runs]
        result["problems"] = control_problems(sp, len(cfgs))
    else:
        result["runs"] = run_pass(cantorlab.run_experiment, cfgs, out_dir, args.threads)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


# -- the orchestrating process -----------------------------------------------------


def ratio(a, b):
    return a / b if b else 0.0


def spawn(args, out_dir: Path, threads=THREADS, trace=0, setup_only=False):
    """Run a child interpreter; its result dict, or None if it crashed or hung."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--threads", str(threads), "--child-out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = args.deadline - time.monotonic()
    try:
        if timeout <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"FAIL pass {out_dir.name}: no result within the {RUN_DEADLINE_S} s run deadline")
        return None
    if proc.returncode != 0:
        print(f"FAIL pass {out_dir.name}: child exited with status {proc.returncode}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def same_outputs(a: Path, b: Path) -> bool:
    """Equal data files, and equal manifests up to wall_clock."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        da, db = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "manifest.json":
            ma, mb = json.loads(da), json.loads(db)
            ma.pop("wall_clock"), mb.pop("wall_clock")
            if ma != mb:
                return False
        elif da != db:
            return False
    return True


def grade(specs, passes):
    """Failed-operation flags per pass and the values the first pass's checks computed.

    ``passes`` holds (output directory, child result or None).  Each pass
    after the first must reproduce the first pass's outputs byte for byte.
    """
    flags, values = [], {}
    first_dir, first = passes[0]
    for j, (out_dir, res) in enumerate(passes):
        row = []
        for i, spec in enumerate(specs):
            out = out_dir / str(i)
            err = "no result" if res is None else res["runs"][i]["error"]
            problems, checked = ([err], {}) if err else check_outputs(spec, out)
            if j == 0:
                values[label(spec)] = checked
            elif not problems and first is not None and not first["runs"][i]["error"] \
                    and not same_outputs(first_dir / str(i), out):
                problems.append("outputs differ from the first pass")
            for p in problems:
                print(f"FAIL pass {out_dir.name} {label(spec)}: {p}")
            row.append(bool(problems))
        flags.append(row)
    return flags, values


def per_run(res, n, key="wall") -> list:
    """One value of each experiment run of a pass; zeros for a pass without result."""
    return [r[key] for r in res["runs"]] if res else [0.0] * n


def untraced(args, specs, out_dir: Path):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        d = out_dir / f"pass{len(passes)}"
        passes.append((d, spawn(args, d)))
    flags, _ = grade(specs, passes)
    done = [res for _, res in passes if res]
    print(f"machine: {done[0]['versions'] if done else None}")
    setups = [res["setup_s"] for res in done]
    while len(setups) < MIN_SETUPS:
        res = spawn(args, out_dir / f"setup{len(setups)}", setup_only=True)
        if res is None:
            break
        setups.append(res["setup_s"])
    pass_walls = [sum(per_run(res, len(specs))) for res in done]
    pass_cpus = [sum(per_run(res, len(specs), "cpu")) for res in done]
    # a shared host's speed can shift by about 10 % from one pass to the next;
    # the mean of the passes averages that, a median of two or three picks one
    wall = statistics.fmean(pass_walls) if done else 0.0
    walks = sum(walks_issued(s) for s in specs)
    failed = sum(map(sum, flags))
    attempted = len(passes) * len(specs)
    print(f"passes: {len(passes)}, wall per pass (s): {', '.join(f'{w:.3f}' for w in pass_walls)}, "
          f"cpu per pass (s): {', '.join(f'{c:.3f}' for c in pass_cpus)}")
    print(f"set-up per interpreter (s): {', '.join(f'{t:.3f}' for t in setups)}")
    if walks and wall:
        print(f"walks_per_s: {walks / wall:.1f} 1/s ({walks} walks per pass)")
    print(f"wall_s: {wall:.6g} s")
    print(f"error_rate: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    metrics = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "cpu_s": (statistics.fmean(pass_cpus) if done else 0.0, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done) if done else 0.0, "MB"),
    }
    return attempted, failed, metrics


def traced(args, specs, out_dir: Path):
    """Untraced, traced, and traced one-thread passes of the same configs."""
    du, dt, d1 = out_dir / "untraced", out_dir / "traced", out_dir / "traced-1"
    u = spawn(args, du)
    t = spawn(args, dt, trace=1)
    t1 = spawn(args, d1, threads=1, trace=1)
    flags, values = grade(specs, [(du, u), (dt, t), (d1, t1)])
    print(f"machine: {(u or t or t1 or {}).get('versions')}")
    if t and t1:
        for i, spec in enumerate(specs):
            c, c1 = t["counters"][i], t1["counters"][i]
            problems = t["problems"][i] + t1["problems"][i]
            if c != c1:
                problems.append(f"counters differ across thread counts: {c} vs {c1}")
            if c["walks"] != walks_issued(spec):
                problems.append(f"{c['walks']} walks issued, expected {walks_issued(spec)}")
            for p in problems:
                print(f"FAIL {label(spec)}: {p}")
            flags[1][i] = flags[1][i] or bool(problems)
            print(f"counters {label(spec)}: {json.dumps(c, sort_keys=True)}")
    # a pass that gave no result reports every layer as zero
    metrics = layer_metrics(Spans(Tracer()))
    metrics.update((name, tuple(v)) for name, v in (t["layers"] if t else {}).items())
    sample_s = metrics["potential.sample_s"][0]
    sample_1 = t1["layers"]["potential.sample_s"][0] if t1 else 0.0
    walls_t = per_run(t, len(specs))
    metrics["potential.thread_speedup"] = (ratio(sample_1, sample_s), "ratio")
    wall_u = sum(per_run(u, len(specs)))
    metrics["lab.wall_s"] = (wall_u, "s")
    metrics["trace.overhead_ratio"] = (ratio(sum(walls_t), wall_u), "ratio")
    metrics["lab.bytes_written"] = (
        sum(f.stat().st_size for f in dt.rglob("*") if f.is_file()) if dt.is_dir() else 0, "count")
    metrics["geometry.shell_renewal_max_dev"] = (
        values.get("lemma-L.middle-thirds", {}).get("shell_renewal_max_dev", 0.0), "ratio")
    by_label = dict(zip((label(s) for s in specs), walls_t))
    for name in ALL_LABELS:
        metrics[f"lab.{name}.wall_s"] = (by_label.get(name, 0.0), "s")
    return sum(map(len, flags)), sum(map(sum, flags)), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by the orchestrating process for its child interpreters
    ap.add_argument("--child-out", help=argparse.SUPPRESS)
    ap.add_argument("--threads", type=int, default=THREADS, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "cantorlab" / "__init__.py").is_file():
        print(f"perfbench: no cantorlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.child_out:
        print(json.dumps(child(args)))
        return 0

    args.deadline = time.monotonic() + RUN_DEADLINE_S
    specs = WORKLOADS[args.workload]
    out_dir = OUT / str(os.getpid())
    print(f"workload {args.workload}: seed {args.seed}, {', '.join(label(s) for s in specs)}")
    try:
        run = traced if args.trace else untraced
        attempted, failed, metrics = run(args, specs, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
