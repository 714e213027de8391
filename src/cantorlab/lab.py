"""Experiment runner: flat configs in, CSV tables + summary + manifest out.

A config is plain ``key = value`` text (``#`` comments allowed).  Each named
experiment drives one slice of the library, writes comma-separated tables
with ``#`` metadata headers, and appends to ``summary.txt`` one line per
checked inequality, tagged PASS / INCONCLUSIVE / REFUTING.  Findings are
report content: a refuting measurement never raises.

Reproducibility contract: identical config (and library version) yields
byte-identical data files; ``manifest.json`` records their checksums and is
itself identical up to the wall_clock field.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .curvature import (
    cauchy_transform,
    cauchy_truncations,
    curvature_profile,
    default_r_grid,
)
from .dynamics import manning_dimension
from .errors import ConfigError, OutputCollisionError
from .geometry import (
    Repeller,
    covering_counts,
    key_value_lines,
    parse_repeller_spec,
    preset,
    shell_integral_sums,
    similarity_dimension,
)
from .potential import (
    BHP_PIECES,
    WalkConfig,
    ball_mass_scaling,
    boundary_ladder,
    comparability_fit,
    green_model,
    natural_measure,
    quantile,
    rng_stream,
    sample_harmonic_measure,
)
from .shapes import Circle, Segment, Shape, SinglePoint, require_digit_codes

_REQUIRED_KEYS = ("experiment", "shape", "seed")

#: spawn key of the cauchy experiment's doubled run, distinct from the
#: sampler's 0, so the 2n walks share none with the n walks
_DOUBLING_STREAM = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to compute, on which set, with which seed.

    params holds the parameter keys that were set, the walk keys samples and
    stop_tol among them.  Setting a key the experiment does not read (its
    entry in _EXPERIMENTS), or a count key n_* below 1, is a ConfigError, and
    so are ball radii outside 0 < r_lo < r_hi, n_radii below 3 and depths
    outside 0 < depth_lo < depth_hi or spanning under one decade, set or
    defaulted: all are refused before any walk.
    """

    experiment: str
    shape: str
    seed: int
    out: str | None = None
    threads: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"choose one of {', '.join(EXPERIMENT_NAMES)}"
            )
        reads = _EXPERIMENTS[self.experiment].params
        for key in self.params:
            if key not in reads:
                raise ConfigError(f"experiment {self.experiment!r} does not read {key!r} "
                                  f"(it reads {', '.join(reads)})")
            if key.startswith("n_") and self.params[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        if "r_lo" in reads:
            self._refuse_range("r_lo", "r_hi")
            if self.param("n_radii") < 3:
                raise ConfigError("n_radii must be >= 3")
        if "depth_lo" in reads:
            lo, hi = self._refuse_range("depth_lo", "depth_hi")
            # comparability_fit's own rule, on the unscaled depths
            if math.log10(hi / lo) < 1.0 - 1e-9:
                raise ConfigError(f"depth_hi must be at least 10 * depth_lo, "
                                  f"got depth_lo {lo!r} and depth_hi {hi!r}")
        try:
            self.walk_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _refuse_range(self, lo_key: str, hi_key: str) -> tuple[float, float]:
        """The two keys' values, refused unless 0 < lo < hi < inf."""
        lo, hi = self.param(lo_key), self.param(hi_key)
        if not 0 < lo:
            raise ConfigError(f"{lo_key} must be > 0, got {lo!r}")
        if not lo < hi < math.inf:
            raise ConfigError(f"{hi_key} must be finite and above {lo_key} ({lo!r}), got {hi!r}")
        return lo, hi

    def param(self, key: str):
        """The parameter's configured value, else its default from the experiment table."""
        return self.params.get(key, _EXPERIMENTS[self.experiment].params[key])

    def walk_config(self) -> WalkConfig:
        """The walk keys as a WalkConfig; samples is WalkConfig's default where unread."""
        reads = _EXPERIMENTS[self.experiment].params
        walks = {"samples": self.param("samples")} if "samples" in reads else {}
        return WalkConfig(**walks, seed=self.seed, threads=self.threads,
                          stop_tol=self.params.get("stop_tol"))

    def canonical_text(self) -> str:
        """Normalized key = value rendering; hashing input for the manifest.

        threads is excluded: it partitions work without changing any result,
        so runs differing only in thread count share a config hash.
        """
        items = {"experiment": self.experiment, "shape": self.shape, "seed": self.seed,
                 **self.params}
        if "samples" in _EXPERIMENTS[self.experiment].params:
            # hashed even when unset, so the config hashes of recorded runs still match
            items["samples"] = self.param("samples")
        return "".join(f"{k} = {items[k]!r}\n" for k in sorted(items))


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse flat key = value config text; errors carry line numbers."""
    found: dict = {}
    for ln, key, val in key_value_lines(text):
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in found:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        try:
            found[key] = _KEY_TYPES[key](val)
        except ValueError:
            raise ConfigError(
                f"line {ln}: bad value {val!r} for key {key!r} "
                f"(expected {_KEY_TYPES[key].__name__})"
            ) from None
    for req in _REQUIRED_KEYS:
        if req not in found:
            raise ConfigError(f"missing required key: {req}")
    return _config_from_keys(found)


def _config_from_keys(values: dict) -> ExperimentConfig:
    """Split parsed key values into config fields and experiment params."""
    core = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(
        **{k: v for k, v in values.items() if k in core},
        params={k: v for k, v in values.items() if k not in core},
    )


def resolve_shape(name: str) -> Shape:
    """Preset name, reference shape name, or path to an IFS description."""
    if name == "circle":
        return Circle()
    if name == "segment":
        return Segment()
    if name == "point":
        return SinglePoint()
    try:
        return preset(name)
    except ConfigError:
        pass
    if os.path.exists(name):
        with open(name) as fh:
            return parse_repeller_spec(fh.read(), name=os.path.basename(name))
    raise ConfigError(
        f"shape {name!r} is neither a preset, a reference shape, nor a file"
    )


def _require_repeller(shape, experiment: str) -> Repeller:
    if not isinstance(shape, Repeller):
        raise ConfigError(
            f"experiment {experiment!r} needs an IFS shape, got {shape.name!r}"
        )
    return shape


# -- report assembly --------------------------------------------------------------


def _meta(cfg: ExperimentConfig) -> str:
    return f"# experiment={cfg.experiment} shape={cfg.shape} seed={cfg.seed}"


def _table(cfg: ExperimentConfig, header: str, rows) -> str:
    return "\n".join([_meta(cfg), header, *rows]) + "\n"


def _grade(err: float, tol: float) -> str:
    """PASS inside tol, REFUTING beyond 3x tol, INCONCLUSIVE between."""
    if err <= tol:
        return "PASS"
    if err > 3.0 * tol:
        return "REFUTING"
    return "INCONCLUSIVE"


# -- the eight experiments --------------------------------------------------------


def _exp_regularity(shape, cfg: ExperimentConfig):
    rep = _require_repeller(shape, cfg.experiment)
    a = cfg.params.get("a", 1.0 / rep.max_scale)
    kmax = cfg.param("kmax")
    cov = covering_counts(rep, a=a, kmax=kmax)
    dsim = similarity_dimension(rep)
    rows = [
        f"{k},{m},{d!r}"
        for k, (m, d) in enumerate(zip(cov.counts, cov.diameters))
    ]
    st = _grade(cov.delta_reg - dsim, 0.05)
    summary = [
        f"regular: components of dist<a^-k neighborhoods: m_k <= "
        f"{cov.c_count:.4g}*a^({cov.delta_reg:.6f}*k), diam <= "
        f"{cov.c_diam:.4g}*a^-k (a={a:g}, k<={kmax})",
        f"regular: fitted delta_reg={cov.delta_reg:.6f} vs similarity "
        f"delta={dsim:.6f} (regular needs delta_reg <= delta + 0.05) -> {st}",
    ]
    return {"regularity.csv": _table(cfg, "k,m_k,diam_max", rows)}, summary


def _exp_measure_scaling(shape, cfg: ExperimentConfig):
    require_digit_codes(shape.fan)  # measure.csv's codes, before any walk
    em = sample_harmonic_measure(shape, cfg.walk_config())
    diam = em.diameter
    r_lo = cfg.param("r_lo") * diam
    r_hi = cfg.param("r_hi") * diam
    n_centers = min(cfg.param("n_centers"), em.atom_count)
    pick = rng_stream(cfg.seed, 9).choice(em.atom_count, size=n_centers, replace=False)
    centers = em.points[np.sort(pick)]
    report = ball_mass_scaling(em, centers, np.geomspace(r_lo, r_hi, cfg.param("n_radii")))
    rows = [
        f"{float(c.real)!r},{float(c.imag)!r},{e!r}"
        for c, e in zip(centers, report.exponents)
    ]
    med = report.exponent_median
    iqr = quantile(report.exponents, 0.75) - quantile(report.exponents, 0.25)
    if iqr > 0.2:
        st = "INCONCLUSIVE"
    else:
        st = _grade(abs(med - 1.0), 0.1)
    summary = [
        f"om: omega(B(z,r)) ~ r^alpha: median alpha={med:.4f} "
        f"(iqr {iqr:.4f} over {len(centers)} centers, "
        f"r in [{r_lo:.4g}, {r_hi:.4g}]), mass/r^alpha in "
        f"[{report.c_min:.4g}, {report.c_max:.4g}]",
        f"om: omega(B(z,r)) ~ r (alpha = 1 +- 0.1, iqr <= 0.2) -> {st}",
    ]
    tables = {
        "measure.csv": em.csv_text(),
        "scaling.csv": _table(cfg, "center_x,center_y,exponent", rows),
    }
    return tables, summary


def _exp_green(shape, cfg: ExperimentConfig):
    em = sample_harmonic_measure(shape, cfg.walk_config())
    model = green_model(em, shape, seed=cfg.seed)
    R = shape.bounding_radius
    lo = cfg.param("depth_lo") * R
    hi = cfg.param("depth_hi") * R
    fit = comparability_fit(model, shape, n_points=cfg.param("n_points"),
                            depth_range=(lo, hi), seed=cfg.seed + 1)
    rows = [f"{d!r},{g!r}" for d, g in zip(fit.dists, fit.greens)]
    st = "INCONCLUSIVE" if fit.r_squared < 0.8 else _grade(abs(fit.delta_hat - 1.0), 0.05)
    summary = [
        f"green: robin gamma={model.robin:.6f} capacity={model.capacity:.6f}",
        f"green: c1*dist^delta <= G <= c2*dist^delta: delta_hat={fit.delta_hat:.4f} "
        f"c1={fit.c1:.4g} c2={fit.c2:.4g} (c2/c1={fit.c2 / fit.c1:.3g}, "
        f"r2={fit.r_squared:.3f}, {fit.n_points} points, {fit.dropped} dropped)",
        f"green: delta = 1 within 0.05 -> {st}",
    ]
    return {"green.csv": _table(cfg, "dist,green", rows)}, summary


def _exp_bhp(shape, cfg: ExperimentConfig):
    p = cfg.params.get("pole_p", shape.bounding_center + 1.4 * shape.diameter)
    q = cfg.params.get("pole_q", shape.bounding_center + 1.4j * shape.diameter)
    depth = 1
    while 1 < shape.fan ** (depth + 1) <= BHP_PIECES:
        depth += 1

    def exponents(osc):
        # e_k = log(osc_k / osc_k+1) / log(r_k / r_k+1), nan at the last k
        r = np.array([shape.piece_radius(k) for k in range(1, len(osc) + 2)])
        e = np.full(len(osc), math.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            e[:-1] = np.log(osc[:-1] / osc[1:]) / np.log(r[:-2] / r[1:-1])
        return e

    osc = boundary_ladder(shape, depth, p, q)
    e = exponents(osc)
    coarse = exponents(boundary_ladder(shape, max(depth - 1, 1), p, q))
    drift = np.abs(e - np.append(coarse, math.nan)[: len(e)])
    # every mass read at k <= depth - 4 is two levels above the truncation
    graded = list(range(1, depth - 3))[-3:]
    if q == p:
        st, why = "PASS", "u/v constant on E"
    elif len(graded) < 3:
        st, why = "INCONCLUSIVE", (f"only {len(graded)} of 3 levels k <= {depth - 4}, "
                                   f"two above the generation-{depth} truncation")
    elif all(e[k - 1] + drift[k - 1] < 0.95 for k in graded):
        st, why = "REFUTING", "every graded exponent + drift < 0.95"
    elif e[graded[-1] - 1] - drift[graded[-1] - 1] >= 0.95:
        st, why = "PASS", "finest graded exponent - drift >= 0.95"
    else:
        st, why = "INCONCLUSIVE", "the graded exponents straddle 0.95 within their drift"
    # a dense solve's last bits follow the BLAS thread count: 6 digits hide them
    rows = [f"{k},{o:.6g},{x:.6g},{d:.6g}"
            for k, o, x, d in zip(range(1, depth), osc, e, drift)]
    summary = [
        "BHP: osc_k of log(u/v) over level-k cylinders of E ~ r_k^e_k: "
        + " ".join(f"e_{k}={e[k - 1]:.4f} (drift {drift[k - 1]:.2g})" for k in graded)
        + f" (generation {depth} and {depth - 1} solves, u and v the harmonic measures "
        f"of poles {p:.4g} and {q:.4g})",
        f"BHP: u/v Lipschitz on E (e_k >= 0.95 at k={graded}) -> {st} ({why})",
    ]
    return {"bhp.csv": _table(cfg, "k,osc,exponent,drift", rows)}, summary


def _exp_curvature(shape, cfg: ExperimentConfig):
    rep = _require_repeller(shape, cfg.experiment)
    prof = curvature_profile(rep, kmax=cfg.param("kmax"))
    rows = [f"{k},{e.value!r},{e.pairs}" for k, e in zip(prof.ks, prof.estimates)]
    inc = np.diff(prof.values)
    if len(inc) == 0:
        st, detail = "INCONCLUSIVE", "no increments at this kmax"
    else:
        k_arr = np.array(prof.ks[:-1])
        ref = float(inc[k_arr == 3][0]) if 3 in k_arr else float(inc[0])
        growing = bool((inc > 0).all() and ref > 0 and (inc >= 0.5 * ref).all())
        flat = bool(np.allclose(inc, 0.0, atol=1e-12))
        if growing:
            st, detail = "PASS", "increments positive and non-vanishing"
        elif flat:
            st, detail = "REFUTING", "increments all zero (flat support)"
        else:
            st, detail = "INCONCLUSIVE", "increments shrink below half the reference"
    summary = [
        "Mc: c2(mu_k) = "
        + " ".join(f"k{k}:{v:.6g}" for k, v in zip(prof.ks, prof.values)),
        f"Mc: curvature energy diverges (increments >= 0.5x the k=3 increment) "
        f"-> {st} ({detail})",
    ]
    return {"curvature.csv": _table(cfg, "k,value,pairs", rows)}, summary


def _exp_cauchy(shape, cfg: ExperimentConfig):
    wcfg = cfg.walk_config()
    em1 = sample_harmonic_measure(shape, wcfg)
    em2 = sample_harmonic_measure(shape, replace(wcfg, samples=2 * wcfg.samples),
                                  stream=_DOUBLING_STREAM)
    n_eval = min(cfg.param("n_eval"), em1.atom_count)
    rng = rng_stream(cfg.seed, 7)
    zs = em1.points[np.sort(rng.choice(em1.atom_count, size=n_eval, replace=False))]
    # the truncation grid depends on the measure only, not on z
    grid1, grid2 = default_r_grid(em1), default_r_grid(em2)
    _, vals1 = cauchy_truncations(em1, zs, r_grid=grid1)
    _, vals2 = cauchy_truncations(em2, zs, r_grid=grid2)
    max1 = np.abs(vals1).max(axis=1)
    max2 = np.abs(vals2).max(axis=1)
    rows = [
        ",".join(repr(float(x)) for x in (z.real, z.imag, r, v.real, v.imag, mx))
        for z, vals, mx in zip(zs, vals1, max1)
        for r, v in zip(grid1, vals)
    ]
    med1, med2 = quantile(max1), quantile(max2)
    rel = abs(med2 - med1) / med1 if med1 > 0 else math.inf
    st = _grade(rel, 0.1)
    # far-field law: z*C(z) -> 1 with error bounded by 2*diam/|z|
    diam = em1.diameter
    c0 = shape.bounding_center
    radius = np.exp(rng.uniform(np.log(5 * diam), np.log(500 * diam), 1000))
    far = c0 + radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000))
    worst = float(
        np.max(np.abs(far * cauchy_transform(em1, far) - 1.0) * np.abs(far))
        / (2.0 * diam)
    )
    summary = [
        f"star: sup_r |C_r(z)| at {n_eval} boundary atoms: median {med1:.4f} "
        f"(max {float(max1.max()):.4f}); after walk doubling median {med2:.4f}, "
        f"relative change {rel:.4f}",
        f"star: maximal Cauchy transform bounded (change < 10% under doubling) "
        f"-> {st}",
        f"far-field: max |z C(z) - 1| * |z| / (2 diam) over 1000 points = "
        f"{worst:.4f} -> {'PASS' if worst < 1.0 else 'REFUTING'}",
    ]
    header = "z_x,z_y,r,truncated_re,truncated_im,max"
    return {"cauchy.csv": _table(cfg, header, rows)}, summary


def _exp_dimension(shape, cfg: ExperimentConfig):
    rep = _require_repeller(shape, cfg.experiment)
    em = sample_harmonic_measure(rep, cfg.walk_config())
    est = manning_dimension(rep, em, n_boot=cfg.param("n_boot"), seed=cfg.seed)
    k_nat = min(em.code_depth, cfg.param("kmax"))
    control = manning_dimension(rep, natural_measure(rep, k_nat))
    rows = [
        f"{k},{h!r},{l!r},{d!r}"
        for k, h, l, d in zip(est.ks, est.h, est.lam, est.dim_k)
    ]
    lo, hi = est.ci
    gap = hi < 1.0
    if hi < 0.99:
        st = "REFUTING"
    elif lo <= 1.0 <= hi or abs(est.dim - 1.0) <= 0.01:
        st = "PASS"
    else:
        st = "INCONCLUSIVE"
    summary = [
        f"dimension: manning dim={est.dim:.5f} interval "
        f"[{lo:.5f}, {hi:.5f}] (fit over k={list(est.fit_ks)}); "
        f"natural-measure control dim={control.dim:.5f}",
        f"dimension: interval entirely below 1 (dimension gap): "
        f"{'yes' if gap else 'no'}",
        f"om: omega(B(z,r)) ~ r forces dim = 1; measured interval "
        f"[{lo:.5f}, {hi:.5f}] -> {st}",
    ]
    return {"dimension.csv": _table(cfg, "k,h_k,lambda_k,dim_k", rows)}, summary


def _exp_lemma_l(shape, cfg: ExperimentConfig):
    if "delta" in cfg.params:
        delta = cfg.params["delta"]
    elif isinstance(shape, Repeller):
        delta = similarity_dimension(shape)
        if not 0.0 < delta < 1.0:
            raise ConfigError(
                f"similarity dimension {delta:g} is outside (0,1); "
                "pass an explicit delta"
            )
    else:
        raise ConfigError("lemma-L needs an explicit delta for non-IFS shapes")
    a = cfg.params.get("a", 1.0 / shape.max_scale if isinstance(shape, Repeller) else 2.0)
    rep = shell_integral_sums(shape, delta=delta, a=a, kmax=cfg.param("kmax"),
                              rtol=cfg.param("rtol"))
    rows = []
    for k, s in enumerate(rep.sums):
        ratio = repr(rep.sums[k] / rep.sums[k - 1]) if k > 0 and rep.sums[k - 1] > 0 else "nan"
        rows.append(f"{k},{s!r},{ratio}")
    bound = a ** (-(delta**2) + 0.1)
    ratios = rep.ratios
    if ratios and max(ratios) <= bound:
        st = "PASS"
    elif ratios and min(ratios) >= 1.0:
        st = "REFUTING"
    else:
        st = "INCONCLUSIVE"
    summary = [
        f"lemma-L: shell sums of dist^(-(1-delta)(2+delta)), delta={delta:.6f}, "
        f"a={a:g}: total={rep.total:.6g}, max ratio="
        f"{max(ratios) if ratios else math.nan:.4f} vs a^(-delta^2+0.1)={bound:.4f}",
        f"lemma-L: geometric decay of shell sums -> {st}",
    ]
    return {"lemma_l.csv": _table(cfg, "k,s_k,ratio", rows)}, summary


class Experiment(NamedTuple):
    """One experiment: its runner, subcommand, help line and the keys it reads."""

    run: Callable
    command: str
    help: str
    params: dict  # key -> default, or its type where the runner works it out from the shape

_EXPERIMENTS = {
    "regularity": Experiment(
        _exp_regularity, "regularity", "covering component counts and growth fit",
        {"a": float, "kmax": 8}),
    "measure-scaling": Experiment(
        _exp_measure_scaling, "sample", "harmonic measure + ball-mass scaling",
        {"samples": 100_000, "stop_tol": float,
         "n_centers": 32, "n_radii": 6, "r_lo": 0.02, "r_hi": 0.25}),
    "green-comparability": Experiment(
        _exp_green, "green", "Green function comparability fit",
        {"samples": 100_000, "stop_tol": float,
         "n_points": 200, "depth_lo": 0.01, "depth_hi": 0.1}),
    "bhp": Experiment(
        _exp_bhp, "bhp", "boundary oscillation ladder of the ratio of two poles' measures",
        {"pole_p": complex, "pole_q": complex}),
    "curvature-profile": Experiment(
        _exp_curvature, "curvature", "curvature energy profile over generations",
        {"kmax": 5}),
    "cauchy": Experiment(
        _exp_cauchy, "cauchy", "truncated Cauchy transforms at boundary atoms",
        {"samples": 100_000, "stop_tol": float, "n_eval": 100}),
    "dimension-gap": Experiment(
        _exp_dimension, "dimension", "entropy/Lyapunov dimension of the measure",
        {"samples": 100_000, "stop_tol": float, "n_boot": 200, "kmax": 6}),
    "lemma-L": Experiment(
        _exp_lemma_l, "lemma-l", "shell integral sums of a distance power",
        {"delta": float, "a": float, "kmax": 6, "rtol": 0.02}),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)

# every key a config may contain, with its parser: keys naming an
# ExperimentConfig field set that field, the rest become params
_KEY_TYPES = {
    "experiment": str, "shape": str, "seed": int, "out": str, "threads": int,
    **{key: default if isinstance(default, type) else type(default)
       for exp in _EXPERIMENTS.values() for key, default in exp.params.items()},
}


# -- manifest and orchestration ---------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Checksummed record of one experiment run."""

    config_hash: str
    version: str
    seed: int
    wall_clock: float
    files: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _refuse_clashes(out: str, names) -> None:
    """Raise OutputCollisionError if any of the named files exists in out."""
    clashes = [n for n in names if os.path.exists(os.path.join(out, n))]
    if clashes:
        raise OutputCollisionError(
            f"output files exist in {out}: {', '.join(sorted(clashes))} "
            "(pass --force to overwrite)"
        )


def run_experiment(cfg: ExperimentConfig, force: bool = False) -> RunManifest:
    """Run one experiment and persist tables, summary, and manifest."""
    from . import __version__

    if not cfg.out:
        raise ConfigError("no output directory (set key 'out' or pass --out)")
    shape = resolve_shape(cfg.shape)
    if not force:  # every run writes these two, so refuse before running
        _refuse_clashes(cfg.out, ["summary.txt", "manifest.json"])
    start = time.perf_counter()
    tables, summary = _EXPERIMENTS[cfg.experiment].run(shape, cfg)
    wall = time.perf_counter() - start
    if not tables or not summary:
        raise ConfigError(f"experiment {cfg.experiment!r} produced no results")
    tables = dict(tables)
    tables["summary.txt"] = "\n".join([_meta(cfg), *summary]) + "\n"

    os.makedirs(cfg.out, exist_ok=True)
    if not force:
        _refuse_clashes(cfg.out, tables)
    checksums = {}
    for name, text in sorted(tables.items()):
        data = text.encode()
        checksums[name] = hashlib.sha256(data).hexdigest()
        with open(os.path.join(cfg.out, name), "wb") as fh:
            fh.write(data)
    manifest = RunManifest(
        config_hash=hashlib.sha256(cfg.canonical_text().encode()).hexdigest(),
        version=__version__,
        seed=cfg.seed,
        wall_clock=wall,
        files=checksums,
    )
    with open(os.path.join(cfg.out, "manifest.json"), "w") as fh:
        fh.write(manifest.to_json())
    return manifest
