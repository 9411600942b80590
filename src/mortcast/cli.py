"""Command-line entry point: fit, forecast and backtest as reproducible runs.

Every command writes ``run_config.json`` next to its outputs; ``--config
run_config.json`` alone reproduces them byte for byte on the same BLAS and
thread count. Machine-readable files carry round-trip float precision; the
stdout summary rounds to 4 decimals. Exit codes: 0 success, 1 usage or data
error, 2 numerical non-convergence (artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import MortcastError, UsageError
from .threads import thread_cap

# BLAS runs single-threaded unless OPENBLAS_NUM_THREADS (or OMP_/MKL_) or
# MORTCAST_THREADS is set: thread handoff costs more than it saves at these
# sizes, and fixed-order reductions keep reruns byte-identical. The package
# __init__ imports nothing, so this runs before numpy loads; main() reports
# a bad MORTCAST_THREADS, which never reaches BLAS.
try:
    _blas_threads = str(thread_cap() or 1)
except UsageError:
    _blas_threads = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _blas_threads)

import numpy as np

from . import artifacts
from . import cbd as cbd_mod
from . import mixed as mixed_mod
from .backtest import BacktestPlan, emit_report, run_backtest
from .data import (
    build_surface,
    inverse_logit,
    parse_table,
    split_train_test,
    window_counts,
)
from .design import assemble_V, build_design
from .forecasts import normal_quantile
from .mixed import MixedFit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGENCE = 2


@dataclass
class RunConfig:
    """Fully serializable description of one CLI run."""

    command: str
    input: str | None = None
    format: str = "csv"
    sex: str = "total"
    ages: tuple[int, int] | None = None
    years: tuple[int, int] | None = None
    split_year: int | None = None
    model: str | None = "mixed"
    models: tuple[str, ...] = ("mixed", "cbd")
    horizon: int | None = None
    horizons: tuple[int, ...] = (5, 10, 15, 20)
    windows: int = 10
    alpha: float = 0.05
    out: str = "."
    seed: int = 0
    restarts: int = 3
    fit_path: str | None = None
    label: str = "dataset"
    clamp_q: float | None = None
    rw_divisor: str = "n"
    dump_matrices: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict) or "command" not in doc:
            raise UsageError("a run config is a JSON object with a 'command' key")
        # saved when it was a setting; only today's constant reproduces the run
        exposure = doc.pop("synth_exposure", cbd_mod.SYNTH_EXPOSURE)
        if exposure != cbd_mod.SYNTH_EXPOSURE:
            raise UsageError(f"config synth_exposure {exposure!r} cannot be reproduced: "
                             f"counts are synthesized at {cbd_mod.SYNTH_EXPOSURE!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise UsageError(f"unknown config field(s): {unknown}")
        # JSON has no tuples, and the list-valued fields are the tuple ones
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def _range(text: str) -> tuple[int, int]:
    """``LO:HI`` as an inclusive (lo, hi) pair."""
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects LO:HI, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range {lo}:{hi} is reversed")
    return lo, hi


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers, got {text!r}") from None


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mortcast",
        description="Fit, forecast and backtest old-age mortality models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_flags(sp):
        sp.add_argument("--input", help="mortality table file")
        sp.add_argument("--format", choices=["hmd_1x1", "csv"], default="csv")
        sp.add_argument("--sex", choices=["female", "male", "total"], default="total")
        sp.add_argument("--ages", type=_range, default="60:89",
                        help="inclusive age window LO:HI (default 60:89)")
        sp.add_argument("--years", type=_range, help="inclusive year window LO:HI")
        sp.add_argument(
            "--clamp-q",
            nargs="?",
            const=1e-6,
            type=float,
            default=None,
            help="replace q <= 0 cells with this value instead of failing "
            "(default 1e-6 when the flag is given without a value)",
        )

    def add_common(sp):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--config", help="re-run from a saved run_config.json")

    f = sub.add_parser("fit", help="fit one model on a training window")
    add_data_flags(f)
    f.add_argument("--model", choices=["mixed", "cbd"], default="mixed")
    f.add_argument("--split-year", type=int, default=None, dest="split_year",
                   help="train only on years up to this one (the rest of "
                   "the --years window is held out)")
    f.add_argument("--restarts", type=int, default=3)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--dump-matrices", action="store_true",
                   help="also write the mixed model's design and covariances as CSV")
    add_common(f)

    fc = sub.add_parser("forecast", help="forecast from a saved fit artifact")
    fc.add_argument("--fit", dest="fit_path", help="path to fit.json")
    fc.add_argument("--model", choices=["mixed", "cbd"], default=None,
                    help="optional; must match the artifact's model tag")
    fc.add_argument("--horizon", type=int)
    fc.add_argument("--alpha", type=float, default=0.05)
    fc.add_argument("--rw-divisor", choices=["n", "n-1"], default="n")
    add_common(fc)

    b = sub.add_parser("backtest", help="rolling-window evaluation")
    add_data_flags(b)
    b.add_argument("--models", type=_names, default="mixed,cbd",
                   help="comma-separated subset of mixed,cbd")
    b.add_argument("--horizons", type=_ints, default="5,10,15,20")
    b.add_argument("--windows", type=int, default=10)
    b.add_argument("--restarts", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--rw-divisor", choices=["n", "n-1"], default="n")
    b.add_argument("--label", default="dataset")
    add_common(b)
    return p


def _config_from_args(args: argparse.Namespace, argv: list[str]) -> RunConfig:
    if getattr(args, "config", None):
        # every option is a long flag, so the "--" tokens are the flags given
        # (the prefix test passes argparse's abbreviations of --config)
        others = [f for f in (a.split("=")[0] for a in argv if a.startswith("--"))
                  if not "--config".startswith(f)]
        if others:
            raise UsageError("--config takes no other flag; also given: "
                             + " ".join(others))
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        cfg = RunConfig.from_json(path.read_text())
        if cfg.command != args.command:
            raise UsageError(f"{path} reruns 'mortcast {cfg.command}', not "
                             f"'mortcast {args.command}'")
        return cfg
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


def _load_surface(cfg: RunConfig):
    if not cfg.input:
        raise UsageError("--input is required")
    path = Path(cfg.input)
    if not path.exists():
        raise MortcastError(f"input file not found: {path}")
    if cfg.ages is None or cfg.years is None:
        raise UsageError("--ages and --years are required")
    table = parse_table(path.read_text(), cfg.format, sex=cfg.sex)
    surface = build_surface(table, cfg.ages, cfg.years, clamp_q=cfg.clamp_q)
    counts = window_counts(table, cfg.ages, cfg.years)
    return surface, counts


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _matrix_csv(mat: np.ndarray) -> str:
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat)]
    return "\n".join(lines) + "\n"


def cmd_fit(cfg: RunConfig) -> int:
    if cfg.dump_matrices and cfg.model != "mixed":
        raise UsageError("--dump-matrices writes the mixed model's matrices; "
                         f"it takes no --model {cfg.model}")
    surface, counts = _load_surface(cfg)
    if cfg.split_year is not None:
        surface, _ = split_train_test(surface, cfg.split_year)
    out_dir = Path(cfg.out)
    t0 = time.perf_counter()
    if cfg.model == "mixed":
        design = build_design(surface.ages, surface.years)
        fit = mixed_mod.fit(surface.y, design, restarts=cfg.restarts, seed=cfg.seed)
        summary = [
            f"log-likelihood: {fit.loglik:.4f}",
            "params: "
            + ", ".join(
                f"{name}={getattr(fit.params, name):.4g}"
                for name in fit.params.NAMES
            ),
            f"beta: [{fit.fixed.beta[0]:.4f}, {fit.fixed.beta[1]:.4f}]",
            f"converged: {fit.converged} ({fit.n_iter} iterations)",
        ]
        if fit.sigma2_boundary:
            summary.append("warning: sigma2 at its lower boundary")
        if cfg.dump_matrices:
            K1, K2, K3 = fit.evaluation.kernels
            for name, mat in [
                ("T", design.T), ("Z1", design.Z1), ("Z2", design.Z2),
                ("Z3", design.Z3), ("K1", K1), ("K2", K2), ("K3", K3),
                ("V", assemble_V(fit.params, design)),
            ]:
                _write(out_dir, f"matrix_{name}.csv", _matrix_csv(mat))
    else:
        D, E = counts or cbd_mod.synthesize_counts(surface.q)
        k = surface.n_years  # counts span the whole --years window
        fit = cbd_mod.fit_cbd(D[:k], E[:k], surface.ages, surface.years)
        r1, r2 = fit.constraint_residuals
        summary = [
            f"poisson log-likelihood: {fit.loglik:.4f}",
            f"constraint residuals: ({r1:.2e}, {r2:.2e})",
            f"converged: {fit.converged} ({fit.n_sweeps} sweeps)",
        ]
    elapsed = time.perf_counter() - t0
    _write(out_dir, "run_config.json", cfg.to_json())  # makes out_dir for fit.json
    artifacts.save_fit(fit, out_dir / "fit.json")
    print(f"model: {cfg.model} ({surface.years[0]}-{surface.years[-1]}, "
          f"ages {surface.ages[0]}-{surface.ages[-1]})")
    print("\n".join(summary))
    print(f"fit written to {out_dir / 'fit.json'} in {elapsed:.1f}s")
    return EXIT_OK if fit.converged else EXIT_NONCONVERGENCE


def cmd_forecast(cfg: RunConfig) -> int:
    if not cfg.fit_path:
        raise UsageError("--fit is required")
    if cfg.horizon is None or cfg.horizon <= 0:
        raise UsageError("--horizon must be a positive integer")
    normal_quantile(cfg.alpha)  # rejects a bad --alpha before the artifact loads
    path = Path(cfg.fit_path)
    if not path.exists():
        raise MortcastError(f"fit artifact not found: {path}")
    fit = artifacts.load_fit(path)
    tag = "mixed" if isinstance(fit, MixedFit) else "cbd"
    if cfg.model is not None and cfg.model != tag:
        raise UsageError(
            f"artifact model tag {tag!r} does not match --model {cfg.model!r}"
        )
    if isinstance(fit, MixedFit):
        fc = mixed_mod.forecast(fit, cfg.horizon)
    else:
        drift = cbd_mod.estimate_rw(fit, divisor=cfg.rw_divisor)
        fc = cbd_mod.forecast_cbd(fit, drift, cfg.horizon)

    # (year, age, mean, q, lo, hi) per cell, in (year, age) order
    years, ages = np.meshgrid(fc.years, fc.ages, indexing="ij")
    grids = (years, ages, fc.mean, inverse_logit(fc.mean), *fc.interval(cfg.alpha))
    rows = list(zip(*(g.ravel().tolist() for g in grids)))
    level = f"{100 * (1 - cfg.alpha):.15g}"  # the band's exact coverage, in percent
    out_dir = Path(cfg.out)
    head = f"year,age,mean_logit,q_mean,lo{level},hi{level}\n"
    body = "".join(
        f"{t},{x},{m!r},{q!r},{lo!r},{hi!r}\n" for t, x, m, q, lo, hi in rows
    )
    _write(out_dir, "forecast.csv", head + body)
    by_age = sorted(rows, key=lambda r: (r[1], r[0]))
    plot = f"age,year,mean_logit,lo{level},hi{level}\n" + "".join(
        f"{x},{t},{m!r},{lo!r},{hi!r}\n" for t, x, m, q, lo, hi in by_age
    )
    _write(out_dir, "plot_data.csv", plot)
    _write(out_dir, "run_config.json", cfg.to_json())
    print(
        f"{tag} forecast: {fc.years.size} years x {fc.ages.size} ages "
        f"({len(rows)} rows) written to {out_dir / 'forecast.csv'}"
    )
    return EXIT_OK


def cmd_backtest(cfg: RunConfig) -> int:
    surface, counts = _load_surface(cfg)
    plan = BacktestPlan(**{f.name: getattr(cfg, f.name)
                           for f in fields(BacktestPlan) if hasattr(cfg, f.name)})
    deaths, exposures = counts if counts is not None else (None, None)
    t0 = time.perf_counter()
    report = run_backtest(plan, surface, deaths, exposures)
    elapsed = time.perf_counter() - t0
    out_dir = Path(cfg.out)
    _write(out_dir, "report.csv", emit_report(report, "csv"))
    _write(out_dir, "report.md", emit_report(report, "markdown-table"))
    _write(out_dir, "report.json", emit_report(report, "json"))
    _write(out_dir, "run_config.json", cfg.to_json())
    print(emit_report(report, "markdown-table"))
    if report.failures:
        print(f"WARNING: {len(report.failures)} window(s) excluded after fit failures",
              file=sys.stderr)
    print(f"backtest finished in {elapsed:.1f}s; reports in {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        thread_cap()  # a bad MORTCAST_THREADS fails every command, not just backtest
        cfg = _config_from_args(args, argv)  # cfg.command is args.command
        run = {"fit": cmd_fit, "forecast": cmd_forecast, "backtest": cmd_backtest}
        return run[cfg.command](cfg)
    except (MortcastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
