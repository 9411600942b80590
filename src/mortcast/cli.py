"""Command-line entry point: fit, forecast and backtest as reproducible runs.

Every command writes ``run_config.json`` next to its outputs; ``mortcast rerun
run_config.json`` repeats that run from the whole file, byte for byte on the
same BLAS library and BLAS thread count. Machine-readable files carry
round-trip float precision; the stdout summary rounds to 4 decimals. Exit
codes: 0 success, 1 usage or data error, 2 numerical non-convergence
(artifacts are still written).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import MortcastError, UsageError

# BLAS runs single-threaded unless OPENBLAS_NUM_THREADS (or OMP_/MKL_) is
# set: thread handoff costs more than it saves at these sizes, a fixed thread
# count keeps reruns byte-identical, and the backtest's parallel workers
# would otherwise oversubscribe the cores. The package __init__ imports
# nothing, so this runs before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import artifacts  # each command imports the model it runs
from .data import SYNTH_EXPOSURE, build_surface, inverse_logit, parse_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGENCE = 2

#: settings that saved configs may still hold, each at the one value that
#: today's code reproduces; a config holding any other value cannot rerun
RETIRED_SETTINGS = {"synth_exposure": SYNTH_EXPOSURE, "dump_matrices": False,
                    "split_year": None, "rw_divisor": "n"}


@dataclass
class RunConfig:
    """Fully serializable description of one CLI run."""

    command: str
    input: str | None = None
    format: str = "csv"
    sex: str = "total"
    ages: tuple[int, int] | None = None
    years: tuple[int, int] | None = None
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise UsageError("a run config is a JSON object")
        for key, value in RETIRED_SETTINGS.items():
            saved = doc.pop(key, value)
            if saved != value:
                raise UsageError(f"config {key} {json.dumps(saved)} cannot be reproduced: "
                                 f"the setting is retired at {json.dumps(value)}")
        known = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise UsageError(f"unknown config field(s): {unknown}")
        missing = [name for name in known if name not in doc]
        if missing:
            raise UsageError(f"config lacks field(s): {missing}")
        # JSON has no tuples, and the list-valued fields are the tuple ones
        doc = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
        hints = typing.get_type_hints(cls)
        for key, value in doc.items():
            if not _typed(value, hints[key]):
                raise UsageError(f"config {key} {value!r} is not {known[key]}")
        if doc["command"] not in ("fit", "forecast", "backtest"):
            raise UsageError(f"config 'command' {doc['command']!r} is not "
                             "fit, forecast or backtest")
        if doc["command"] == "fit" and doc["model"] not in ("mixed", "cbd"):
            raise UsageError(f"config 'model' {doc['model']!r} is not mixed or cbd")
        return cls(**doc)


def _typed(value, hint) -> bool:
    """Whether a config value (JSON lists made tuples) has the field type ``hint``."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_typed(value, a) for a in args)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, tuple):
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_typed, value, items))
    return type(value) is hint or (hint is float and type(value) is int)


def _range(text: str) -> tuple[int, int]:
    """``LO:HI`` as an inclusive (lo, hi) pair; ``data`` rejects a reversed one."""
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects LO:HI, got {text!r}") from None
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

    f = sub.add_parser("fit", help="fit one model on a training window")
    add_data_flags(f)
    f.add_argument("--model", choices=["mixed", "cbd"], default="mixed")
    f.add_argument("--restarts", type=int, default=3)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", default=".", help="output directory")

    fc = sub.add_parser("forecast", help="forecast from a saved fit artifact")
    fc.add_argument("--fit", dest="fit_path", help="path to fit.json")
    fc.add_argument("--horizon", type=int)
    fc.add_argument("--alpha", type=float, default=0.05)
    fc.set_defaults(model=None)  # the artifact's tag decides the model
    fc.add_argument("--out", default=".", help="output directory")

    b = sub.add_parser("backtest", help="rolling-window evaluation")
    add_data_flags(b)
    b.add_argument("--models", type=_names, default="mixed,cbd",
                   help="comma-separated subset of mixed,cbd")
    b.add_argument("--horizons", type=_ints, default="5,10,15,20")
    b.add_argument("--windows", type=int, default=10)
    b.add_argument("--restarts", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--label", default="dataset")
    b.add_argument("--out", default=".", help="output directory")

    r = sub.add_parser("rerun", help="repeat the run a saved run_config.json names")
    r.add_argument("run_config", help="path to run_config.json")
    return p


def _load_surface(cfg: RunConfig):
    if not cfg.input:
        raise UsageError("--input is required")
    path = Path(cfg.input)
    if not path.exists():
        raise MortcastError(f"input file not found: {path}")
    if cfg.ages is None or cfg.years is None:
        raise UsageError("--ages and --years are required")
    table = parse_table(path.read_text(), cfg.format, sex=cfg.sex)
    return build_surface(table, cfg.ages, cfg.years, clamp_q=cfg.clamp_q)


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def cmd_fit(cfg: RunConfig) -> int:
    surface = _load_surface(cfg)
    out_dir = Path(cfg.out)
    t0 = time.perf_counter()
    if cfg.model == "mixed":
        from . import mixed as mixed_mod
        from .design import build_design
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
    elif cfg.model == "cbd":
        from .cbd import fit_cbd
        fit = fit_cbd(*surface.counts, surface.ages, surface.years)
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
    from .forecasts import normal_quantile
    normal_quantile(cfg.alpha)  # rejects a bad --alpha before the artifact loads
    path = Path(cfg.fit_path)
    if not path.exists():
        raise MortcastError(f"fit artifact not found: {path}")
    fit = artifacts.load_fit(path)
    if fit.MODEL == "mixed":
        from .mixed import forecast
        fc = forecast(fit, cfg.horizon)
    else:
        from .cbd import estimate_rw, forecast_cbd
        fc = forecast_cbd(fit, estimate_rw(fit), cfg.horizon)

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
        f"{fit.MODEL} forecast: {fc.years.size} years x {fc.ages.size} ages "
        f"({len(rows)} rows) written to {out_dir / 'forecast.csv'}"
    )
    return EXIT_OK


def cmd_backtest(cfg: RunConfig) -> int:
    # the one command with a process pool imports it and reads its size
    from .backtest import BacktestPlan, emit_report, run_backtest

    threads = os.environ.get("MORTCAST_THREADS", "")
    if threads and not (threads.strip().isdecimal() and int(threads) > 0):
        raise UsageError(f"MORTCAST_THREADS must be a positive integer, got {threads!r}")
    surface = _load_surface(cfg)
    plan = BacktestPlan(**{f.name: getattr(cfg, f.name)
                           for f in fields(BacktestPlan) if hasattr(cfg, f.name)},
                        workers=int(threads) if threads else None)
    t0 = time.perf_counter()
    report = run_backtest(plan, surface)
    elapsed = time.perf_counter() - t0
    out_dir = Path(cfg.out)
    markdown = emit_report(report, "markdown-table")
    _write(out_dir, "report.csv", emit_report(report, "csv"))
    _write(out_dir, "report.md", markdown)
    _write(out_dir, "report.json", emit_report(report, "json"))
    _write(out_dir, "run_config.json", cfg.to_json())
    print(markdown)
    if report.failures:
        print(f"WARNING: {len(report.failures)} window(s) excluded after fit failures",
              file=sys.stderr)
    print(f"backtest finished in {elapsed:.1f}s; reports in {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        if args.command == "rerun":
            cfg = RunConfig.from_json(Path(args.run_config).read_text())
        else:
            cfg = RunConfig(**{f.name: getattr(args, f.name)
                               for f in fields(RunConfig) if hasattr(args, f.name)})
        run = {"fit": cmd_fit, "forecast": cmd_forecast, "backtest": cmd_backtest}
        return run[cfg.command](cfg)
    except (MortcastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_entry() -> None:
    gc.freeze()  # shutdown's cycle collections then skip the import-time heap
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
