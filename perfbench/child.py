"""Code that runs inside a fresh interpreter started by run.py.

    python3 perfbench/child.py probe RESULT INPUT AGES YEARS
    python3 perfbench/child.py cli RESULT {plain,traced} {pool,serial} -- CLI ARGS...
    python3 perfbench/child.py micro RESULT INPUT AGES YEARS PARAMS_JSON REPS

``probe`` is the set-up a CLI call pays before modelling: import
``mortcast.cli`` and load the input. ``cli`` runs ``mortcast.cli.main`` with
the argument list, either with only the ``run_backtest`` wall clock
(``plain``) or with every wrapper of tracer.py (``traced``); ``serial``
runs the backtest with ``BacktestPlan(workers=1)`` because spans recorded in
forked pool workers would be lost. ``micro`` times single calls of the
likelihood kernels. Each mode writes one JSON document to RESULT.
"""

from __future__ import annotations

import ctypes
import json
import statistics
import sys
import time


def blas_threads() -> dict:
    """OpenBLAS thread counts of the numpy and scipy builds loaded here."""
    found = {"numpy": 0, "scipy": 0}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        owner = "numpy" if "numpy" in path else "scipy" if "scipy" in path else None
        if owner is None:
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[owner] = int(fn())
                break
    return found


def _pair(text):
    lo, hi = text.split(":")
    return int(lo), int(hi)


def _import_cli():
    t0 = time.perf_counter()
    import mortcast.cli as cli

    return cli, time.perf_counter() - t0


def probe(input_path, ages, years):
    cli, import_s = _import_cli()
    from mortcast.data import build_surface, parse_table, window_counts

    with open(input_path) as fh:
        table = parse_table(fh.read(), "csv")
    build_surface(table, _pair(ages), _pair(years))
    window_counts(table, _pair(ages), _pair(years))
    return {"import_s": import_s, "blas_threads": blas_threads()}


def run_cli(mode, backtest_mode, argv):
    cli, import_s = _import_cli()
    import mortcast.backtest as bt
    from tracer import Tracer

    tracer = Tracer()
    if mode == "traced":
        tracer.install()
    tracer.time_backtest(serial=backtest_mode == "serial", pool_owner=bt)
    doc = {"import_s": import_s, "blas_threads": blas_threads()}
    try:
        doc["exit"] = cli.main(argv)
    finally:
        doc.update(tracer.dump())
    return doc


def micro(input_path, ages, years, params_json, reps):
    """Median single-call times (ms) at the training window's size."""
    import numpy as np
    import scipy.linalg

    import mortcast.design as design_mod
    import mortcast.mixed as mixed_mod
    from mortcast.data import build_surface, parse_table

    with open(input_path) as fh:
        table = parse_table(fh.read(), "csv")
    surface = build_surface(table, _pair(ages), _pair(years))
    d = design_mod.build_design(surface.ages, surface.years)
    y = mixed_mod.stack_grid(surface.y)
    p = design_mod.KernelParams(**json.loads(params_json))
    beta = mixed_mod.gls_beta(y, p, d)
    V = design_mod.assemble_V(p, d)

    def ms(fn):
        fn()  # warm-up
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    out = {
        "N": int(y.size),
        "assemble_V_ms": ms(lambda: design_mod.assemble_V(p, d)),
        "cholesky_ms": ms(lambda: design_mod.cholesky_with_jitter(V)),
        "loglik_ms": ms(lambda: mixed_mod.log_likelihood(y, beta, p, d)),
        "grad_ms": ms(lambda: mixed_mod.grad_loglik(y, beta, p, d)),
        "gls_beta_ms": ms(lambda: mixed_mod.gls_beta(y, p, d)),
    }
    # the per-evaluation split of the hand measurement, for comparison only;
    # it reaches private helpers and dense design fields, so a part whose
    # helper or field is gone is left out
    L, _ = design_mod.cholesky_with_jitter(V)
    parts = {
        "V gather": lambda: design_mod._assemble_V_from_kernels(
            p.sigma2, d, *design_mod.build_covariances(p, d)),
        "Cholesky": lambda: design_mod.cholesky_with_jitter(V),
        "trtri": lambda: mixed_mod._trace_inverse(L),
        "solves": lambda: scipy.linalg.cho_solve(
            (L, True), np.column_stack([d.T, y, d.Z1, d.Z2, d.Z3]), check_finite=False),
    }
    out["split_ms"] = {}
    for name, fn in parts.items():
        try:
            out["split_ms"][name] = ms(fn)
        except AttributeError:
            pass
    return out


def main(argv):
    mode, result = argv[0], argv[1]
    if mode == "probe":
        doc = probe(*argv[2:5])
    elif mode == "cli":
        sep = argv.index("--")
        doc = run_cli(argv[2], argv[3], argv[sep + 1:])
    elif mode == "micro":
        doc = micro(*argv[2:6], int(argv[6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result, "w") as fh:
        json.dump(doc, fh)
    return int(doc.get("exit", 0) or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
