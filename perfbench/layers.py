"""Per-layer metrics of one traced operation, derived from its spans.

Times are seconds spent inside the named function, summed over the
operation (all of its CLI commands); counts are taken at the same
wrappers. A layer the workload never enters reads 0.
"""

from __future__ import annotations

import statistics

#: (name, unit, better) of every per-layer metric, in report order
METRICS = [
    ("cli.import_s", "s", "lower"),
    ("cli.blas_threads_numpy", "count", "lower"),
    ("cli.blas_threads_scipy", "count", "lower"),
    ("data.parse_table_s", "s", "lower"),
    ("data.build_surface_s", "s", "lower"),
    ("data.window_counts_s", "s", "lower"),
    ("design.build_design_s", "s", "lower"),
    ("design.build_covariances_s", "s", "lower"),
    ("design.cholesky_s", "s", "lower"),
    ("design.cholesky_calls", "count", "lower"),
    ("design.jitter_events", "count", "lower"),
    ("design.cholesky_failures", "count", "lower"),
    ("design.assemble_V_ms", "ms", "lower"),
    ("design.cholesky_ms", "ms", "lower"),
    ("mixed.fit_s", "s", "lower"),
    ("mixed.fit_self_s", "s", "lower"),
    ("mixed.iters_per_fit", "count", "lower"),
    ("mixed.evals_per_fit", "count", "lower"),
    ("mixed.iters_per_eval", "ratio", "higher"),
    ("mixed.forecast_s", "s", "lower"),
    ("mixed.factorizations_per_forecast", "count", "lower"),
    ("mixed.loglik_ms", "ms", "lower"),
    ("mixed.grad_ms", "ms", "lower"),
    ("mixed.gls_beta_ms", "ms", "lower"),
    ("artifacts.save_fit_s", "s", "lower"),
    ("artifacts.load_fit_s", "s", "lower"),
    ("artifacts.fit_json_bytes", "bytes", "lower"),
    ("artifacts.factorizations_per_load", "count", "lower"),
    ("cbd.fit_s", "s", "lower"),
    ("cbd.sweeps_per_fit", "count", "lower"),
    ("cbd.ll_evals_per_fit", "count", "lower"),
    ("cbd.sweeps_per_ll_eval", "ratio", "higher"),
    ("cbd.estimate_rw_s", "s", "lower"),
    ("cbd.forecast_s", "s", "lower"),
    ("backtest.run_s", "s", "lower"),
    ("backtest.tasks", "count", "lower"),
    ("backtest.distinct_windows", "count", "lower"),
    ("backtest.fits_per_distinct_window", "ratio", "lower"),
    ("backtest.failed_windows", "count", "lower"),
    ("backtest.workers", "count", "higher"),
    ("backtest.pool_busy_share", "ratio", "higher"),
    ("backtest.pool_cpu_s", "s", "lower"),
    ("backtest.emit_report_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


def _ratio(num, den):
    return num / den if den else 0.0


class SpanTree:
    """Spans of one CLI process, indexed by id."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def descendants(self, span):
        out, todo = [], list(self.children[span["id"]])
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children[s["id"]])
        return out


def _dur(span):
    return span["end"] - span["start"]


def _self_time(tree, span):
    # children are nested calls on one thread, so they never overlap
    return _dur(span) - sum(_dur(c) for c in tree.children[span["id"]])


def layer_metrics(commands, fit_json_bytes, pool, overhead_s, micro):
    """Metrics of one traced operation.

    ``commands`` holds the child documents of the operation's traced CLI
    processes, ``pool`` that of the untraced backtest with its shipped pool
    size, with the CPU time of its process tree as ``cpu_s``, ``micro`` the
    single-call timings.
    """
    trees = [SpanTree(c["spans"]) for c in commands]

    def spans(name):
        return [(t, s) for t in trees for s in t.named(name)]

    def total(name):
        return sum((_dur(s) for _, s in spans(name)), 0.0)

    def under(name, inner):
        return sum(1 for t, s in spans(name) for d in t.descendants(s) if d["name"] == inner)

    def counted_under(name, counter):
        n = 0
        for t, s in spans(name):
            for d in [s] + t.descendants(s):
                n += d.get("counts", {}).get(counter, 0)
        return n

    chol = [s for _, s in spans("design.cholesky_with_jitter")]
    fits = [s for _, s in spans("mixed.fit") if "info" in s]
    cbd_fits = [s for _, s in spans("cbd.fit_cbd") if "info" in s]
    n_forecasts = len(spans("mixed.forecast"))
    n_loads = len(spans("artifacts.load_fit"))
    iters = sum(s["info"]["n_iter"] for s in fits)
    evals = under("mixed.fit", "design.cholesky_with_jitter")
    sweeps = sum(s["info"]["n_sweeps"] for s in cbd_fits)
    ll_evals = counted_under("cbd.fit_cbd", "cbd.death_rate")

    bt = spans("backtest.run_backtest")
    results = [r for _, s in bt for r in s.get("info", {}).get("results", [])]
    distinct = len({(m, end) for m, end, _ in results})
    bt_fits = sum(under("backtest.run_backtest", f) for f in ("mixed.fit", "cbd.fit_cbd"))
    task_time = sum(_dur(s) for _, s in bt)
    pool_spans = SpanTree(pool["spans"]).named("backtest.run_backtest")
    pool_wall = sum(_dur(s) for s in pool_spans)
    workers = pool["workers"] or 1

    return {
        "cli.import_s": statistics.median(c["import_s"] for c in commands),
        "cli.blas_threads_numpy": commands[0]["blas_threads"]["numpy"],
        "cli.blas_threads_scipy": commands[0]["blas_threads"]["scipy"],
        "data.parse_table_s": total("data.parse_table"),
        "data.build_surface_s": total("data.build_surface"),
        "data.window_counts_s": total("data.window_counts"),
        "design.build_design_s": total("design.build_design"),
        "design.build_covariances_s": total("design.build_covariances"),
        "design.cholesky_s": sum(_dur(s) for s in chol),
        "design.cholesky_calls": len(chol),
        "design.jitter_events": sum(1 for s in chol if s.get("info", {}).get("jitter", 0.0)),
        "design.cholesky_failures": sum(1 for s in chol if s.get("error")),
        "design.assemble_V_ms": micro["assemble_V_ms"],
        "design.cholesky_ms": micro["cholesky_ms"],
        "mixed.fit_s": total("mixed.fit"),
        "mixed.fit_self_s": sum(_self_time(t, s) for t, s in spans("mixed.fit")),
        "mixed.iters_per_fit": _ratio(iters, len(fits)),
        "mixed.evals_per_fit": _ratio(evals, len(fits)),
        "mixed.iters_per_eval": _ratio(iters, evals),
        "mixed.forecast_s": total("mixed.forecast"),
        "mixed.factorizations_per_forecast": _ratio(
            under("mixed.forecast", "design.cholesky_with_jitter"), n_forecasts),
        "mixed.loglik_ms": micro["loglik_ms"],
        "mixed.grad_ms": micro["grad_ms"],
        "mixed.gls_beta_ms": micro["gls_beta_ms"],
        "artifacts.save_fit_s": total("artifacts.save_fit"),
        "artifacts.load_fit_s": total("artifacts.load_fit"),
        "artifacts.fit_json_bytes": fit_json_bytes,
        "artifacts.factorizations_per_load": _ratio(
            under("artifacts.load_fit", "design.cholesky_with_jitter"), n_loads),
        "cbd.fit_s": total("cbd.fit_cbd"),
        "cbd.sweeps_per_fit": _ratio(sweeps, len(cbd_fits)),
        "cbd.ll_evals_per_fit": _ratio(ll_evals, len(cbd_fits)),
        "cbd.sweeps_per_ll_eval": _ratio(sweeps, ll_evals),
        "cbd.estimate_rw_s": total("cbd.estimate_rw"),
        "cbd.forecast_s": total("cbd.forecast_cbd"),
        "backtest.run_s": task_time,
        "backtest.tasks": len(results),
        "backtest.distinct_windows": distinct,
        "backtest.fits_per_distinct_window": _ratio(bt_fits, distinct),
        "backtest.failed_windows": sum(1 for *_, failed in results if failed),
        "backtest.workers": workers,
        "backtest.pool_busy_share": _ratio(task_time, workers * pool_wall),
        "backtest.pool_cpu_s": pool["cpu_s"],
        "backtest.emit_report_s": total("backtest.emit_report"),
        "trace.overhead_s": overhead_s,
    }
