"""Spans around the calls into each mortcast layer, recorded from outside.

Wrappers replace the module attributes of the layers' public functions in
every mortcast namespace that holds them (``mortcast.mixed`` calls
``cholesky_with_jitter`` through its own import, for example), so calls
between modules are caught as well as calls from the CLI. Spans stay in
memory and are returned by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

#: layer module -> public functions timed with a span
TIMED = {
    "data": ("parse_table", "build_surface", "window_counts"),
    "design": ("build_design", "build_covariances", "build_forecast_covariances",
               "cholesky_with_jitter"),
    "mixed": ("fit", "forecast", "blup"),
    "cbd": ("fit_cbd", "estimate_rw", "forecast_cbd"),
    "artifacts": ("save_fit", "load_fit"),
    "backtest": ("run_backtest", "emit_report"),
}
#: called too often to time; only counted, on the innermost open span
COUNTED = {"cbd": ("death_rate",)}


def _fit_info(fit):
    return {"n_iter": int(fit.n_iter), "loglik": float(fit.loglik),
            "converged": bool(fit.converged)}


#: what each span keeps of its function's return value
INFO = {
    "mixed.fit": _fit_info,
    "cbd.fit_cbd": lambda fit: {"n_sweeps": int(fit.n_sweeps)},
    "design.cholesky_with_jitter": lambda res: {"jitter": float(res[1])},
    "backtest.run_backtest": lambda rep: {
        "results": [[r.model, int(r.train_end), bool(r.failed)] for r in rep.results]},
}


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mortcast" or name.startswith("mortcast."))]


def _replace_everywhere(original, replacement) -> None:
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.root_counts: dict[str, int] = {}
        self.workers: int | None = None

    def wrap(self, name, fn, args_hook=None):
        info = INFO.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if args_hook is not None:
                args, kwargs = args_hook(args, kwargs)
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1]["id"] if self.stack else None}
            self.spans.append(span)
            self.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if info is not None:
                span["info"] = info(result)
            return result

        return timed

    def counted(self, name, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts = self.stack[-1].setdefault("counts", {}) if self.stack else self.root_counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def install(self) -> None:
        """Wrap every function in TIMED and COUNTED wherever it is bound."""
        for table, make in ((TIMED, self.wrap), (COUNTED, self.counted)):
            for layer, names in table.items():
                mod = sys.modules[f"mortcast.{layer}"]
                for fname in names:
                    original = getattr(mod, fname)
                    _replace_everywhere(original, make(f"{layer}.{fname}", original))

    def time_backtest(self, serial: bool, pool_owner) -> None:
        """Give ``run_backtest`` a span even when nothing else is traced,
        record the pool size it starts, and with ``serial`` force one worker."""
        current = pool_owner.run_backtest

        def one_worker(args, kwargs):
            plan = args[0] if args else kwargs["plan"]
            if any(f.name == "workers" for f in dataclasses.fields(plan)):
                plan = dataclasses.replace(plan, workers=1)
            if args:
                return (plan,) + tuple(args[1:]), kwargs
            return args, dict(kwargs, plan=plan)

        # install() may have wrapped it already: re-wrap the original
        original = getattr(current, "__wrapped__", current)
        wrapped = self.wrap("backtest.run_backtest", original,
                            one_worker if serial else None)
        _replace_everywhere(current, wrapped)

        executor = getattr(pool_owner, "ProcessPoolExecutor", None)
        if executor is not None:
            tracer = self

            class RecordingExecutor(executor):
                def __init__(self, max_workers=None, *args, **kwargs):
                    tracer.workers = max_workers
                    super().__init__(max_workers, *args, **kwargs)

            pool_owner.ProcessPoolExecutor = RecordingExecutor

    def dump(self) -> dict:
        return {"spans": self.spans, "root_counts": self.root_counts,
                "workers": self.workers}
