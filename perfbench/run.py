"""mortcast benchmark: the CLI run as a user runs it, on seeded synthetic data.

    python3 perfbench/run.py --workload fit-paper --seed 0 --seconds 40 --trace 0

Run from the root of a mortcast checkout; the program is imported from its
``src/`` tree. One closed-loop client runs one operation after another
(``fit``, ``forecast``, ``backtest``; see workloads.py) until ``--seconds``
have passed, each CLI command in a fresh interpreter with the BLAS and
worker-count variables removed from its environment, so shipped defaults
are measured. Every command's outputs are checked; a failed check or a
fingerprint that differs from the committed one counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics (medians over the run's
operations). ``--trace 1`` instead runs one untraced and one traced
operation, both with a serial backtest, plus the backtest with its shipped
pool and the likelihood microbenchmarks, and reports the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_MIN = 5
#: fewest samples of the short commands (forecast, backtest) in a run; a run
#: with fewer adds pairs to its last operation, so that their medians can
#: drop an outlier
SHORT_MIN = 5
#: extra pair k of a run (see Runner.extra_pair) back-tests noise draw
#: EXTRA_DRAW0 + k, which no operation of the run reaches
EXTRA_DRAW0 = 10_000
MICRO_REPS = 5
#: no new operation starts once this much of the run has gone
OPS_BUDGET_S = 110.0
#: any command still running this long after the run started is killed,
#: so the run ends within its 180 s limit
RUN_DEADLINE_S = 170.0
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "MORTCAST_THREADS")
#: hand-measured per-evaluation split at N = 1800 (ROADMAP baseline), ms
ROADMAP_SPLIT_MS = {"V gather": 61, "Cholesky": 68, "trtri": 77, "solves": 27}
#: fingerprint keys each command produces
FP_OWNER = {"fit": "fit_", "forecast": "forecast_", "backtest": "pooled_rmse."}

END_TO_END = [
    ("setup_s", "s"), ("fit_s", "s"), ("fit_cpu_s", "s"), ("forecast_s", "s"),
    ("backtest_s", "s"), ("peak_rss_mb", "MB"),
]


class Proc:
    """Wall time, CPU and peak RSS of one child process tree."""

    def __init__(self, argv, env, log_path, cwd, timeout_s):
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                                 stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(max(timeout_s, 1.0), _kill_group, (p.pid,))
            timer.start()
            try:
                # wait4 reports the child's usage including the children it
                # reaped itself, so pool workers' CPU is counted
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        p.returncode = self.exit = os.waitstatus_to_exitcode(status)
        _kill_group(p.pid)  # nothing of the tree may outlive the command
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Runner:
    """Runs one workload's operations. Operation i >= 1 reads noise draw i
    of the seed; the first operation reads draw 0 of seed mod FP_SEEDS,
    and its fingerprint is compared with ``expected_fp`` unless that is
    None."""

    def __init__(self, root: Path, workload, seed: int, expected_fp: dict | None):
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.root = root
        self.w = workload
        self.seed = seed
        self.expected_fp = expected_fp
        self.work = root / ".perfbench_out" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.drawn: dict[int, tuple] = {}
        self.env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: list[dict] = []
        self.extras = 0

    def inputs(self, draw: int):
        """(Inputs, fit CSV path, backtest CSV path) of a noise draw,
        generated on first use."""
        if draw not in self.drawn:
            from workloads import FP_SEEDS, make_inputs

            seed = self.seed % FP_SEEDS if draw == 0 else self.seed
            inputs = make_inputs(self.w, seed, draw)
            path = self.work / f"input-{draw}.csv"
            path.write_text(inputs.csv_text)
            backtest_path = path
            if inputs.backtest_csv != inputs.csv_text:
                backtest_path = self.work / f"backtest-input-{draw}.csv"
                backtest_path.write_text(inputs.backtest_csv)
            self.drawn[draw] = inputs, path, backtest_path
        return self.drawn[draw]

    def backtest_input(self, draw: int) -> Path:
        """Backtest CSV path of a noise draw no operation reads."""
        from workloads import make_backtest_csv

        path = self.work / f"backtest-input-{draw}.csv"
        if not path.exists():
            path.write_text(make_backtest_csv(self.w, self.seed, draw))
        return path

    # -------------------------------------------------------- processes

    def spawn(self, argv, tag) -> Proc:
        return Proc([sys.executable, *argv], self.env, self.work / f"{tag}.log", self.root,
                    self.deadline - time.perf_counter())

    def child(self, mode, tag, *args) -> tuple[Proc, dict]:
        result = self.work / f"{tag}.json"
        proc = self.spawn([str(HERE / "child.py"), mode, str(result), *args], tag)
        doc = json.loads(result.read_text()) if result.exists() else None
        if doc is None and mode != "cli":
            raise RuntimeError(f"{mode} child failed; see {self.work / tag}.log")
        return proc, doc

    # ---------------------------------------------------------- set-up

    def probe(self, tag) -> tuple[Proc, dict]:
        """A fresh interpreter importing mortcast.cli and loading the input."""
        w = self.w
        path = self.inputs(0)[1]
        return self.child("probe", tag, str(path), _span(w.ages), _span(w.years))

    # ------------------------------------------------------ operations

    def commands(self, out: Path, path: Path, backtest_path: Path):
        w = self.w
        fit = ["fit", "--model", w.model, "--input", str(path),
               "--ages", _span(w.ages), "--years", _span(w.train_years), "--out", str(out)]
        if w.model == "mixed":
            fit += ["--restarts", "1"]
        forecast = ["forecast", "--fit", str(out / "fit.json"),
                    "--horizon", str(w.holdout), "--out", str(out)]
        backtest = ["backtest", "--input", str(backtest_path), "--ages", _span(w.ages),
                    "--years", _span(w.years), *w.backtest_args, "--out", str(out)]
        return [("fit", fit), ("forecast", forecast), ("backtest", backtest)]

    def check(self, name, exit_code, out: Path, inputs, fp: dict, expected_fp) -> None:
        from workloads import (Check, check_backtest, check_fit, check_forecast,
                               compare_fingerprint)

        check = Check()
        check(exit_code == 0, f"exit code {exit_code}")
        if exit_code == 0:
            try:
                if name == "fit":
                    check_fit(self.w, inputs, out, check, fp)
                elif name == "forecast":
                    check_forecast(self.w, inputs, out, check, fp)
                else:
                    check_backtest(self.w, out, check, fp)
            except (OSError, ValueError, KeyError) as exc:
                check(False, f"unreadable output: {type(exc).__name__}: {exc}")
            if expected_fp is not None:
                def own(d):
                    return {k: v for k, v in d.items() if k.startswith(FP_OWNER[name])}

                compare_fingerprint(own(fp), own(expected_fp), check)
        self.attempted += 1
        if check.failures:
            self.failed += 1
            self.failures += [f"{out.name}/{name}: {f}" for f in check.failures]

    def op(self, tag, draw, runner, skip_fit=False, backtest_draw=None) -> tuple[dict, dict]:
        """Run the three commands of one operation on noise draw ``draw``
        with ``runner(name, argv, tag)`` -> (Proc, child doc or None);
        returns procs and child docs. With ``skip_fit`` the output
        directory must already hold the draw's fit.json. With
        ``backtest_draw`` the backtest reads that draw instead."""
        inputs, path, backtest_path = self.inputs(draw)
        if backtest_draw is not None:
            backtest_path = self.backtest_input(backtest_draw)
        out = self.work / tag
        procs, docs, fp = {}, {}, {}
        for name, argv in self.commands(out, path, backtest_path):
            if skip_fit and name == "fit":
                continue
            read = backtest_draw if name == "backtest" and backtest_draw is not None else draw
            expected = self.expected_fp if read == 0 else None
            proc, doc = runner(name, argv, f"{tag}-{name}")
            procs[name], docs[name] = proc, doc
            self.check(name, proc.exit, out, inputs, fp, expected)
        self.fingerprints.append(fp)
        return procs, docs

    def extra_pair(self, i) -> dict | None:
        """Forecast again from operation ``i``'s fit.json and back-test a
        fresh noise draw; returns the two procs, or None without a fit.json."""
        fit_json = self.work / f"op{i}" / "fit.json"
        if not fit_json.exists():
            return None
        tag = f"extra{self.extras}"
        (self.work / tag).mkdir()
        shutil.copy(fit_json, self.work / tag)
        procs, _ = self.op(tag, i, self.plain_cli, skip_fit=True,
                           backtest_draw=EXTRA_DRAW0 + self.extras)
        self.extras += 1
        return procs

    def plain_cli(self, name, argv, tag):
        return self.spawn(["-m", "mortcast.cli", *argv], tag), None

    def child_cli(self, mode, backtest_mode):
        def run(name, argv, tag):
            return self.child("cli", tag, mode, backtest_mode, "--", *argv)

        return run

    def end_to_end(self, seconds: float) -> dict:
        # set-up is sampled before every operation, so its median spans the
        # whole run rather than one stretch of it
        setup = []

        def sample_setup():
            setup.append(self.probe(f"probe-{len(setup)}")[0].wall_s)

        self.blas = self.probe("probe-warmup")[1]["blas_threads"]  # fills the bytecode cache
        rows = []   # one per operation
        short = []  # one per forecast and backtest pair, extra pairs included

        def sample_short(procs):
            if procs is None:
                return False
            short.append({"forecast_s": procs["forecast"].wall_s,
                          "backtest_s": procs["backtest"].wall_s})
            return True

        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            sample_setup()
            i = len(rows)
            procs, _ = self.op(f"op{i}", i, self.plain_cli)
            rows.append({
                "fit_s": procs["fit"].wall_s,
                "fit_cpu_s": procs["fit"].cpu_s,
                "peak_rss_mb": max(p.rss_mb for p in procs.values()),
            })
            sample_short(procs)
            # decided before the extra pairs, so that their length cannot
            # change how many operations a run holds
            enough = time.perf_counter() - t0 >= seconds
            # the extra pairs spread the short commands' samples over the
            # whole run and over as many backtest inputs
            for _ in range(self.w.pairs_per_op - 1):
                if not sample_short(self.extra_pair(i)):
                    break
            now = time.perf_counter()
            if enough or now - t0 + (now - start) > OPS_BUDGET_S:
                break
        while len(setup) < SETUP_MIN:
            sample_setup()
        while len(short) < SHORT_MIN and sample_short(self.extra_pair(len(rows) - 1)):
            pass
        print(f"operations: {len(rows)} in {time.perf_counter() - t0:.1f}s; "
              f"set-ups: {len(setup)}; forecast and backtest pairs: {len(short)}")
        metrics = {"setup_s": statistics.median(setup)}
        for samples in (rows, short):
            for key in samples[0]:
                metrics[key] = statistics.median(r[key] for r in samples)
        return metrics

    def traced(self) -> dict:
        from layers import layer_metrics
        from workloads import MIXED_PARAMS

        self.blas = self.probe("probe-warmup")[1]["blas_threads"]
        plain, _ = self.op("plain", 0, self.child_cli("plain", "serial"))
        traced, docs = self.op("traced", 0, self.child_cli("traced", "serial"))
        inputs, path, backtest_path = self.inputs(0)
        backtest = self.commands(self.work / "pool", path, backtest_path)[2][1]
        pool_proc, pool = self.child("cli", "pool-backtest", "plain", "pool", "--", *backtest)
        self.check("backtest", pool_proc.exit, self.work / "pool", inputs, {}, self.expected_fp)
        _, micro = self.child(
            "micro", "micro", str(path), _span(self.w.ages),
            _span(self.w.train_years), json.dumps(MIXED_PARAMS), str(MICRO_REPS))
        self.print_micro(micro)

        if any(d is None for d in docs.values()) or pool is None:
            raise RuntimeError(f"a traced command wrote no result; see logs in {self.work}")
        pool["cpu_s"] = pool_proc.cpu_s
        spans = [dict(s, op="traced", command=name)
                 for name, d in docs.items() for s in d["spans"]]
        (self.work / "spans.json").write_text(json.dumps(spans))
        overhead = sum(p.wall_s for p in traced.values()) - sum(p.wall_s for p in plain.values())
        fit_json = self.work / "traced" / "fit.json"
        return layer_metrics(list(docs.values()),
                             fit_json.stat().st_size if fit_json.exists() else 0,
                             pool, overhead, micro)

    def print_micro(self, micro):
        print(f"microbenchmarks at N = {micro['N']} (median of {MICRO_REPS} calls, ms):")
        for key in ("assemble_V_ms", "cholesky_ms", "loglik_ms", "grad_ms", "gls_beta_ms"):
            print(f"  {key[:-3]:<14} {micro[key]:9.2f}")
        print("  one evaluation's split vs the hand-measured ROADMAP baseline at N = 1800:")
        for part, ref in ROADMAP_SPLIT_MS.items():
            got = micro["split_ms"].get(part)
            shown = f"{got:9.2f}" if got is not None else "      n/a"
            print(f"  {part:<14} {shown}   (ROADMAP {ref} ms)")


def _span(pair) -> str:
    return f"{pair[0]}:{pair[1]}"


def metadata(root: Path, blas: dict) -> dict:
    import numpy
    import scipy

    git = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or git
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "blas_threads": blas, "git": git,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def load_fingerprints() -> dict:
    path = HERE / "fingerprints.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    from workloads import FP_SEEDS

    # a seed with nothing committed fails every check of its fingerprint
    expected = load_fingerprints().get(workload.name, {}).get(str(seed % FP_SEEDS), {})
    runner = Runner(root, workload, seed, expected)
    if trace:
        from layers import UNITS

        values = runner.traced()
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    else:
        values = runner.end_to_end(seconds)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    print(json.dumps({"meta": metadata(root, runner.blas)}))
    print(json.dumps({"fingerprint": runner.fingerprints}))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the harness's own numpy work (inputs, checks) runs single-threaded, so
    # no idle OpenBLAS threads of this process spin beside a timed command;
    # the commands themselves get the variables stripped
    for var in STRIPPED_ENV[:3]:
        os.environ[var] = "1"
    root = Path.cwd()
    if not (root / "src" / "mortcast" / "cli.py").is_file():
        print(f"error: {root} is not a mortcast checkout (no src/mortcast/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
