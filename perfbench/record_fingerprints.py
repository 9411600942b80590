"""Record the committed behaviour fingerprints in fingerprints.json.

    python3 perfbench/record_fingerprints.py --workload fit-paper

Run from the root of a mortcast checkout. Each seed 0 .. FP_SEEDS - 1 runs
one untraced operation of the workload exactly as run.py does; a seed whose
operation fails a check is reported and not recorded. Recording replaces
the workload's entries and keeps the other workloads'.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    root = Path.cwd()
    sys.path[:0] = [str(HERE), str(root / "src")]
    from run import Runner, load_fingerprints
    from workloads import FP_SEEDS, WORKLOADS

    w = WORKLOADS[args.workload]
    table = load_fingerprints()
    entries = table[w.name] = {}
    for seed in range(FP_SEEDS):
        runner = Runner(root, w, seed, None)
        runner.op("op0", 0, runner.plain_cli)
        if runner.failed:
            print(f"seed {seed}: not recorded: {runner.failures}", file=sys.stderr)
            continue
        entries[str(seed)] = runner.fingerprints[0]
        print(f"seed {seed}: {json.dumps(runner.fingerprints[0])}", flush=True)
    (HERE / "fingerprints.json").write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
