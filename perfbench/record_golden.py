"""Record the golden rows that ``run.py`` checks instance outputs against.

    python3 perfbench/record_golden.py

For every workload it runs the instances of the first ``golden_rounds``
rounds at the default seeds and at the held-out seeds, and writes each
instance's exit code and CSV rows (without ``runtime_ms``) to golden.json.
Run it only at a commit whose outputs are trusted: it refuses a row that
fails its own re-validation, and any exit code other than 0 or the
documented solver abort (3). Takes about five minutes and 2.6 GB of memory.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ihs.cli  # noqa: E402
from workloads import (  # noqa: E402
    ABORT_EXIT, DEFAULT_LADDER_SEED, DEFAULT_SEED, GOLDEN_PATH, HELD_OUT_LADDER_SEED,
    HELD_OUT_SEED, WORKLOADS, csv_rows, instance_key, rows_valid,
)


def main() -> int:
    golden = {}
    seed_sets = [(DEFAULT_SEED, DEFAULT_LADDER_SEED), (HELD_OUT_SEED, HELD_OUT_LADDER_SEED)]
    for workload, (seed, ladder_seed) in itertools.product(WORKLOADS.values(), seed_sets):
        rounds = itertools.islice(workload.rounds(seed, ladder_seed), workload.golden_rounds)
        for argv in itertools.chain.from_iterable(rounds):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = ihs.cli.main(argv)
            rows = csv_rows(out.getvalue())
            if not (rc == ABORT_EXIT or (rc == 0 and rows_valid(rows))):
                print(f"refusing to record {instance_key(argv)}: exit {rc}, rows {rows}",
                      file=sys.stderr)
                return 1
            golden[instance_key(argv)] = {"rc": rc, "rows": rows}
            print(f"exit {rc}  {instance_key(argv)}", flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
