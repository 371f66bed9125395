#!/usr/bin/env python3
"""Run the four named experiment recipes at their reference parameters and
write one CSV per recipe into --outdir (default: results/).

This is the scripted equivalent of the acceptance-scale CLI invocations:

    ihs experiment --recipe theorem1 --n 20000 --p 0.005 --seeds 0..19
    ihs experiment --recipe lemma1   --n 100000 --p 0.005 --seeds 0..19
    ihs experiment --recipe theorem2 --n 2000  --p 0.01  --r 600 --samples 1000 --seed 0
    ihs experiment --recipe theorem5 --n 400   --p 0.6   --delta 0.1 --k 3 --seeds 0..19

The lemma1 recipe runs the downscoped n=10^5 (c=500) variant; pass --full to
run n=5*10^5 (p=0.001, 1.25*10^8 edges), about 5 s and 1.07 GB peak per seed
on a 2-vCPU, 7 GB host, so under 2 minutes for 20 seeds. Expect a few
minutes of total runtime at the defaults.
"""

import argparse
import pathlib
import sys

from ihs.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=str, default="results")
    ap.add_argument("--seeds", type=str, default="0..19")
    ap.add_argument("--full", action="store_true",
                    help="lemma1 at n=5*10^5 instead of the downscoped n=10^5")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lemma_n = "500000" if args.full else "100000"
    lemma_p = "0.001" if args.full else "0.005"
    recipes = {
        "theorem1": ["--recipe", "theorem1", "--n", "20000", "--p", "0.005",
                     "--seeds", args.seeds],
        "lemma1": ["--recipe", "lemma1", "--n", lemma_n, "--p", lemma_p,
                   "--seeds", args.seeds],
        "theorem2": ["--recipe", "theorem2", "--n", "2000", "--p", "0.01",
                     "--r", "600", "--samples", "1000", "--seed", "0"],
        "theorem5": ["--recipe", "theorem5", "--n", "400", "--p", "0.6",
                     "--delta", "0.1", "--k", "3", "--seeds", args.seeds],
    }
    for name, argv in recipes.items():
        out = outdir / f"{name}.csv"
        print(f"running {name} -> {out}", file=sys.stderr)
        code = cli_main(["experiment", *argv, "--out", str(out)])
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
