"""Generate one run's inputs in a process of its own, so that the
generators' n x n temporaries never count toward the peak resident memory
of the process that clusters.

    python3 perfbench/gen.py --workload cli-cluster --seed 0 --out DIR [--tiny]

Writes DIR/inst<j>/ for each of the workload's instances, DIR/warm/ (a
tiny instance for warming up), and DIR/gen.json with the wall time of
the dscfw generator behind each full-size instance.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workloads.load_program(ROOT)
    wl = workloads.WORKLOADS[args.workload]
    n = wl.tiny_n if args.tiny else wl.n
    seconds = [wl.generate(s, n, args.out / f"inst{j}")
               for j, s in enumerate(wl.seeds(args.seed))]
    wl.generate(0, wl.tiny_n, args.out / "warm")  # the same for every seed
    (args.out / "gen.json").write_text(json.dumps({"generate_s": seconds}))


if __name__ == "__main__":
    main()
