#!/usr/bin/env python3
"""Opt-in infeasibility sweep over a large (k, t) rectangle.

The default desk-scale gate covers k, t <= 12 and runs in about a second
serially.  This script pushes the same certificates to k, t <= 50 (or any
bounds you pass).  On a 2-vCPU x86-64 host with Python 3.11 the full
50 x 50 rectangle takes about 6 minutes of CPU, 3.3 minutes of wall time
with --jobs 2, and no pair takes more than about a second; the pairs with
k >= 40 take most of it.  Certificates stream to a JSONL file as they
finish, so an interrupted run keeps its progress.

Example:

    python scripts/full_sweep.py --kmax 50 --tmax 50 --jobs 8 \
        --out sweep50.jsonl
"""

import argparse
import json
import multiprocessing as mp
import sys
import time
from fractions import Fraction
from pathlib import Path

from rps_forge.certify import infeasibility_certificate


def worker(args):
    k, t, delta, depth = args
    cert = infeasibility_certificate(k, t, delta=delta, max_depth=depth)
    return cert.to_record()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=50)
    parser.add_argument("--tmax", type=int, default=50)
    parser.add_argument("--delta", type=str, default="1e-6")
    parser.add_argument("--depth", type=int, default=50)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=str, default="full_sweep.jsonl")
    args = parser.parse_args()

    delta = Fraction(args.delta)
    out_path = Path(args.out)
    done = set()
    if out_path.exists():
        for line in out_path.read_text().splitlines():
            rec = json.loads(line)
            done.add((rec["k"], rec["t"]))
        print(f"resuming: {len(done)} pairs already certified in {out_path}")

    pairs = [
        (k, t, delta, args.depth)
        for k in range(1, args.kmax + 1)
        for t in range(0, args.tmax + 1)
        if (k, t) not in done
    ]
    start = time.perf_counter()
    failures = 0
    with out_path.open("a") as sink:
        if args.jobs > 1:
            with mp.Pool(processes=args.jobs) as pool:
                for i, rec in enumerate(pool.imap_unordered(worker, pairs), 1):
                    sink.write(json.dumps(rec) + "\n")
                    sink.flush()
                    if rec["verdict"] != "proved_empty":
                        failures += 1
                        print(f"UNDECIDED at k={rec['k']} t={rec['t']}")
                    if i % 50 == 0:
                        rate = i / (time.perf_counter() - start)
                        print(f"{i}/{len(pairs)} pairs, {rate:.2f} pairs/s")
        else:
            for i, job in enumerate(pairs, 1):
                rec = worker(job)
                sink.write(json.dumps(rec) + "\n")
                sink.flush()
                if rec["verdict"] != "proved_empty":
                    failures += 1
                    print(f"UNDECIDED at k={rec['k']} t={rec['t']}")
                if i % 25 == 0:
                    rate = i / (time.perf_counter() - start)
                    print(f"{i}/{len(pairs)} pairs, {rate:.2f} pairs/s")

    elapsed = time.perf_counter() - start
    print(
        f"finished {len(pairs)} new pairs in {elapsed / 60:.1f} min; "
        f"{failures} undecided"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
