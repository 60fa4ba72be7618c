#!/usr/bin/env python3
"""Writes the cold script: servebench's cold_fixpoints query stream as a
bvqsh script. Domain 48, k = 3, one evaluator thread, the answer cache on,
one `eval` per query, six queries per round, in the order a servebench run
with the same seed sends them.

    python3 tools/cold_script.py SEED ROUNDS > cold.bvqsh
    build/tools/bvqsh --stats cold.bvqsh

servebench/inputs.py is imported read-only: no bytecode is written next to
it.
"""

import argparse
import os
import sys


def main():
    parser = argparse.ArgumentParser(
        description="Write the cold_fixpoints query stream as a bvqsh script.")
    parser.add_argument("seed", type=int, help="servebench seed")
    parser.add_argument("rounds", type=int, help="rounds of six queries")
    args = parser.parse_args()

    sys.dont_write_bytecode = True
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, "..", "servebench"))
    import inputs  # noqa: E402

    workload = inputs.ColdFixpoints(args.seed)
    session = workload.SESSION
    lines = ["k 3", "threads 1", "cache on",
             f"domain {workload.sessions[session]}"]
    for rel, tuples in workload.dbs[session].items():
        lines.append("rel " + inputs.rel_payload(rel, tuples))
    for index in range(args.rounds):
        for query in workload.op(0, index).queries:
            lines.append(f"eval {query}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
