#!/usr/bin/env python3
"""Check that keeping per-pc range states changes no diagnostic.

    puma_cli analyze --all --ranges --resources --order --equiv --json \
        --dump-ranges > dump.json
    python3 ci/check_dump_ranges.py dump.json ci/analyze_zoo.json

With --dump-ranges the range analysis keeps every post-instruction
state and adds I-RANGE infos. Dropping those infos (and subtracting
them from each program's info count) must leave exactly the pinned
report of the default path, which keeps no states.
"""

import json
import sys


def main(dump_path, pinned_path):
    with open(dump_path) as f:
        dump = json.load(f)
    with open(pinned_path) as f:
        pinned = json.load(f)
    for prog in dump["programs"]:
        kept = [d for d in prog["diagnostics"] if d["code"] != "I-RANGE"]
        prog["infos"] -= len(prog["diagnostics"]) - len(kept)
        prog["diagnostics"] = kept
    if dump != pinned:
        for got, want in zip(dump["programs"], pinned["programs"]):
            if got != want:
                print(f"{got['name']}: differs from {pinned_path}", file=sys.stderr)
        print("the --dump-ranges report differs from the default one", file=sys.stderr)
        return 1
    print(f"{len(dump['programs'])} programs match {pinned_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: check_dump_ranges.py DUMP.json PINNED.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
