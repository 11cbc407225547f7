#!/usr/bin/env python3
"""Check that an analyze report equals a pinned one once some codes are dropped.

    python3 ci/check_dump_ranges.py GOT.json PINNED.json CODE...

Drops every diagnostic whose code is one of CODE from both reports,
adjusts each program's error/warning/info counts and the total error
count to match, and requires what is left to be equal. CI uses it to
check that `--dump-ranges`, which keeps per-pc range states and adds
I-RANGE infos, changes no other diagnostic:

    puma_cli analyze --all --json --dump-ranges > dump.json
    python3 ci/check_dump_ranges.py dump.json ci/analyze_zoo.json I-RANGE
"""

import json
import sys

COUNT = {"error": "errors", "warning": "warnings", "info": "infos"}


def drop(report, codes):
    for prog in report["programs"]:
        kept = []
        for d in prog["diagnostics"]:
            if d["code"] in codes:
                prog[COUNT[d["severity"]]] -= 1
                if d["severity"] == "error":
                    report["errors"] -= 1
            else:
                kept.append(d)
        prog["diagnostics"] = kept
    return report


def main(got_path, pinned_path, codes):
    with open(got_path) as f:
        got = drop(json.load(f), codes)
    with open(pinned_path) as f:
        pinned = drop(json.load(f), codes)
    if got != pinned:
        for g, p in zip(got["programs"], pinned["programs"]):
            if g != p:
                print(f"{g['name']}: differs from {pinned_path}", file=sys.stderr)
        print(f"{got_path} differs from {pinned_path} without {' '.join(codes)}",
              file=sys.stderr)
        return 1
    print(f"{len(got['programs'])} programs match {pinned_path} without {' '.join(codes)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit("usage: check_dump_ranges.py GOT.json PINNED.json CODE...")
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
