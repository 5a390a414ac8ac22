"""Pin the sha256 of every exact-arithmetic artifact into reference.json.

    python3 perfbench/pin.py [--seeds 0-10]

Runs each workload's command once per seed and records the digests of its
exact artifacts (checks.EXACT_ARTIFACTS); seed-free workloads are pinned
once, under "any". Pin on a commit whose outputs are known good. A change
that alters those bytes on purpose re-pins and says so with the old and new
digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range A-B")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))

    reference = {}
    for name, spec in run.load_workloads().items():
        seeds = range(lo, hi + 1) if spec["generator"] is not None else [None]
        pins = {}
        for seed in seeds:
            work = run.WORK_DIR / "pin" / name
            shutil.rmtree(work, ignore_errors=True)
            cfg, entry, _dataset = run.prepare(spec, 0 if seed is None else seed, work)
            entry(cfg)
            digests = checks.exact_digests(checks.artifact_digests(work / "out"))
            if digests:
                pins["any" if seed is None else str(seed)] = digests
            print(name, seed, len(digests), "artifacts", flush=True)
        if pins:
            reference[name] = pins
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
