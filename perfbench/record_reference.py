"""Record the reference digests the benchmark checks virtual outputs against.

Usage, from the repository root::

    python3 perfbench/record_reference.py

Runs every item of every workload once for seeds ``0 ..
REFERENCE_SEEDS-1`` and writes the digests of their virtual outputs to
``perfbench/data/reference.json``.  Rerun it only when a change is meant
to move virtual time, and say so in the change's description.
"""

from __future__ import annotations

import json
import os

import run

#: Seeds whose digests are recorded.
REFERENCE_SEEDS = 16


def main() -> None:
    run.add_src_path()
    import workloads as wl

    reference = {}
    for name, build in wl.WORKLOADS.items():
        reference[name] = {}
        for seed in range(REFERENCE_SEEDS):
            digests = {}
            for item in build(seed):
                state = item.prepare()
                virtual = item.run(state)
                item.verify(state)
                digests[item.name] = wl.digest(virtual)
            reference[name][str(seed)] = digests
            print(name, seed, flush=True)
    path = os.path.join(run.DATA, "reference.json")
    with open(path, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
