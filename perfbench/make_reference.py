"""Record the reference outputs that ``run.py`` checks every operation against.

    python3 perfbench/make_reference.py

For each seed in ``SEEDS`` and each workload this runs the set-up and one
full pass over the workload's distinct operations (one round of CLI jobs, one
flow episode, one cycle of variation pairs) and writes the checked values to
``perfbench/reference.json``.  Regenerate only when a change to the program is
meant to change its outputs beyond ``workloads.REL_BOUND``, and say so.
"""

import json
import os
import sys

import run

#: the seeds whose outputs are checked against the reference
SEEDS = range(10)


def main():
    sys.path.insert(0, run.SRC)
    from workloads import REL_BOUND, WORKLOADS

    os.makedirs(run.RESULTS, exist_ok=True)
    seeds = {}
    for seed in SEEDS:
        seeds[str(seed)] = {}
        for name, cls in WORKLOADS.items():
            wl = cls(seed, workdir=run.RESULTS)
            wl.setup()
            for _ in range(getattr(wl, "pairs", 1)):
                wl.iterate()
            if wl.failures:
                raise SystemExit("%s seed %d failed: %s" % (name, seed, wl.failures))
            seeds[str(seed)][name] = wl.reference_values()
            print("seed %d %s done" % (seed, name), flush=True)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump({"rel_bound": REL_BOUND, "seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
