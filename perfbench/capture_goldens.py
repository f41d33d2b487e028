"""Write goldens.json: the outputs of every workload at seed 0.

    python3 perfbench/capture_goldens.py

The committed goldens were captured from the commit that added this
benchmark, before any optimisation; recapture only for a deliberate change
of the expected outputs.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    goldens = {}
    for name, workload in workloads.all_workloads().items():
        modules = workloads.import_program()
        outputs = workload.run(modules, workload.build(modules, None))
        for key, out in outputs.items():
            if isinstance(out, Exception):
                raise RuntimeError(f"{name}/{key} raised") from out
        goldens[name] = outputs
        print(f"{name}: " + "; ".join(workload.summary(outputs)))
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
