"""Record perfbench/reference.json: each workload's output at the default seed.

    python3 perfbench/record_reference.py

Run it only when the program's outputs are meant to change; the benchmark
compares every run's default-seed output with this file.
"""

import json
import os
import sys

import run


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    run.import_program()
    import workloads

    reference = {"recorded_with": run.run_context()}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED, run.WORK_DIR)
        out = wl.reference_run()
        problems = wl.check(out)
        if problems:
            print(f"{name}: refusing to record a failing run: {problems}", file=sys.stderr)
            return 1
        reference[name] = out.values
        print(f"{name}: {len(out.values)} series recorded")
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
