"""Record the reference outputs of the default seed.

    python3 perfbench/make_reference.py

Runs every input of each workload once at the default seed and writes
``reference.json``, against which ``run.py`` checks outputs to a relative
1e-12.  Regenerate only when a change is meant to alter the results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def record(name: str, workdir: str) -> dict:
    w = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, False, None, workdir)
    outputs = []
    for i in range(w.distinct_ops):
        result = w.run_op(i)
        problems = w.check(i, result)
        if problems:
            raise RuntimeError(f"{name} op {i}: {problems}")
        outputs.append(w.outputs(result))
    return {"inputs": w.inputs(), "outputs": outputs}


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        data = {"seed": workloads.DEFAULT_SEED,
                "workloads": {name: record(name, workdir) for name in workloads.WORKLOADS}}
    finally:
        shutil.rmtree(workdir)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
