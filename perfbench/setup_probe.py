"""Set-up probe: `python3 perfbench/setup_probe.py <workload>`.

Imports modcat, builds the workload's inputs and prints "ready"; the parent
times a fresh interpreter from launch to that line.  For cli-examples, whose
inputs are argv lists, the set-up is the `import modcat.cli` every command
pays.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if sys.argv[1] == "cli-examples":
    import modcat.cli  # noqa: E402,F401
workloads.WORKLOADS[sys.argv[1]]()
print("ready", flush=True)
