"""Record the reference digests the ``adaptive-process`` checks compare to.

Usage (from the root of a checkout)::

    python3 perfbench/record_digests.py 0 1 2 ...

Each seed's campaign runs on the serial backend, whose decisions and run
streams are identical to the process backend's.  Results are merged into
``perfbench/digests.json``.  Record only from a commit whose outputs are
trusted: the checks then hold every later commit to them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness


def main(argv: list[str]) -> int:
    harness.require_source()
    import adaptive_process

    path = Path(__file__).resolve().parent / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    entries = table.setdefault(adaptive_process.NAME, {})
    for seed in (int(s) for s in argv):
        entries[str(seed)] = adaptive_process.reference_digests(seed)
        print(f"seed {seed} recorded", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
