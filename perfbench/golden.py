#!/usr/bin/env python3
"""Record the stdout digest of every request in the cli-mix pools.

    python3 perfbench/golden.py

Run from the repository root at the commit whose CLI output is the
reference.  It writes ``perfbench/cli_golden.json`` (request key -> stdout
digest) and refuses to record a request that exits non-zero.  The CLI output
must stay byte-identical, so this file changes only when a change to the
output is intended.
"""

from __future__ import annotations

import json
import sys

from run import SRC, import_icmod
from workloads import GOLDEN_PATH, call_cli, cli_pools, request_key, stdout_digest


def main() -> int:
    sys.path.insert(0, str(SRC))
    ic = import_icmod()
    golden = {}
    for verb, pool in cli_pools(ic).items():
        for argv, stdin in pool:
            code, text = call_cli(ic.cli.main, argv, stdin)
            if code != 0:
                print(f"error: {verb} {argv} exited {code}", file=sys.stderr)
                return 1
            golden[request_key(argv, stdin)] = stdout_digest(text)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} request digests in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
