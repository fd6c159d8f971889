"""Child entry point for the tower workload: runs ``msn.cli.main`` as the
``msn`` console script does, optionally traced.

    python3 perfbench/launcher.py --spawned T [--trace FILE --op N] -- <msn arguments>

``T`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide), so the child can report its start-up time: spawn
until ``msn.cli`` is imported and ``main`` is about to run.  With
``--trace`` the package is wrapped after start-up, and the counts, times,
cache statistics and spans of the command are written to FILE as JSON.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv):
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    spawned = float(opts[opts.index("--spawned") + 1])
    sys.path.insert(0, str(HERE.parent / "src"))
    import msn.cli

    startup_s = time.monotonic() - spawned
    if "--trace" not in opts:
        return msn.cli.main(cli_args)

    import tracer as tracing

    caches = tracing.lru_caches()
    tr = tracing.Tracer().install()
    tr.op = int(opts[opts.index("--op") + 1])
    try:
        rc = msn.cli.main(cli_args)
    finally:
        tr.active = False
        report = tr.report(caches)
        report["startup_s"] = [startup_s]
        report["backend"] = msn.kernel_backend
        Path(opts[opts.index("--trace") + 1]).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
