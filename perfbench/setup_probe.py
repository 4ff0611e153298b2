"""Time one cold set-up of a workload in a fresh interpreter: importing
valuata, building every field and extension the workload uses, and the
CLI's argument parser.  Prints the seconds taken; ``run.py`` starts this
several times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import valuata  # noqa: F401  (the import is what is timed)
    from valuata import cli
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    workloads.build_fields(workload)
    cli.build_parser()
    print(f"{time.perf_counter() - start!r}")


if __name__ == "__main__":
    main(sys.argv[1])
