"""One set-up sample in a fresh interpreter (timed by the parent run).

``python3 perfbench/setup_probe.py import`` imports the program's public
entry modules, the start-up cost every user pays.
``python3 perfbench/setup_probe.py fill ROOT`` does the same and then
simulates the paper's seed-0 study into the study cache at ``ROOT``
(the state the ``serve-warm`` workload serves from).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

#: Shard workers used to fill the cache: set-up may use both cores.
FILL_JOBS = 2


def main(argv: list[str]) -> int:
    import repro  # noqa: F401
    import repro.core.artifacts  # noqa: F401
    import repro.counterfactual  # noqa: F401
    import repro.service.daemon  # noqa: F401
    import repro.sweep.scheduler  # noqa: F401

    if argv[:1] == ["import"]:
        return 0
    if argv[:1] == ["fill"] and len(argv) == 2:
        from repro import Study, StudyConfig
        from repro.util.parallel import shutdown_pool

        try:
            Study(StudyConfig(seed=0), jobs=FILL_JOBS, cache_dir=argv[1]).observations
        finally:
            shutdown_pool()
        return 0
    print("usage: setup_probe.py import | fill ROOT", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
