"""Regenerate tests/golden.json, the sha256 digests of the pinned CLI artifacts.

    PYTHONPATH=src python tests/make_golden.py

Run it only when a change moves bytes on purpose, and name the digests that
moved, and why, with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (  # noqa: E402
    GOLDEN_PATH,
    cli_pipeline,
    library_versions,
    run_digests,
    sha256_of,
    simulate_and_detect,
    simulate_detect_optimize_multifloor,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pipeline = cli_pipeline(Path(tmp) / "pipeline")
        run = Path(tmp) / "run"
        simulate_and_detect(run, "corridor", 3)
        loops = {"loops.jsonl": sha256_of(run / "loops.jsonl")}
    golden = {
        "versions": library_versions(),
        "pipeline_corridor_seed5": pipeline,
        "detect_corridor_seed3": loops,
        "multifloor_runs": run_digests(simulate_detect_optimize_multifloor()),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
