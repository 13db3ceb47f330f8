"""Regenerate tests/golden.json, the sha256 digests of the pinned CLI artifacts.

    PYTHONPATH=src python tests/make_golden.py

Run it only when a change moves bytes on purpose, and name the digests that
moved, and why, with the change.  Before it overwrites the file it prints
each digest that differs from the committed one.
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


def moved_digests(old: dict, new: dict) -> list[str]:
    """group/name of every digest added, removed or changed between two golden files."""
    moved = []
    for group in sorted((set(old) | set(new)) - {"versions"}):
        before, after = old.get(group, {}), new.get(group, {})
        moved += [f"{group}/{name}" for name in sorted(set(before) | set(after))
                  if before.get(name) != after.get(name)]
    return moved


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
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    moved = moved_digests(old, golden)
    print("\n".join(f"moved: {name}" for name in moved) or "no digest moved")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
