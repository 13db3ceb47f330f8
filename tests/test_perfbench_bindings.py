"""perfbench/spans.py patches package attributes by name; this keeps those names alive.

The benchmark's own tests (``python -m pytest perfbench``) are not part of the
main suite, so a renamed or removed binding would otherwise show only as a
KeyError in the first traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

from textloop.pose_graph import PoseGraph  # noqa: E402


def test_tracer_wraps_every_binding_and_restores_it():
    tracer = spans.Tracer().install()
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    wrapped = {(owner, attr) for owner, attr, _ in patched}
    for attr in ("optimize", "cost", "edge_jacobians"):
        assert (PoseGraph, attr) in wrapped
