"""Tests for the observation database."""

from __future__ import annotations

import numpy as np

from textloop.database import ObservationDatabase
from textloop.entities import TextCategory, TextEntity
from textloop.geometry import Pose


def _entity(content, frame, x=0.0, conf=0.9) -> TextEntity:
    return TextEntity(
        content=content,
        category=TextCategory.GENERIC,
        pose_in_anchor=Pose(np.eye(3), [x, 0.0, 0.0]),
        anchor_frame=frame,
        confidence=conf,
    )


def test_insert_and_query_both_views():
    db = ObservationDatabase()
    assert db.insert(3, _entity("EXIT", 3, x=1.0))
    assert db.insert(3, _entity("A1-R07", 3, x=2.0))
    assert db.insert(9, _entity("EXIT", 9, x=5.0))

    exits = db.frames_observing("EXIT")
    assert [o.frame for o in exits] == [3, 9]
    frame3 = db.entities_in_frame(3)
    assert [o.content for o in frame3] == ["EXIT", "A1-R07"]
    assert db.frames_observing("NOPE") == []
    assert db.entities_in_frame(17) == []
    assert len(db) == 3


def test_views_stay_consistent():
    db = ObservationDatabase()
    rng = np.random.default_rng(2)
    contents = ["EXIT", "STOP", "B2-R11"]
    for frame in range(30):
        for content in contents:
            if rng.random() < 0.5:
                db.insert(frame, _entity(content, frame, x=float(frame)))
    # every observation reachable via content is reachable via frame, and vice versa
    via_content = {
        (o.frame, o.content, tuple(o.pose.translation))
        for c in contents
        for o in db.frames_observing(c)
    }
    via_frame = {
        (o.frame, o.content, tuple(o.pose.translation))
        for f in range(30)
        for o in db.entities_in_frame(f)
    }
    assert via_content == via_frame
    assert len(via_content) == len(db)


def test_exact_duplicates_rejected():
    db = ObservationDatabase()
    assert db.insert(4, _entity("EXIT", 4, x=1.0))
    assert not db.insert(4, _entity("EXIT", 4, x=1.0))
    # same frame and content but a different pose is a genuine second sighting
    assert db.insert(4, _entity("EXIT", 4, x=1.5))
    assert len(db) == 2


def test_insertion_order_preserved():
    db = ObservationDatabase()
    for frame in (5, 1, 9):
        db.insert(frame, _entity("EXIT", frame, x=float(frame)))
    assert [o.frame for o in db.frames_observing("EXIT")] == [5, 1, 9]

