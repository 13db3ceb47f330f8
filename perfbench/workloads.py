"""Workload inputs: configs, worlds and routes, each a pure function of the seed.

Imports of the package happen inside functions so that ``run.py`` can check
the checkout before anything from ``textloop`` is loaded.
"""

from __future__ import annotations

# The README's demo.ini: the noise under which the acceptance contract holds.
DEMO_INI = """[sim]
odom_sigma_t = 0.005
detect_prob = 0.8
misread_prob = 0.05

[eval]
tau = 1.7
"""

# kind "cli" runs the README command sequence on files, "memory" replays an
# in-memory simulation; "gated" workloads must meet the acceptance contract;
# "episodes" is the least number of passes, each on inputs of its own seed;
# run.py makes them two at a time, side by side.
# signdense is the association-bound case: repeated sign triples produce
# false generic constraints, reported but not gated.  BENCHMARK.json leaves
# it out because its detect time spreads by a quarter from seed to seed.
WORKLOADS = {
    "multifloor-cli": {
        "kind": "cli", "scenario": "multifloor", "laps": None, "optimize": True, "gated": True,
        "episodes": 4,
    },
    "corridor-long": {
        "kind": "memory", "scenario": "corridor", "laps": 6, "optimize": True, "gated": True,
        "episodes": 4,
    },
    "signdense": {
        "kind": "memory", "scenario": "signdense", "laps": 3, "optimize": False, "gated": False,
        "episodes": 2,
    },
}

# quick mode: the CLI runs a two-lap corridor (multifloor ignores --laps) and
# the in-memory replays a lap plus one side, enough for a few revisits
QUICK_CLI = {"scenario": "corridor", "laps": 2}
QUICK_WAYPOINTS = 6

# signdense layout: the corridor footprint, generic signs every ~2.5 m on the
# inner walls, 12 ID plates on the outer walls
SIGNDENSE_OUTER = ((0.0, 0.0), (30.0, 0.0), (30.0, 14.0), (0.0, 14.0))
SIGNDENSE_INNER = ((2.5, 11.5), (27.5, 11.5), (27.5, 2.5), (2.5, 2.5))
SIGNDENSE_GAP = 2.5
SIGNDENSE_JITTER = 0.2
SIGNDENSE_CONTENTS = 3
SIGNDENSE_ID_PLATES = 12
SIGN_HEIGHT = 1.4
WALL_TOP = 3.0


def _ring(corners):
    """Closed chain of walls; counterclockwise corners give inward normals."""
    from textloop.simulator import Wall

    return [
        Wall(corners[k], corners[(k + 1) % len(corners)], 0.0, WALL_TOP)
        for k in range(len(corners))
    ]


def signdense_world(seed: int):
    """Sign-dense ring built only from the public simulator classes.

    Every inner wall carries generic signs about SIGNDENSE_GAP apart, all of
    the same three contents, so identical triples of signs recur around the
    ring; the outer walls carry the ID plates.
    """
    import numpy as np

    from textloop.entities import TextCategory
    from textloop.simulator import GENERIC_POOL, TEXT_WIDTH, Placement, World

    rng = np.random.default_rng([seed, 29])
    walls = _ring(SIGNDENSE_OUTER) + _ring(SIGNDENSE_INNER)
    inner = range(len(SIGNDENSE_OUTER), len(walls))
    counts = [int(round(walls[i].length / SIGNDENSE_GAP)) for i in inner]
    # every content equally often, in an order drawn from the seed: the
    # seed moves the repeated triples around without changing how many
    # same-content pairs the association stage has to weigh
    pool = list(rng.permutation(GENERIC_POOL))[:SIGNDENSE_CONTENTS]
    contents = iter(rng.permutation([pool[k % len(pool)] for k in range(sum(counts))]))
    placements = []
    for index, count in zip(inner, counts):
        spacing = walls[index].length / count
        for k in range(count):
            placements.append(
                Placement(
                    content=str(next(contents)),
                    category=TextCategory.GENERIC,
                    wall_index=index,
                    offset=(k + 0.5) * spacing + rng.uniform(-SIGNDENSE_JITTER, SIGNDENSE_JITTER),
                    height=SIGN_HEIGHT + rng.uniform(-0.1, 0.1),
                )
            )
    perimeter = sum(walls[i].length for i in range(len(SIGNDENSE_OUTER)))
    margin = TEXT_WIDTH / 2 + 0.2
    for k in range(SIGNDENSE_ID_PLATES):
        s = (k + 0.5) * perimeter / SIGNDENSE_ID_PLATES + rng.uniform(-0.6, 0.6)
        index = 0
        while s > walls[index].length:
            s -= walls[index].length
            index += 1
        placements.append(
            Placement(
                content=f"A1-R{k + 1:02d}",
                category=TextCategory.ID,
                wall_index=index,
                offset=float(np.clip(s, margin, walls[index].length - margin)),
                height=SIGN_HEIGHT + rng.uniform(-0.1, 0.1),
            )
        )
    return World(walls=tuple(walls), placements=tuple(placements))


def build_inputs(name: str, seed: int, quick: bool):
    """(world, route) for an in-memory workload."""
    from textloop.simulator import build_world, default_route

    spec = WORKLOADS[name]
    if spec["scenario"] == "signdense":
        world = signdense_world(seed)
    else:
        world = build_world(spec["scenario"], seed=seed)
    if quick:
        return world, default_route("corridor", laps=2)[:QUICK_WAYPOINTS]
    return world, default_route("corridor", laps=spec["laps"])
