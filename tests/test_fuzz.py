"""Seeded mutation test of the CLI's error contract on every file it reads.

A 2-lap corridor run gives log.jsonl, loops.jsonl, traj.jsonl and gt.jsonl,
and an INI file sets every key to its default.  Each case applies one seeded
mutation to one file: a value of another type (string, boolean, float, null,
list, 1e308, NaN), a dropped key, a truncated, duplicated or reordered line,
or a flipped base64 character in a cloud.  Each command that reads the file
then runs through cli.main, and must exit 0, or exit 2 with exactly one
stderr line that starts with "error: ".  Where the mutation leaves a field
invalid, the command must exit 2, unless it never reads that field (UNREAD).
A RuntimeWarning (an overflow, a NaN from arithmetic) is an error too: every
value the commands take must stay in range through their arithmetic.

So that a run takes milliseconds, the log is cut to its first LOG_LINES
lines and the trajectories to their first SLICE_FRAMES frames; these hold
every record kind and every field.  The loops file runs against the whole
trajectories, since its frames reach the end of the second lap.
"""

import contextlib
import io
import json
import math
import random

import pytest

from textloop.cli import main
from textloop.config import DEFAULTS

SEED = 2027
CASES = {"log": 120, "loops": 24, "traj": 24, "gt": 24, "ini": 48}
LOG_LINES = 40
SLICE_FRAMES = 40

# a value of each JSON type, as a record holds it and as an INI file writes it
SWAPS = {
    "string": ("x", "x"),
    "bool": (True, "true"),
    "float": (0.5, "0.5"),
    "null": (None, "null"),
    "list": ([1], "[1]"),
    "huge": (1e308, "1e308"),
    "nan": (math.nan, "NaN"),
}

# fields that a command never decodes, as record kind and key path; optimize
# reads only the odom records of a sensor log, and of the other records only
# their type and the presence of their keys
UNREAD = {
    "optimize": (
        "calib.intrinsics", "calib.extrinsic", "cloud.frame", "cloud.points", "texts.t",
        "texts.detections",
    ),
}

# string fields whose every value is valid: any other string is an error
FREE_STRINGS = ("texts.detections.text",)

B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["simulate", "--scenario", "corridor", "--seed", "1", "--laps", "2", "--out", str(d)],
            ["detect", "--log", f"{d}/log.jsonl", "--out", f"{d}/loops.jsonl"],
            ["optimize", "--log", f"{d}/log.jsonl", "--loops", f"{d}/loops.jsonl",
             "--out", f"{d}/traj.jsonl"],
        ):
            assert main(argv) == 0
    lines = {name: (d / f"{name}.jsonl").read_text().splitlines() for name in ("traj", "gt")}
    with open(d / "log.jsonl") as handle:
        log = [next(handle).rstrip("\n") for _ in range(LOG_LINES)]
    ini = []
    for section, keys in DEFAULTS.items():
        ini.append(f"[{section}]")
        ini += [f"{key} = {value if isinstance(value, str) else json.dumps(value)}"
                for key, value in keys.items()]
    (d / "empty.jsonl").write_text("")
    return {
        "dir": d,
        "log": log,
        "loops": (d / "loops.jsonl").read_text().splitlines(),
        "traj": lines["traj"][:SLICE_FRAMES],
        "gt": lines["gt"][:SLICE_FRAMES],
        "ini": ini,
    }


def _commands(name: str, path: str, d) -> list[list[str]]:
    """Each command that reads the mutated file, with valid files for its other inputs."""
    empty, out = str(d / "empty.jsonl"), ["--out", str(d / "out")]
    log, traj, gt = (str(d / f"{n}.slice") for n in ("log", "traj", "gt"))
    if name == "log":
        return [["detect", "--log", path] + out,
                ["optimize", "--log", path, "--loops", empty] + out]
    if name == "loops":
        full = [str(d / "traj.jsonl"), str(d / "gt.jsonl")]
        return [["optimize", "--log", full[0], "--loops", path] + out,
                ["evaluate", "--traj", full[0], "--gt", full[1], "--loops", path] + out]
    if name in ("traj", "gt"):
        traj, gt = (path, gt) if name == "traj" else (traj, path)
        return [["evaluate", "--traj", traj, "--gt", gt, "--loops", empty] + out]
    return [
        ["detect", "--log", log, "--config", path] + out,
        ["optimize", "--log", log, "--loops", empty, "--config", path] + out,
        ["evaluate", "--traj", traj, "--gt", gt, "--loops", empty, "--config", path] + out,
    ]


def _paths(value, path=()):
    """The key path of every value nested in a record."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _mutate_record(rng, lines, index, kind):
    """One seeded edit of lines[index] in place: (operation, field, whether it is invalid)."""
    record = json.loads(lines[index])
    op = rng.choice(["swap"] * 4 + ["drop", "truncate", "duplicate", "reorder", "flip"])
    if op == "flip" and kind != "cloud":
        op = "swap"
    if op == "truncate":
        lines[index] = lines[index][: rng.randrange(1, len(lines[index]) - 2)]
        return op, kind, True
    if op == "duplicate":
        lines.insert(index, lines[index])
        return op, kind, False
    if op == "reorder":
        other = index + 1 if index + 1 < len(lines) else index - 1
        lines[index], lines[other] = lines[other], lines[index]
        return op, kind, False
    if op == "flip":
        points = record["points"].rstrip("=")
        at = rng.randrange(len(points))
        char = rng.choice(B64.replace(points[at], ""))
        record["points"] = record["points"][:at] + char + record["points"][at + 1:]
        lines[index] = json.dumps(record, separators=(",", ":"))
        return op, "cloud.points", False
    paths = list(_paths(record))
    if op == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    path = rng.choice(paths)
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    field = ".".join([kind] + [k for k in path if isinstance(k, str)])
    if op == "drop":
        del parent[path[-1]]
        invalid = True
    else:
        swap = rng.choice(sorted(SWAPS))
        original, parent[path[-1]] = parent[path[-1]], SWAPS[swap][0]
        op = f"swap {swap}"
        if type(original) is float:
            invalid = swap not in ("float", "huge")
        elif type(original) is str:
            invalid = swap != "string" or field not in FREE_STRINGS
        else:  # an integer frame, a list or an object: no swapped value fits
            invalid = True
    lines[index] = json.dumps(record, separators=(",", ":"))
    return op, field, invalid


def _mutate_ini(rng, lines):
    """One seeded edit of the INI lines in place: (operation, key, whether it is invalid)."""
    index = rng.randrange(len(lines))
    op = rng.choice(["swap"] * 4 + ["drop", "truncate", "duplicate", "reorder"])
    if lines[index].startswith("[") and op in ("swap", "drop"):
        op = "truncate"
    section = [line for line in lines[: index + 1] if line.startswith("[")][-1][1:-1]
    key = lines[index].partition(" = ")[0]
    if op == "truncate":
        lines[index] = lines[index][: rng.randrange(len(lines[index]))]
    elif op == "duplicate":
        lines.insert(index, lines[index])
    elif op == "reorder":
        other = index + 1 if index + 1 < len(lines) else index - 1
        lines[index], lines[other] = lines[other], lines[index]
    elif op == "drop":
        del lines[index]
    else:
        swap = rng.choice(sorted(SWAPS))
        lines[index] = f"{key} = {SWAPS[swap][1]}"
        default = DEFAULTS[section][key]
        op = f"swap {swap}"
        if isinstance(default, str):
            invalid = False
        elif isinstance(default, float) or default is None:
            invalid = swap not in ("float", "huge") and not (swap == "null" and default is None)
        else:  # an integer or a list: no swapped value fits
            invalid = True
        return op, f"[{section}] {key}", invalid
    return op, f"[{section}] {key}", False


def _run(argv) -> tuple[int | None, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue()
        except Exception as exc:  # an escaped error is a finding: report it with its case
            return None, f"{type(exc).__name__}: {exc}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutated_inputs_exit_0_or_2_with_one_error_line(run):
    d = run["dir"]
    rng = random.Random(SEED)
    for name in ("log", "traj", "gt"):
        (d / f"{name}.slice").write_text("\n".join(run[name]) + "\n")
    failures = []
    for name, count in CASES.items():
        for case in range(count):
            lines = list(run[name])
            if name == "ini":
                op, field, invalid = _mutate_ini(rng, lines)
            else:
                index = rng.randrange(len(lines))
                kind = "loop" if name == "loops" else json.loads(lines[index])["type"]
                op, field, invalid = _mutate_record(rng, lines, index, kind)
            path = d / f"mutated.{name}"
            path.write_text("\n".join(lines) + "\n")
            for argv in _commands(name, str(path), d):
                code, err = _run(argv)
                unread = any(
                    field == f or field.startswith(f + ".") for f in UNREAD.get(argv[0], ())
                )
                if code == 2 and (err.count("\n") != 1 or not err.startswith("error: ")):
                    problem = f"exit 2 with stderr {err!r}"
                elif code == 0 and invalid and not unread:
                    problem = "exit 0 on an invalid field"
                elif code not in (0, 2):
                    problem = f"exit {code}: {err[:300]}"
                else:
                    continue
                failures.append(f"{name} case {case}, {op} {field}, {argv[0]}: {problem}")
    assert not failures, f"{len(failures)} runs broke the contract:\n" + "\n".join(failures)
