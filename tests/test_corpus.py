"""Exactness corpus: the committed steps and trajectory bytes of seeded runs.

Twenty-four seeded modular chains of 2-16 units and the three presets run
through schedules that cover both branches, both modes, the MPF,
semi-flat and output targets, clearances of 0.1, 1 and 3 mm, and runs with
and without include_poses. Each spec is first dumped with json.dumps,
read back with ManipulatorSpec.from_json_dict and run in that form, so the
pins also hold the spec codec to decoding the values it encoded.

Per run the corpus pins:
- phase_committed_steps;
- the sha256 of every frame's theta1s, marker and plate pose bytes;
- the sha256 of the markers at 9 significant digits, the export precision;
- spec_sha256 of the round-tripped spec.

A change that moves a last bit on purpose re-pins the byte digest and
names every moved value; the 9-digit digest and the committed steps must
still hold. `python tests/test_corpus.py` prints the table below as the
current code computes it.
"""

import hashlib
import json
import math
import random

import numpy as np

from selflock import (
    ActivationSchedule,
    Configuration,
    MPF,
    ManipulatorSpec,
    Mode,
    OutputAngle,
    Phase,
    SemiFlat,
    UnitSpec,
    build,
    preset_modular,
    preset_rotational,
    preset_translational,
    run,
    spec_sha256,
)

CLEARANCES = (0.1, 1.0, 3.0)


def _target(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return MPF(math.radians(rng.uniform(25.0, 60.0)))
    if kind == 1:
        return SemiFlat()
    return OutputAngle(math.radians(rng.uniform(20.0, 120.0)))


def _chain(seed: int):
    """A modular chain of 2-16 units and a schedule of at most 20 steps a phase.

    Longer chains get fewer phases and steps, so the corpus runs in about
    two seconds.
    """
    rng = random.Random(seed)
    n = (2, 3, 4, 5, 6, 8, 12, 16)[seed % 8]
    units = tuple(
        UnitSpec(
            math.radians(round(rng.uniform(60.0, 89.5), 3)),
            rng.choice((Configuration.UP, Configuration.DOWN)),
            round(rng.uniform(20.0, 30.0), 2) if rng.random() < 0.3 else 25.0,
        )
        for _ in range(n)
    )
    spec = preset_modular(units, round(rng.uniform(15.0, 35.0), 2))
    nphases = rng.randint(1, 3 if n > 6 else 5)
    steps_max = 6 if n > 6 else 20
    phases = []
    for _ in range(nphases):
        u = rng.randrange(n)
        phases.append(Phase(u, _target(rng), rng.randint(2, steps_max)))
        if rng.random() < 0.3:
            # Fold, then back to semi-flat, so a SemiFlat target moves.
            phases.append(Phase(u, SemiFlat(), rng.randint(2, steps_max)))
    mode = Mode.SIMULTANEOUS if seed % 3 == 0 else Mode.SEQUENTIAL
    if mode is Mode.SIMULTANEOUS:
        # A simultaneous schedule names each unit once: keep its first phase.
        first = {}
        for ph in phases:
            first.setdefault(ph.unit, ph)
        phases = list(first.values())
    return spec, ActivationSchedule(tuple(phases), mode)


def _cases():
    """(name, spec, schedule, clearance, include_poses) of every corpus run."""
    gamma = math.radians(36.5)
    half = math.pi / 2
    yield (
        "rotational",
        preset_rotational(math.radians(89), math.radians(85)),
        ActivationSchedule((Phase(0, MPF(gamma), 20), Phase(1, MPF(gamma), 20))),
        0.1,
        True,
    )
    yield (
        "translational",
        preset_translational(math.radians(89), gamma, 25.0),
        ActivationSchedule(
            tuple(
                Phase(k, OutputAngle(half) if k in (0, 3) else MPF(gamma), 20)
                for k in range(4)
            ),
            Mode.SIMULTANEOUS,
        ),
        1.0,
        False,
    )
    yield (
        "modular",
        preset_modular(tuple(UnitSpec(math.radians(89), Configuration.DOWN)
                             for _ in range(4))),
        ActivationSchedule(tuple(Phase(k, MPF(gamma), 20) for k in range(4))),
        0.1,
        False,
    )
    for seed in range(24):
        spec, schedule = _chain(seed)
        yield (f"chain{seed}", spec, schedule, CLEARANCES[seed % 3], seed % 2 == 1)


def _pins(spec, schedule, clearance, include_poses) -> tuple:
    back = ManipulatorSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    traj = run(build(back), schedule, clearance, include_poses)
    exact, rounded = hashlib.sha256(), hashlib.sha256()
    for f in traj.frames:
        exact.update(np.asarray(f.theta1s, dtype=float).tobytes())
        exact.update(np.asarray(f.marker, dtype=float).tobytes())
        for pose in f.poses or ():
            exact.update(pose.rt.tobytes())
        rounded.update(("%.9g,%.9g,%.9g;" % tuple(f.marker)).encode())
    return (
        traj.meta["phase_committed_steps"],
        exact.hexdigest()[:16],
        rounded.hexdigest()[:16],
        spec_sha256(back)[:16],
    )


# name: (phase_committed_steps, exact digest, 9-digit marker digest,
# round-tripped spec_sha256), each digest its first 16 hex digits.
_PINNED = {
    "rotational": ([20, 20], "7f8f4b0a23ea4b6e", "6fe52efde53de55f", "3db74c7a3a5b86cd"),
    "translational": ([20, 20, 20, 20], "8c099699a5129b80", "3ad0dd8fe3c58b32", "4099fce1f0cfb510"),
    "modular": ([20, 20, 20, 14], "f4510702e340a809", "2f41837e5ce62962", "3c231e50d933aabe"),
    "chain0": ([0, 0], "26c952690cc1fa10", "7b90c1971d862c10", "e22e41b367fd1946"),
    "chain1": ([9, 2, 19, 8, 16, 9], "81eb7edeae4532a8", "714b25969080d625", "81292c373340007a"),
    "chain2": ([12, 7, 2, 7, 18], "ad8f6abf6e1f35b4", "14042e8c3af1aa2a", "f49c74dee720fa3f"),
    "chain3": ([18, 18], "b622d7502195dca8", "948a782045441c07", "f442f5d19f281e87"),
    "chain4": ([9, 2, 2], "186f2ce68d401254", "dbacd5b0926d609f", "c0505047d73269ee"),
    "chain5": ([2, 3, 3, 3], "758d682b874f779c", "bd65821e4205287d", "0e27450f602f6b85"),
    "chain6": ([5], "e9d07bf6db41c3a9", "ed194e9f062c91e0", "4f6dea9778df9c8a"),
    "chain7": ([3, 2], "79ac7dfcb10a52b3", "dd50d93e4beac4a9", "781b20ca1cc80bd2"),
    "chain8": ([17, 14, 9, 15, 10, 4], "45c692d3d4c81b33", "314d2ded6b96d8c2", "6f2d5f43ff2e7afe"),
    "chain9": ([7], "910ee804b33d1096", "d47fcfcaf7f9be9f", "9dcb1da79e6cfe50"),
    "chain10": ([10, 16, 14, 2, 11], "1db73ca250c84882", "123dac871165df10", "07161f1ae411ec27"),
    "chain11": ([4, 8, 16], "669aff25e5b7309a", "8895c949de362fa3", "4123c5be0154c667"),
    "chain12": ([8, 8, 8], "3a9749fb6e6c9561", "f68276460bb50722", "bc8a781f913efff7"),
    "chain13": ([5], "2c205f663a5e1201", "6cf77a7f0cc68595", "0e5778c630de5248"),
    "chain14": ([6, 4, 2, 2, 2, 5], "132c4f01fe4b4f0b", "65f4c66fc8971fdc", "4a344ceaf611a21a"),
    "chain15": ([4], "842f4a8773fe9940", "9adbd9667dd3dc2b", "2ad008df7b4978da"),
    "chain16": ([2, 1, 13, 4], "5a57012aaae3df58", "369e61aa0cbcdf90", "3ec8bd97dbce119a"),
    "chain17": ([6, 19, 19, 4, 4, 6], "021733f6a214c9fa", "d229b517766da664", "b4006cfd7c5007b8"),
    "chain18": ([14, 14], "05875d2a7ae58d42", "f82dea366b775249", "d3960b72b60e5b38"),
    "chain19": ([14], "ed53af41e8b27ded", "794e5137ebe7595f", "6a8aa553d5cc836e"),
    "chain20": ([4, 9, 8, 11, 5, 9, 11, 12], "7b2beb381223e048", "412623aa802863da", "35dde3511fb28061"),
    "chain21": ([5, 5, 5], "e236443b6cc7b305", "8eccc70ef29e660c", "6477b52111f08706"),
    "chain22": ([0, 6, 6], "9cb5f209061b3271", "9f75a3c8f37df8df", "d9d68a18250ac26a"),
    "chain23": ([4, 1, 2, 3], "8886d56ccecbe6d7", "4b703e38c559a6ad", "705acd847dc23bad"),
}


def test_corpus_matches_pins():
    got = {name: _pins(*case) for name, *case in _cases()}
    assert got == _PINNED


if __name__ == "__main__":
    for name, *case in _cases():
        print(f'    "{name}": {_pins(*case)!r},'.replace("'", '"'))
