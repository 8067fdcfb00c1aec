"""First-class test infrastructure shipped with the library.

:mod:`repro.testing.faults` is the fault-injection harness the storage
and service layers are verified against: filesystem wrappers that kill
the process model at the k-th operation, tear writes, or flip bytes,
plus the kill-point sweep runner that proves every save and ingest is
atomic (see docs/DURABILITY.md).

:mod:`repro.testing.chaos` extends it for the service's overload
tests: a deterministic :class:`FakeClock` for breaker timers, stalling
storage/hook wrappers that block instead of erroring, and a concurrent
ingest-burst driver for asserting the 429-never-5xx overload contract.

:mod:`repro.testing.golden` freezes the extraction pipeline's outputs
for three seeded clips as byte-exact JSON fixtures, and
:mod:`repro.testing.synth` assembles deterministic random databases
without running detection (for property-based persistence tests).

:mod:`repro.testing.reference` holds the independently-derived
references the fast paths are checked against: the multi-pass
extraction pipeline, the stage-3 dynamic program, the scene-tree
route walk and the served answer payload.
"""

from .chaos import (
    FakeClock,
    StallingFS,
    StallingHook,
    break_shard_queries,
    run_overload_burst,
)
from .faults import (
    FaultPoint,
    FaultyFS,
    FlakyHook,
    KillPointRun,
    RecordingFS,
    ShardOutage,
    SimulatedCrash,
    SweepReport,
    inject_bit_rot,
    sweep_kill_points,
)
from .golden import GOLDEN_SPECS, GoldenSpec, build_clip
from .reference import largest_scene_walk, longest_match_run_dp, reference_extract
from .synth import add_synth_video, synth_database, synth_record

__all__ = [
    "FakeClock",
    "FaultPoint",
    "FaultyFS",
    "FlakyHook",
    "GOLDEN_SPECS",
    "GoldenSpec",
    "KillPointRun",
    "RecordingFS",
    "ShardOutage",
    "SimulatedCrash",
    "StallingFS",
    "StallingHook",
    "SweepReport",
    "add_synth_video",
    "break_shard_queries",
    "build_clip",
    "inject_bit_rot",
    "largest_scene_walk",
    "longest_match_run_dp",
    "reference_extract",
    "run_overload_burst",
    "sweep_kill_points",
    "synth_database",
    "synth_record",
]
