"""Self-locking origami joints: kinematics, actuation moments, manipulators.

The package models a four-plate, single-vertex rigid origami whose central
angles sum to less than a full turn. The angular deficit removes the flat
state, so a pouch actuator on the input fold drives the joint between a
semi-flat rest state and a hard fold limit. Modules:

- linkage: spherical four-bar closure, closed-form joint angles, oracles
- pouch: pouch actuator geometry and input moment
- moments: mechanical advantage and output moment curves
- geometry: plate meshes, 3D plate poses, collision margins
- manipulator: multi-unit assemblies, activation schedules, trajectories
- cli: the selflock command line tool
"""

from .linkage import (
    CentralAngles,
    Configuration,
    DomainError,
    JointState,
    SingularityError,
    SweepTable,
    closure_residual,
    joint_state,
    mpf_theta1,
    oracle_roots,
    semi_flat_theta1,
    sweep,
    theta1_of_theta4,
    theta3_of_theta1,
    theta4_of_theta1,
)
from .pouch import (
    ActuatorConditions,
    PouchGeometry,
    central_angle,
    chord_length,
    input_moment,
    pouch_geometry,
)
from .moments import (
    MomentCurveRow,
    mechanical_advantage,
    moment_curve,
    output_moment,
)
from .geometry import (
    PlateMesh,
    Pose,
    UnitPoseSet,
    loop_closure_error,
    marker_position,
    plate_axis_bounds,
    plate_meshes,
    polygon_margins_batch,
    rotation_about,
    trim_corner,
    unit_poses,
)
from .manipulator import (
    ActivationSchedule,
    Base,
    BoundingPlate,
    Frame,
    GAMMA_DEFAULT,
    M_DEFAULT,
    Manipulator,
    ManipulatorSpec,
    Mode,
    MPF,
    OutputAngle,
    Phase,
    SemiFlat,
    SpecError,
    Trajectory,
    UnitSpec,
    Weld,
    build,
    pair_margins,
    preset_modular,
    preset_rotational,
    preset_translational,
    run,
    spec_sha256,
    translational_link_lengths,
    workspace_projection,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationSchedule",
    "ActuatorConditions",
    "Base",
    "BoundingPlate",
    "CentralAngles",
    "Configuration",
    "DomainError",
    "Frame",
    "GAMMA_DEFAULT",
    "JointState",
    "M_DEFAULT",
    "Manipulator",
    "ManipulatorSpec",
    "Mode",
    "MomentCurveRow",
    "MPF",
    "OutputAngle",
    "Phase",
    "PlateMesh",
    "Pose",
    "PouchGeometry",
    "SemiFlat",
    "SingularityError",
    "SpecError",
    "SweepTable",
    "Trajectory",
    "UnitPoseSet",
    "UnitSpec",
    "Weld",
    "build",
    "central_angle",
    "chord_length",
    "closure_residual",
    "input_moment",
    "joint_state",
    "loop_closure_error",
    "marker_position",
    "mechanical_advantage",
    "moment_curve",
    "mpf_theta1",
    "oracle_roots",
    "output_moment",
    "pair_margins",
    "plate_axis_bounds",
    "plate_meshes",
    "polygon_margins_batch",
    "pouch_geometry",
    "preset_modular",
    "preset_rotational",
    "preset_translational",
    "rotation_about",
    "run",
    "semi_flat_theta1",
    "spec_sha256",
    "sweep",
    "theta1_of_theta4",
    "theta3_of_theta1",
    "theta4_of_theta1",
    "translational_link_lengths",
    "trim_corner",
    "unit_poses",
    "workspace_projection",
]
