"""Exception types shared across the simulator."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator-domain errors."""


class DegenerateGeometry(SimulationError):
    """Probe points coincide or are collinear; no frame can be built."""


class OffWall(SimulationError):
    """A position that must lie on the wall surface does not."""


class TooDeep(SimulationError):
    """Requested hole depth exceeds what the wall allows."""


class GripperInflated(SimulationError):
    """Hammering attempted while the rubber gripper is still inflated."""


class AnchorDropped(SimulationError):
    """Gripper released an anchor that nothing was supporting."""


class PartDropped(SimulationError):
    """Magnet switched off while the part hung unsupported."""


class SocketNotEngaged(SimulationError):
    """Nut-runner pulse requested with the socket off the nut."""


class WrongPose(SimulationError):
    """Arm is not at the pose the operation requires."""


class FlangeOccupied(SimulationError):
    """Tool attach requested while another tool is mounted."""


class NoTool(SimulationError):
    """Tool detach requested with an empty flange."""


class OutOfReach(SimulationError):
    """Motion target lies outside the arm's reach sphere."""


class PayloadExceeded(SimulationError):
    """Tool plus held mass exceeds the arm's payload capacity."""


class NoReturn(SimulationError):
    """Laser ray does not hit the wall."""


class DetectionMissing(SimulationError):
    """Camera did not find the target the step depends on."""


class SearchTimeout(SimulationError):
    """Spiral hole search exhausted its time budget."""


class SocketFitTimeout(SimulationError):
    """Socket never slotted onto the nut within the fit window."""


class SimTimeExceeded(SimulationError):
    """Simulated time ran past the engine's ceiling, ``MAX_SIM_TIME``."""


class NonMonotonicTime(SimulationError):
    """Trace sample appended with a non-increasing timestamp."""


class IoFailure(SimulationError):
    """Trace or report export could not write its output."""


class ScenarioInvalid(SimulationError):
    """Scenario text failed validation.

    Carries the offending field so callers can point at the bad line.
    """

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class HaltedByGuard(SimulationError):
    """The overload guard stopped a motion.

    Records the offending axis and the distance travelled before the stop.
    """

    def __init__(self, axis: str, travelled: float):
        super().__init__(f"guard stop on {axis} after {travelled * 1e3:.2f} mm")
        self.axis = axis
        self.travelled = travelled


class StepFailed(SimulationError):
    """A procedure step aborted; the run returns a partial report."""

    def __init__(self, step, cause: Exception):
        super().__init__(
            f"{getattr(step, 'value', step)}: {type(cause).__name__}: {cause}"
        )
        self.step = step
        self.cause = cause
