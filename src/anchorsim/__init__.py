"""anchorsim: deterministic simulator for dual-arm fixation of structural
parts to concrete (drill, insert, hammer, tighten), with calibrated tool
physics and a seeded mission executive.

The package root exports what the README and the demos use; everything else
is imported from its module (``anchorsim.procedure``, ``anchorsim.engine``,
...).
"""

from .engine import run
from .procedure import schedule_dual_arm
from .scenario import Scenario

__all__ = ["Scenario", "run", "schedule_dual_arm"]

__version__ = "0.1.0"
