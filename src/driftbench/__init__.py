"""Streaming concept-drift detection with recurring-drift memory."""

from .detector import DetectorConfig
from .evaluation import prequential_run
from .strategies import make_strategy
from .streams import SyntheticSpec, default_concepts, synth_recurring

__version__ = "0.1.0"

__all__ = [
    "DetectorConfig",
    "SyntheticSpec",
    "default_concepts",
    "make_strategy",
    "prequential_run",
    "synth_recurring",
]
