"""Detector registry: build a detection mechanism from a config section."""

from __future__ import annotations

from typing import Tuple

from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.core.null import NoDetection
from repro.core.hybrid import HybridDetection
from repro.core.pdm import PreviousDetectionMechanism
from repro.core.precise import PreciseNDM
from repro.core.probe import ProbeDetection
from repro.core.timeout import (
    HeaderBlockedTimeout,
    InjectionStallTimeout,
    SourceAgeTimeout,
)
from repro.network.config import DetectorConfig

#: Mechanism name -> implementing class, in registry (report) order.
_DETECTOR_CLASSES = {
    cls.name: cls
    for cls in (
        NewDetectionMechanism,
        PreciseNDM,
        HybridDetection,
        PreviousDetectionMechanism,
        ProbeDetection,
        HeaderBlockedTimeout,
        SourceAgeTimeout,
        InjectionStallTimeout,
        NoDetection,
    )
}


def make_detector(config: DetectorConfig) -> DeadlockDetector:
    """Instantiate the mechanism named by ``config.mechanism``."""
    name = config.mechanism
    if name == NewDetectionMechanism.name:
        return NewDetectionMechanism(
            threshold=config.threshold,
            t1=config.t1,
            selective_promotion=config.selective_promotion,
        )
    if name == PreviousDetectionMechanism.name:
        return PreviousDetectionMechanism(config.threshold)
    if name == PreciseNDM.name:
        return PreciseNDM(config.threshold)
    if name == HybridDetection.name:
        return HybridDetection(
            threshold=config.threshold,
            t1=config.t1,
            selective_promotion=config.selective_promotion,
        )
    if name == ProbeDetection.name:
        return ProbeDetection(
            threshold=config.threshold,
            max_hops=config.probe_max_hops,
            max_outstanding=config.probe_max_outstanding,
        )
    if name == HeaderBlockedTimeout.name:
        return HeaderBlockedTimeout(config.threshold)
    if name == SourceAgeTimeout.name:
        return SourceAgeTimeout(config.threshold)
    if name == InjectionStallTimeout.name:
        return InjectionStallTimeout(config.threshold)
    if name == NoDetection.name:
        return NoDetection()
    raise ValueError(
        f"unknown detection mechanism {name!r}; choose from {detector_names()}"
    )


def detector_names() -> Tuple[str, ...]:
    """Mechanism names accepted by :func:`make_detector`."""
    return tuple(_DETECTOR_CLASSES)
