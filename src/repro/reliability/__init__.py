"""Reliability modelling (Section 6 of the paper).

Implements the paper's extrapolation from bug counts to reliability
gains — the ``mAB / mA`` ratio — together with the uncertainty
analysis the paper walks through qualitatively (reporting bias, bug
failure-rate variation, usage profiles), and a Monte Carlo simulator of
the failure process of 1-version vs diverse N-version configurations.
"""

from repro.reliability.availability import (
    NetworkPolicyModel,
    ReplicaAvailability,
    TimeoutPolicyModel,
    service_availability,
)
from repro.reliability.model import (
    PairGain,
    ReliabilityModel,
    pair_gains_from_study,
)
from repro.reliability.simulate import (
    FailureProcessSimulator,
    SimulationOutcome,
)
from repro.reliability.profiles import UsageProfile, profile_sensitivity

__all__ = [
    "FailureProcessSimulator",
    "NetworkPolicyModel",
    "PairGain",
    "ReliabilityModel",
    "ReplicaAvailability",
    "SimulationOutcome",
    "TimeoutPolicyModel",
    "UsageProfile",
    "pair_gains_from_study",
    "profile_sensitivity",
    "service_availability",
]
