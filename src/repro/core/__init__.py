"""The paper's contribution: parallel NFA execution on the AP."""

from repro.core.composition import ComposedSegment, compose_segment, unit_truth_map
from repro.core.config import DEFAULT_CONFIG, PAPConfig
from repro.core.deployment import Deployment, SegmentDeployment, deploy_plan
from repro.core.enumeration import EnumerationUnit, build_units
from repro.core.merging import (
    FlowPlan,
    FlowReductionStats,
    PlannedFlow,
    pack_flows,
)
from repro.core.metrics import PAPRunResult
from repro.core.pap import PAPPlan, ParallelAutomataProcessor
from repro.core.partitioning import InputSegment, partition_input
from repro.core.ranges import (
    PartitionSymbolChoice,
    RangeProfile,
    choose_partition_symbol,
    enumeration_range,
    enumeration_range_sizes,
    range_profile,
)
from repro.core.scheduler import (
    ASG_FLOW_ID,
    GOLDEN_FLOW_ID,
    SegmentMetrics,
    SegmentPlan,
    SegmentResult,
    SegmentScheduler,
)
from repro.core.speculation import (
    SegmentSpeculation,
    SpeculativeAutomataProcessor,
    SpeculativeRunResult,
)

__all__ = [
    "ASG_FLOW_ID",
    "ComposedSegment",
    "DEFAULT_CONFIG",
    "Deployment",
    "EnumerationUnit",
    "FlowPlan",
    "FlowReductionStats",
    "GOLDEN_FLOW_ID",
    "InputSegment",
    "PAPConfig",
    "PAPPlan",
    "PAPRunResult",
    "ParallelAutomataProcessor",
    "PartitionSymbolChoice",
    "PlannedFlow",
    "RangeProfile",
    "SegmentDeployment",
    "SegmentMetrics",
    "SegmentPlan",
    "SegmentResult",
    "SegmentScheduler",
    "SegmentSpeculation",
    "SpeculativeAutomataProcessor",
    "SpeculativeRunResult",
    "build_units",
    "deploy_plan",
    "choose_partition_symbol",
    "compose_segment",
    "enumeration_range",
    "enumeration_range_sizes",
    "pack_flows",
    "partition_input",
    "range_profile",
    "unit_truth_map",
]
