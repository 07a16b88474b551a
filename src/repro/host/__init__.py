"""Host-side runtime (the paper's OpenCL host program, in model form)."""

from repro.host.checkpoint import CheckpointStore, scan_fingerprint
from repro.host.cluster import ClusterSearchResult, FabPCluster
from repro.host.errors import (
    CheckpointError,
    CheckpointMismatchError,
    ChunkFailedError,
    ChunkTimeoutError,
    CorruptResultError,
    InjectedFaultError,
    PoolUnhealthyError,
    ScanError,
    ShardFailedError,
    WorkerCrashError,
)
from repro.host.faults import FaultKind, FaultPlan, FaultSpec
from repro.host.rescore import RescoreReport, RescoredHit, rescore_hits, rescore_search_result
from repro.host.resilience import RetryPolicy, ScanReport, ShardStatus, Supervisor
from repro.host.scan import PackedDatabase, scan_database
from repro.host.scan_session import ScanSession
from repro.host.session import (
    DatabaseEntry,
    FabPHost,
    HostSearchResult,
    NamedHit,
    PCIE_BANDWIDTH,
)
from repro.host.shards import ShardSpec, ShardedScanRuntime, plan_shards

__all__ = [
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "ChunkFailedError",
    "ChunkTimeoutError",
    "ClusterSearchResult",
    "CorruptResultError",
    "DatabaseEntry",
    "FabPCluster",
    "FabPHost",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "HostSearchResult",
    "InjectedFaultError",
    "NamedHit",
    "PCIE_BANDWIDTH",
    "PackedDatabase",
    "PoolUnhealthyError",
    "RescoreReport",
    "RescoredHit",
    "RetryPolicy",
    "ScanError",
    "ScanReport",
    "ScanSession",
    "ShardFailedError",
    "ShardSpec",
    "ShardStatus",
    "ShardedScanRuntime",
    "Supervisor",
    "WorkerCrashError",
    "plan_shards",
    "rescore_hits",
    "rescore_search_result",
    "scan_database",
    "scan_fingerprint",
]
