"""Evaluation service: cached, batched DSE campaigns.

The service layer turns the per-run, in-memory evaluation loop of the
MOGA explorer into shared infrastructure:

* :mod:`repro.service.cache` — content-addressed persistent evaluation
  cache (memory LRU + JSONL/SQLite disk tier, hit/miss statistics),
* :mod:`repro.service.executor` — the serial batch evaluator and the
  cache-aware per-problem evaluator behind one ``evaluate_batch``
  interface,
* :mod:`repro.service.campaign` — multi-spec campaign runner that
  explores the specs one after another in the calling thread and
  merges their fronts into one cross-architecture frontier,
* :mod:`repro.service.jobs` — job queue / background-worker scheduler
  with request deduplication, per-job status/result records, streaming
  progress events and cooperative cancellation,
* :mod:`repro.service.events` — typed, JSON-able campaign progress
  events and the bounded per-job event buffer,
* :mod:`repro.service.server` — asyncio front-end
  (:class:`~repro.service.server.AsyncCampaignService`) plus a
  stdlib-only HTTP/JSON server and client,
* :mod:`repro.service.api` — typed, JSON round-trippable
  request/response records.
"""

from repro.service.api import (
    SCHEMA_VERSION,
    CampaignRequest,
    CampaignResponse,
    FrontierPoint,
    SpecRequest,
)
from repro.service.cache import (
    CacheBackend,
    CacheStats,
    EvaluationCache,
    JsonlCacheBackend,
    MemoryCacheBackend,
    SqliteCacheBackend,
    evaluation_key,
    stable_hash,
)
from repro.service.campaign import (
    CampaignConfig,
    CampaignResult,
    execute_request,
    run_campaign,
)
from repro.service.events import (
    CampaignCancelled,
    CampaignEvent,
    EventBuffer,
    EventKind,
)
from repro.service.executor import (
    BatchExecutor,
    ProblemEvaluator,
    SerialExecutor,
)
from repro.service.jobs import JobQueue, JobRecord, JobStatus
from repro.service.server import (
    AsyncCampaignService,
    CampaignClient,
    CampaignHTTPServer,
    serve,
)

__all__ = [
    "SCHEMA_VERSION",
    "CampaignCancelled",
    "CampaignEvent",
    "EventBuffer",
    "EventKind",
    "AsyncCampaignService",
    "CampaignClient",
    "CampaignHTTPServer",
    "serve",
    "CacheBackend",
    "CacheStats",
    "EvaluationCache",
    "JsonlCacheBackend",
    "MemoryCacheBackend",
    "SqliteCacheBackend",
    "evaluation_key",
    "stable_hash",
    "BatchExecutor",
    "SerialExecutor",
    "ProblemEvaluator",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "execute_request",
    "JobQueue",
    "JobRecord",
    "JobStatus",
    "SpecRequest",
    "CampaignRequest",
    "CampaignResponse",
    "FrontierPoint",
]
