"""``repro.serve`` — the campaign service: async submission API +
content-addressed result cache.

Bulk design-space exploration — one prepared trace replayed across
many design points — is ReSim's main use; this package serves it to
many clients at once.  A long-lived ``resim serve`` process accepts
simulate/sweep/search submissions as plain JSON documents, schedules
them onto the existing execution backends with bounded concurrency
and a crash-safe journal, streams
progress as line-delimited JSON, and — the production-scale move —
memoizes every completed work unit in a content-addressed store, so
overlapping queries from all clients simulate each distinct
computation exactly once.  Each connection, an open event stream
included, holds one server thread for its span; the measured
envelope is tens of clients at once (20 simultaneous submissions
with 60 open event streams, all answered).  The pieces:

* :mod:`repro.serve.canon` — cache-key derivation: canonicalized
  spec + trace content digest + engine version;
* :mod:`repro.serve.cache` — :class:`CacheStore` (atomic, versioned,
  self-invalidating on engine bumps) and :class:`CachingBackend`
  (memoizes any :class:`~repro.exec.ExecutionBackend`);
* :mod:`repro.serve.jobs` — :class:`JobManager`: submission
  coalescing, bounded concurrency, journal-backed restart recovery,
  cooperative cancellation;
* :mod:`repro.serve.app` — :class:`CampaignService` (request
  validation + job execution);
* :mod:`repro.serve.http` — :class:`BackgroundServer`, the stdlib
  ``http.server`` front: one thread per connection, JSON both ways;
* :mod:`repro.serve.client` — :class:`ServiceClient`, the
  programmatic twin of ``resim client``.

Quick start (one process)::

    from repro.serve import BackgroundServer, CampaignService, \\
        ServiceClient

    service = CampaignService("campaign-root")
    with BackgroundServer(service) as server:
        client = ServiceClient(*server.address)
        answer = client.submit({"kind": "sweep",
                                "axes": {"rob_entries": [8, 16]},
                                "workload": "gzip", "budget": 4000})
        client.wait(answer["job_id"])
        print(client.result(answer["job_id"])["cache"])
"""

from repro.serve.app import CampaignService, REQUEST_KINDS, ServiceError
from repro.serve.cache import (
    CACHE_SCHEMA,
    CacheError,
    CacheStore,
    CachingBackend,
)
from repro.serve.canon import (
    CACHE_KEY_LENGTH,
    CanonError,
    ENGINE_VERSION,
    KEY_SCHEMA,
    cache_key,
    canonical_spec,
    trace_digest,
)
from repro.serve.client import ClientError, ServiceClient
from repro.serve.http import BackgroundServer, DEFAULT_HOST, DEFAULT_PORT
from repro.serve.jobs import (
    JOB_SCHEMA,
    JOB_STATES,
    Job,
    JobCancelled,
    JobContext,
    JobError,
    JobManager,
    TERMINAL_STATES,
    request_key,
)

__all__ = [
    "BackgroundServer",
    "CACHE_KEY_LENGTH",
    "CACHE_SCHEMA",
    "CampaignService",
    "CanonError",
    "CacheError",
    "CacheStore",
    "CachingBackend",
    "ClientError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ENGINE_VERSION",
    "JOB_SCHEMA",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobContext",
    "JobError",
    "JobManager",
    "KEY_SCHEMA",
    "REQUEST_KINDS",
    "ServiceClient",
    "ServiceError",
    "TERMINAL_STATES",
    "cache_key",
    "canonical_spec",
    "request_key",
    "trace_digest",
]
