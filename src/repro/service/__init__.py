"""Front-door scan service: the daemon around the warm scan runtime.

The paper's deployment is a resident accelerator behind a host API; this
package is the software analogue's front door.  It stacks three layers,
each usable on its own:

* :mod:`repro.service.jobs` — job lifecycle (``queued`` → ``running`` →
  ``done``/``failed``) and the bounded, thread-safe job store;
* :mod:`repro.service.cache` — content-addressed LRU result cache keyed
  by (query fingerprint, database fingerprint, threshold);
* :mod:`repro.service.daemon` — :class:`ScanService`, the resident core:
  admission queue, single batcher thread coalescing concurrent jobs into
  shared ``bitscore_batch`` passes, graceful drain;
* :mod:`repro.service.server` — :class:`ScanServer`, the stdlib HTTP
  front end (``POST /scan``, ``GET /jobs``/``results``, ``/healthz``,
  Prometheus ``/metrics``) with SIGTERM drain.

``fabp-repro serve`` wires it all together; ``docs/service.md`` is the
user-facing contract.
"""

from repro.service.cache import (
    ResultCache,
    database_fingerprint,
    query_fingerprint,
)
from repro.service.daemon import (
    ScanService,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.service.jobs import Job, JobStore, result_to_dict
from repro.service.server import ScanServer, wait_until_listening

__all__ = [
    "Job",
    "JobStore",
    "ResultCache",
    "ScanServer",
    "ScanService",
    "ServiceClosedError",
    "ServiceSaturatedError",
    "database_fingerprint",
    "query_fingerprint",
    "result_to_dict",
    "wait_until_listening",
]
