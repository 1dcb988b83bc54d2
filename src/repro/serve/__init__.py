"""repro.serve — optimization-as-a-service daemon and client.

The batch harness turned into infrastructure: a persistent local daemon
(``repro serve``) accepts kernel submissions — a registered benchmark, a
textual-IR module, or a frontend-AST kernel — plus a pipeline config and
execution engine, and returns the optimized IR, the applied decisions,
the typed optimization-remark stream, and simulated cycles/speedups.
The CLI is just one client of the service.

* :mod:`repro.serve.protocol` — request/result schemas, the content hash
  that powers request dedup, the frontend-AST JSON codec, and the
  (reserved) pragma-style transformation-directive syntax;
* :mod:`repro.serve.service` — the pure "optimize one submission"
  function shared by the daemon and the direct in-process path, so
  served and direct results are bit-identical by construction;
* :mod:`repro.serve.jobs` — priority job queue with in-flight dedup;
* :mod:`repro.serve.daemon` — the stdlib HTTP server and its endpoints;
* :mod:`repro.serve.client` — thin urllib client (``repro submit``).
"""

from .client import DEFAULT_URL, ServeClient
from .daemon import ServeDaemon
from .jobs import Job, JobQueue, JobState
from .protocol import (SERVE_SCHEMA_VERSION, OptimizeRequest, OptimizeResult,
                       ast_from_json, ast_to_json, content_hash,
                       parse_plan)
from .service import execute_request

__all__ = [
    "DEFAULT_URL", "Job", "JobQueue", "JobState", "OptimizeRequest",
    "OptimizeResult", "SERVE_SCHEMA_VERSION", "ServeClient", "ServeDaemon",
    "ast_from_json", "ast_to_json", "content_hash", "execute_request",
    "parse_plan",
]
