"""The optimization service's HTTP daemon (``repro serve``).

Stdlib only: a :class:`http.server.ThreadingHTTPServer` bound to
localhost fronting a :class:`~repro.serve.jobs.JobQueue`.  App
submissions share one cache-backed :class:`ExperimentRunner` (guarded by
a lock — the runner's memo dicts are not thread-safe), so repeated
requests hit the persistent cell cache exactly like repeated CLI runs;
ir/kernel subjects are self-contained and run fully concurrently on the
queue workers.

Endpoints (JSON in, JSON out)::

    POST /submit            OptimizeRequest body -> {job_id, deduped, ...}
    GET  /status/<job_id>   -> job lifecycle snapshot
    GET  /result/<job_id>   [?wait=seconds] -> OptimizeResult (202 while
                            pending, so pollers can distinguish "not
                            done" from "gone")
    POST /cancel/<job_id>   -> {cancelled: bool} (queued jobs only)
    GET  /stats             -> queue counters + cell-cache stats
    GET  /health            -> {ok, schema, url, uptime_seconds}
    GET  /metrics           -> Prometheus text exposition (queue, cache,
                            JIT counter families; see repro.obs.metrics)

A request to a *known* route with the wrong verb gets 405 (with an
``Allow`` header), not 404 — clients can tell "wrong method" from "no
such endpoint".

Shutdown is idempotent and signal-friendly: SIGTERM/SIGINT (see
:meth:`ServeDaemon.install_signal_handlers`) stop the HTTP listener,
cancel still-queued jobs, and join the queue workers, leaving no
background thread behind.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..harness.cache import CellCache
from ..harness.experiment import ExperimentRunner, resolve_jobs
from ..obs import ObsSession
from ..obs import metrics as obs_metrics
from .jobs import JobQueue, JobState
from .protocol import (SERVE_SCHEMA_VERSION, OptimizeRequest, ProtocolError,
                       content_hash)
from .service import execute_request

#: Queue priority of background refinement jobs: far below any user
#: submission (user priorities default to 0), so refinement only runs
#: when the queue is otherwise idle.
REFINE_PRIORITY = -100


def refine_app(app: str, sim_index_dir=None) -> Dict:
    """Empirically tune ``app`` and upgrade the similarity index.

    The background half of the serve fast path: a ``predicted`` result is
    returned instantly, and this job later replaces transferred evidence
    with a verified empirical tuning (``source="refined"`` in the index).
    The tuning is *not* persisted to ``results/tuned/`` — the daemon owns
    the index, not the committed corpus.
    """
    from ..bench import benchmark_by_name
    from ..similarity.index import SimilarityIndex
    from ..tune.search import tune_benchmark

    bench = benchmark_by_name(app)
    result = tune_benchmark(bench, jobs=1, persist=False)
    if not result.verified:
        return {"status": "error", "app": app, "indexed": False,
                "error": f"refinement unverified: {result.verify_detail}"}
    index = SimilarityIndex(sim_index_dir)
    key = index.add_tuned(bench.build_module(), result.config,
                          source="refined")
    return {"status": "ok", "app": app, "indexed": True, "entry_key": key,
            "source": result.config.source,
            "tuned_cycles": result.config.tuned_cycles}


#: Routes by verb; anything here answered with the other verb is a 405.
GET_ROUTES = ("health", "stats", "metrics", "status", "result")
POST_ROUTES = ("submit", "cancel")

#: Cap on ``?wait=`` so a dead client cannot pin a handler thread forever.
MAX_RESULT_WAIT_SECONDS = 300.0


class ServeDaemon:
    """Own the queue, the shared runner, and the HTTP listener."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2,
                 runner: Optional[ExperimentRunner] = None,
                 cache_max_bytes: Optional[int] = None,
                 use_cache: bool = True) -> None:
        self.host = host
        self._requested_port = port
        if runner is None:
            cache = (CellCache(max_bytes=cache_max_bytes) if use_cache
                     else None)
            runner = ExperimentRunner(jobs=resolve_jobs(), cache=cache)
        self.runner = runner
        #: Serializes app jobs on the shared runner; ir/kernel jobs
        #: never take it.
        self._runner_lock = threading.RLock()
        #: The daemon's metric registry.  Installed into the process
        #: slot (unless one is already live, e.g. an embedding test's)
        #: so queue/cache/JIT hooks all aggregate here; pre-registered
        #: at zero so a scrape of an idle daemon still shows every
        #: family.
        self._owns_metrics = obs_metrics.active() is None
        self.metrics = obs_metrics.active() or obs_metrics.install()
        obs_metrics.preregister(self.metrics)
        #: Master observability stream: every job's remarks and trace
        #: events, folded under a lock as jobs finish.  Spans carry
        #: ``args.request``, so one request's story is recoverable with
        #: ``repro trace --request`` after :meth:`export_obs`.
        self.obs = ObsSession()
        self._obs_lock = threading.Lock()
        #: Background-refinement entry point (tests monkeypatch this to
        #: avoid a real tuning search inside a unit test).
        self.refine_fn = refine_app
        #: Similarity-plane session counters, guarded by their own lock
        #: (bumped from queue workers and read by /stats).
        self._similarity_lock = threading.Lock()
        self._similarity = {"predictions_served": 0,
                            "refinements_submitted": 0,
                            "refinements_completed": 0,
                            "refinements_failed": 0}
        #: Monotonic anchor for /health's ``uptime_seconds``.
        self.started_at = time.monotonic()
        self.queue = JobQueue(self._execute, workers=workers)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._stopped = False

    # -- job execution -------------------------------------------------------
    def _execute(self, request_json: Dict) -> Dict:
        """Queue-worker entry point: one submission -> one result dict."""
        if request_json.get("internal") == "refine":
            return self._execute_refine(request_json)
        request = OptimizeRequest.from_json(request_json)
        if request.app is not None:
            with self._runner_lock:
                result = execute_request(request, runner=self.runner)
        else:
            # Lock-free: a bare module only reads the runner's tuned /
            # similarity-index directories to resolve its plan.
            result = execute_request(request, runner=self.runner)
        data = result.to_json()
        if request.config == "predicted" and data.get("status") == "ok":
            with self._similarity_lock:
                self._similarity["predictions_served"] += 1
        self._fold_obs(data)
        return data

    def _execute_refine(self, request_json: Dict) -> Dict:
        """Run one background refinement (daemon-internal job shape)."""
        app = str(request_json.get("app", ""))
        # The runner lock keeps a refinement search from contending with
        # interactive app jobs for the shared cell cache and the CPU.
        with self._runner_lock:
            try:
                data = self.refine_fn(app, self.runner.sim_index_dir)
            except Exception as exc:  # noqa: BLE001 — job must terminate
                data = {"status": "error", "app": app, "indexed": False,
                        "error": f"{type(exc).__name__}: {exc}"}
        with self._similarity_lock:
            if data.get("status") == "ok":
                self._similarity["refinements_completed"] += 1
            else:
                self._similarity["refinements_failed"] += 1
        return data

    def submit_refinement(self, app: str):
        """Enqueue a background refinement for ``app`` at idle priority.

        Dedups on ``refine:<app>`` — the second predicted submission for
        an app does not schedule a second tuning search.  Returns the
        (job, deduped) pair, like :meth:`JobQueue.submit`.
        """
        job, deduped = self.queue.submit(
            {"internal": "refine", "app": app},
            f"refine:{app}", priority=REFINE_PRIORITY)
        if not deduped:
            with self._similarity_lock:
                self._similarity["refinements_submitted"] += 1
        return job, deduped

    def _fold_obs(self, result_json: Dict) -> None:
        """Merge one finished job's captured streams into the master."""
        payload = {"remarks": result_json.get("remarks") or [],
                   "events": result_json.get("trace_events") or [],
                   "profile": result_json.get("profile")}
        if not (payload["remarks"] or payload["events"]
                or payload["profile"]):
            return
        with self._obs_lock:
            self.obs.merge_payload(payload)

    def export_obs(self, trace_out=None, remarks_out=None) -> Dict[str, int]:
        """Write the merged trace/remark streams; returns event counts."""
        from ..obs import write_jsonl
        written = {}
        with self._obs_lock:
            if trace_out is not None:
                written["events"] = self.obs.tracer.write(trace_out)
            if remarks_out is not None:
                written["remarks"] = write_jsonl(self.obs.remarks,
                                                 remarks_out)
        return written

    # -- HTTP lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> str:
        """Bind and serve in a background thread; returns the URL."""
        self._bind()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http",
            daemon=True)
        self._http_thread.start()
        return self.url

    def serve(self) -> None:
        """Bind and serve on the calling thread until :meth:`shutdown`."""
        self._bind()
        try:
            self._httpd.serve_forever()
        finally:
            self.shutdown()

    def _bind(self) -> None:
        if self._httpd is not None:
            return
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self._requested_port),
                                          handler)
        self._httpd.daemon_threads = True

    def wait(self) -> None:
        """Block until the HTTP thread exits (short joins so SIGTERM's
        handler gets a prompt turn on the main thread)."""
        thread = self._http_thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=0.5)

    def shutdown(self) -> None:
        """Stop listening, drain/cancel the queue, join every thread."""
        with self._shutdown_lock:
            if self._stopped:
                return
            self._stopped = True
        httpd = self._httpd
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
        self.queue.shutdown(wait=True)
        # Don't leak the daemon's registry into the process slot: later
        # code in this process expects the disabled path back.
        if self._owns_metrics and obs_metrics.active() is self.metrics:
            obs_metrics.uninstall()

    def install_signal_handlers(self) -> Dict[int, object]:
        """Route SIGTERM/SIGINT to :meth:`shutdown`; returns the handlers
        that were previously installed (so tests can restore them)."""
        previous = {}

        def _handle(signum, _frame):
            self.shutdown()

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _handle)
        return previous

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": SERVE_SCHEMA_VERSION,
            "url": self.url,
            "queue": self.queue.stats(),
        }
        cache = self.runner.cache
        data["cache"] = cache.stats() if cache is not None else None
        # What the jit did for this daemon's registry; hits/misses/puts
        # have read 0 since region plans stopped outliving a machine and
        # stay only so the reply keeps its shape.
        data["region_cache"] = {"session": dict(
            obs_metrics.jit_counts(self.metrics), hits=0, misses=0, puts=0)}
        from ..similarity.index import SimilarityIndex
        index = SimilarityIndex(self.runner.sim_index_dir)
        with self._similarity_lock:
            counters = dict(self._similarity)
        counters["refinements_pending"] = max(
            0, counters["refinements_submitted"]
            - counters["refinements_completed"]
            - counters["refinements_failed"])
        counters["index"] = index.stats()
        data["similarity"] = counters
        data["metrics"] = self.metrics.summary()
        return data


# ---------------------------------------------------------------------------
# HTTP plumbing
# ---------------------------------------------------------------------------

def _make_handler(daemon: ServeDaemon):
    """Bind a request-handler class to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-serve/{SERVE_SCHEMA_VERSION}"

        # Keep the daemon's stdout clean; tests assert on it.
        def log_message(self, fmt, *args):  # noqa: D102
            pass

        def _reply(self, code: int, payload: Dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _reply_text(self, code: int, text: str,
                        content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _method_not_allowed(self, head: str, current_routes,
                                allow: str) -> bool:
            """405 for a known route addressed with the wrong verb."""
            if head in current_routes or head not in (
                    GET_ROUTES + POST_ROUTES):
                return False
            body = json.dumps(
                {"error": f"method not allowed on {head!r}"}
            ).encode("utf-8")
            self.send_response(405)
            self.send_header("Allow", allow)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return True

        def _read_json(self) -> Dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"request body is not JSON: {exc}")

        def _route(self) -> Tuple[str, Optional[str], Dict[str, str]]:
            path, _, query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            params = {}
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key:
                    params[key] = value
            head = parts[0] if parts else ""
            arg = parts[1] if len(parts) > 1 else None
            return head, arg, params

        # -- verbs ----------------------------------------------------------
        def do_POST(self) -> None:  # noqa: N802
            head, arg, _params = self._route()
            obs_metrics.inc("repro_serve_requests_total",
                            endpoint=head or "/", method="POST")
            if self._method_not_allowed(head, POST_ROUTES, "GET"):
                return
            try:
                if head == "submit" and arg is None:
                    self._submit()
                elif head == "cancel" and arg:
                    self._reply(200, {"job_id": arg,
                                      "cancelled": daemon.queue.cancel(arg)})
                else:
                    self._reply(404, {"error": f"no such endpoint {head!r}"})
            except ProtocolError as exc:
                self._reply(400, {"error": str(exc)})
            except RuntimeError as exc:       # queue shutting down
                self._reply(503, {"error": str(exc)})

        def do_GET(self) -> None:  # noqa: N802
            head, arg, params = self._route()
            obs_metrics.inc("repro_serve_requests_total",
                            endpoint=head or "/", method="GET")
            if self._method_not_allowed(head, GET_ROUTES, "POST"):
                return
            if head == "health":
                uptime = time.monotonic() - daemon.started_at
                self._reply(200, {"ok": True,
                                  "schema": SERVE_SCHEMA_VERSION,
                                  "url": daemon.url,
                                  "uptime_seconds": round(uptime, 3)})
            elif head == "metrics":
                self._reply_text(200, daemon.metrics.render(),
                                 "text/plain; version=0.0.4; charset=utf-8")
            elif head == "stats":
                self._reply(200, daemon.stats())
            elif head == "status" and arg:
                job = daemon.queue.get(arg)
                if job is None:
                    self._reply(404, {"error": f"unknown job {arg!r}"})
                else:
                    self._reply(200, job.status_json())
            elif head == "result" and arg:
                self._result(arg, params)
            else:
                self._reply(404, {"error": f"no such endpoint {head!r}"})

        # -- endpoint bodies -------------------------------------------------
        def _submit(self) -> None:
            body = self._read_json()
            request = OptimizeRequest.from_json(body)
            job, deduped = daemon.queue.submit(
                request.to_json(), content_hash(request),
                priority=request.priority)
            reply = {"job_id": job.id,
                     "content_hash": job.content_hash,
                     "state": job.state,
                     "deduped": deduped}
            if (request.refine and request.app is not None
                    and request.config == "predicted"):
                refine_job, _refine_deduped = daemon.submit_refinement(
                    request.app)
                reply["refine_job_id"] = refine_job.id
            self._reply(200, reply)

        def _result(self, job_id: str, params: Dict[str, str]) -> None:
            job = daemon.queue.get(job_id)
            if job is None:
                self._reply(404, {"error": f"unknown job {job_id!r}"})
                return
            wait = 0.0
            if "wait" in params:
                try:
                    wait = min(float(params["wait"]),
                               MAX_RESULT_WAIT_SECONDS)
                except ValueError:
                    self._reply(400, {"error": "wait must be a number"})
                    return
            if wait > 0:
                job.done_event.wait(wait)
            if job.state == JobState.DONE:
                self._reply(200, job.result)
            elif job.state in JobState.FINISHED:
                self._reply(200, {"status": "error",
                                  "content_hash": job.content_hash,
                                  "job_id": job.id,
                                  "state": job.state,
                                  "error": job.error})
            else:
                self._reply(202, job.status_json())

    return Handler
