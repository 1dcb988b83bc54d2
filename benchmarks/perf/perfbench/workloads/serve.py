"""``serve_mix``: the ``submit`` journey through a live daemon.

A ``python -m repro serve --port 0 --serve-workers 1`` child, started
fresh (with empty stores) by every set-up, and two client threads.  The load is a *closed
loop*: each client sends its next request only when the previous reply is
in, because that is what callers of ``submit_and_wait`` do.  Per pass:
60 % fresh ``kernel`` submissions (fuzz-generated ASTs), 20 % exact
duplicates of an earlier request, 10 % ``app`` submissions (cold with the
optimised IR, later again without it: a new request but cell-cache-warm)
and 10 % textual ``ir`` submissions.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.frontend.lower import lower_kernels
from repro.fuzz.generator import generate_kernel
from repro.harness.cache import CellCache, outputs_from_json
from repro.harness.parallel import ParallelRunner
from repro.ir.parser import parse_module
from repro.serve import OptimizeRequest, ServeClient
from repro.serve.client import ServeError
from repro.serve.protocol import OptimizeResult, ast_to_json, content_hash
from repro.serve.service import execute_request

from ..env import fresh_stores
from ..meters import Op, percentile, proc_peak_rss_mb
from ..reference import same_bits, subject_reference
from ..spans import Tracer, span_of
from ..spec import KERNEL_DIR
from .base import TraceReport, Workload

now = time.perf_counter
LANES = 32
CLASSES = ("kernel", "dup", "app", "ir")


@dataclass
class _Request:
    kind: str
    request: OptimizeRequest
    #: Reference return lattices (kernel/dup/ir), None for apps.
    reference: Optional[Dict]


@dataclass
class _Daemon:
    process: subprocess.Popen
    url: str


class ServeMix(Workload):
    name = "serve_mix"
    clients = 2
    #: Fresh kernels are ``generate_kernel(0 .. n-1)``: a fixed window of
    #: generator seeds, all of it in every pass.  Drawing the window from
    #: ``--seed`` would make a run's work depend on the seed (kernels cost
    #: 15-140 ms each; 24 of them summed spread ~10 % across seeds), and
    #: the driver requires metrics to agree across seeds.  The seed decides
    #: order, which requests are duplicated, and the client interleaving.
    fresh, dups = 24, 8
    apps = ("bspline-vgh", "coordinates")
    #: Fixture kernels submitted as text (pure scalar subjects only, so not
    #: ``staggered``, which takes a buffer).
    ir_kernels = ("uniform", "divergent", "briefdiv", "chain")

    def prepare(self) -> None:
        if self.quick:
            self.fresh, self.dups = 5, 2
            self.apps, self.ir_kernels = self.apps[:1], self.ir_kernels[:1]
        rng = random.Random(f"{self.seed}/{self.name}")
        # (sort key, request): originals get a random position; a follow-up
        # (duplicate, warm app) gets one after its original's.
        placed: List[Tuple[float, _Request]] = []
        originals = []
        for i in range(self.fresh):
            kernel = generate_kernel(i)
            item = _Request(
                "kernel", OptimizeRequest(kernel=ast_to_json(kernel)),
                subject_reference(lower_kernels([kernel], kernel.name),
                                  LANES))
            originals.append((rng.random(), item))
        for name in self.ir_kernels:
            text = (KERNEL_DIR / f"{name}.ir").read_text()
            item = _Request("ir", OptimizeRequest(ir=text),
                            subject_reference(parse_module(text, name),
                                              LANES))
            originals.append((rng.random(), item))
        placed += originals
        for at, item in rng.sample(originals, self.dups):
            placed.append((rng.uniform(at, 1.0),
                           _Request("dup", item.request, item.reference)))
        for app in self.apps:
            at = rng.random()
            placed.append((at, _Request("app", OptimizeRequest(app=app),
                                        None)))
            placed.append((rng.uniform(at, 1.0), _Request(
                "app", OptimizeRequest(app=app, include_ir=False), None)))
        self.requests = [item for _, item in sorted(placed,
                                                    key=lambda p: p[0])]
        self._rounds = 0

    # -- the daemon ----------------------------------------------------------
    def setup(self) -> _Daemon:
        self._rounds += 1
        fresh_stores(self.work, f"daemon{self._rounds}")
        # One queue worker, not the daemon's default two: at the seed
        # commit two workers compiling at once corrupt the use-lists of
        # interned constants about once in 600 requests (README,
        # "Findings"), and a workload may hold no failing operation.  The
        # second client's request waits in the queue instead.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--serve-workers", "1"], stdout=subprocess.PIPE, text=True)
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://\S+", banner)
            if match is None:
                raise RuntimeError(f"daemon did not announce a URL: "
                                   f"{banner!r}")
            ServeClient(match.group(0)).health()
        except BaseException:
            self._stop(process)
            raise
        return _Daemon(process, match.group(0))

    def _stop(self, process: subprocess.Popen) -> None:
        self.child_peak_rss_mb = max(self.child_peak_rss_mb,
                                     proc_peak_rss_mb(process.pid))
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def teardown(self, state: _Daemon) -> None:
        self._stop(state.process)

    def live_children(self, state: _Daemon):
        return (state.process.pid,)

    # -- a pass --------------------------------------------------------------
    def run_pass(self, state: _Daemon,
                 tracer: Optional[Tracer] = None) -> List[Op]:
        pending = deque(enumerate(self.requests))
        lock = threading.Lock()
        done: List[Optional[Op]] = [None] * len(self.requests)

        def client_loop() -> None:
            client = ServeClient(state.url)
            while True:
                with lock:
                    if not pending:
                        return
                    index, item = pending.popleft()
                key = f"{index}:{item.kind}"
                start = now()
                try:
                    with span_of(tracer, "submit_and_wait", "serve", key):
                        result = client.submit_and_wait(item.request, 120)
                    ok = result.status == "ok"
                except ServeError as exc:
                    result, ok = exc, False
                done[index] = Op(key, now() - start, ok, result, item.kind)

        threads = [threading.Thread(target=client_loop)
                   for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return done

    def _result_ok(self, item: _Request, result: OptimizeResult) -> bool:
        if not result.outputs_match_baseline or result.timed_out:
            return False
        if item.reference is None:
            return True
        return same_bits(outputs_from_json(result.outputs), item.reference)

    def check_pass(self, state, ops: List[Op]) -> int:
        return sum(1 for item, op in zip(self.requests, ops)
                   if not (op.ok and self._result_ok(item, op.data)))

    # -- the traced run ------------------------------------------------------
    def traced(self, tracer: Tracer, state: _Daemon,
               ops: List[Op]) -> TraceReport:
        layer: Dict[str, float] = {}
        # The first daemon has memoised every request by now; the traced
        # pass needs one that has seen none of them.
        daemon = self.setup()
        try:
            start = now()
            traced_ops = self.run_pass(daemon, tracer)
            wall = now() - start
            queue = ServeClient(daemon.url).stats()["queue"]
        finally:
            self.teardown(daemon)
        failed = self.check_pass(daemon, traced_ops)
        layer["serve.roundtrip_s"] = sum(op.seconds for op in traced_ops)
        for kind in CLASSES:
            layer[f"serve.lat_p50_ms.{kind}"] = 1e3 * percentile(
                [op.seconds for op in traced_ops if op.kind == kind], 50)
        layer["serve.executed"] = queue["executed"]
        layer["serve.failed"] = queue["failed"]
        layer["serve.dedup_share"] = queue["deduped"] / queue["submitted"]

        # The same requests, each distinct one once, straight through the
        # service function the daemon's workers call.
        fresh_stores(self.work, "direct")
        runner = ParallelRunner(cache=CellCache())
        served = {content_hash(item.request): op.data
                  for item, op in zip(self.requests, traced_ops) if op.ok}
        direct: Dict[str, OptimizeResult] = {}
        direct_start = now()
        for item in self.requests:
            digest = content_hash(item.request)
            if digest in direct:
                continue
            with tracer.span("execute_request", "serve",
                             f"direct:{item.kind}"):
                direct[digest] = execute_request(item.request, runner=runner)
        layer["serve.direct_s"] = now() - direct_start
        layer["serve.overhead_s"] = (layer["serve.roundtrip_s"]
                                     - layer["serve.direct_s"])
        for digest, result in direct.items():
            seen = served.get(digest)
            if seen is None or (seen.cycles, seen.code_size, seen.outputs) \
                    != (result.cycles, result.code_size, result.outputs):
                failed += 1

        probe_start = now()
        pairs = [(item.request, op.data)
                 for item, op in zip(self.requests, traced_ops) if op.ok]
        with tracer.span("protocol.encode", "serve", "probe") as sid:
            texts = [(json.dumps(request.to_json()),
                      json.dumps(result.to_json()))
                     for request, result in pairs]
        layer["serve.protocol.encode_s"] = tracer.seconds(sid)
        with tracer.span("protocol.decode", "serve", "probe") as sid:
            for request_text, result_text in texts:
                OptimizeRequest.from_json(json.loads(request_text))
                OptimizeResult.from_json(json.loads(result_text))
        layer["serve.protocol.decode_s"] = tracer.seconds(sid)
        with tracer.span("protocol.hash", "serve", "probe") as sid:
            for request, _ in pairs:
                content_hash(request)
        layer["serve.protocol.hash_s"] = tracer.seconds(sid)
        probes = now() - probe_start

        by_class = {kind: sum(1 for r in self.requests if r.kind == kind)
                    for kind in CLASSES}
        counts = {
            "requests": by_class,
            "queue": {k: queue[k] for k in ("submitted", "executed",
                                            "deduped", "failed")},
            "sim_cycles": math.fsum(r.cycles for r in direct.values()),
            "code_size_total": sum(r.code_size for r in direct.values()),
        }
        return TraceReport(
            layer=layer, counts=counts, traced_wall_s=wall,
            span_wall_s=self.clients * wall + layer["serve.direct_s"]
            + probes,
            attempted=len(traced_ops) + len(direct), failed=failed)
