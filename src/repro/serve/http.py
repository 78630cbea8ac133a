"""JSON-over-HTTP frontend for :class:`~repro.serve.service.EmbeddingService`.

Pure stdlib (``http.server``), threaded — concurrent requests enter the
service through the micro-batching planner, which is where coalescing
happens; whichever request thread leads a batch runs the eager encoder
pass under its own (per-thread) ``no_grad`` / dtype scope.  Endpoints:

====== =========== ==================================================
POST   /embed      ``{"nodes": [...], "ts": <scalar or list>}``
POST   /score      ``{"src": [...], "dst": [...], "ts": ...}``
POST   /topk       ``{"src": n, "t": t, "k": k, "candidates": [...]?,
                      "exact": bool?}``
POST   /ingest     ``{"src": [...], "dst": [...], "timestamps": [...],
                      "edge_feats": [[...]]?}``
POST   /snapshot   ``{"path": "..."}`` — persist live state to disk
GET    /stats      planner / cache / index / compactor / ingest counters
GET    /metrics    the process metrics registry, Prometheus text format
GET    /health     liveness probe
====== =========== ==================================================

:class:`LocalClient` speaks the same request/response dictionaries
in-process (no socket), so tests can assert the HTTP round trip is
value-identical to local calls.  ``add_serve_arguments`` declares the
``repro serve`` flags and ``serve_from_args`` runs the parsed command.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .. import obs as _obs
from ..api.artifact import ArtifactError
from .service import EmbeddingService, ServeError
from .snapshot import SnapshotError

__all__ = ["LocalClient", "HttpClient", "serve_forever",
           "start_http_server", "main"]


class LocalClient:
    """In-process client: the HTTP API surface without the socket."""

    def __init__(self, service: EmbeddingService):
        self.service = service

    def embed(self, nodes, ts) -> dict:
        rows = self.service.embed(nodes, ts)
        return {"embeddings": [[float(v) for v in row] for row in rows]}

    def score(self, src, dst, ts) -> dict:
        scores = self.service.score_links(src, dst, ts)
        return {"scores": [float(s) for s in scores]}

    def topk(self, src, t, k, candidates=None, exact=None) -> dict:
        nodes, scores = self.service.top_k(int(src), float(t), int(k),
                                           candidates=candidates,
                                           exact=exact)
        return {"nodes": [int(n) for n in nodes],
                "scores": [float(s) for s in scores]}

    def ingest(self, src, dst, timestamps, edge_feats=None) -> dict:
        feats = None if edge_feats is None else np.asarray(edge_feats,
                                                           dtype=np.float64)
        count = self.service.ingest(src=src, dst=dst, timestamps=timestamps,
                                    edge_feats=feats)
        return {"ingested": int(count)}

    def snapshot(self, path) -> dict:
        meta = self.service.snapshot(str(path))
        return {"path": str(path), "num_events": meta["num_events"],
                "created_unix": meta["created_unix"]}

    def stats(self) -> dict:
        return self.service.stats()

    def metrics(self) -> str:
        _obs.record_peak_rss()
        return _obs.render_prometheus()

    def health(self) -> dict:
        return {"status": "ok"}


class _Handler(BaseHTTPRequestHandler):
    """Routes JSON requests onto the shared :class:`LocalClient`."""

    # Injected by start_http_server via a subclass attribute.
    client: LocalClient = None
    quiet: bool = True

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # pragma: no cover - noise control
        if not self.quiet:
            super().log_message(fmt, *args)

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self._send_body(body, "application/json", status)

    def _send_body(self, body: bytes, content_type: str,
                   status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        try:
            if self.path == "/health":
                self._reply(self.client.health())
            elif self.path == "/stats":
                self._reply(self.client.stats())
            elif self.path == "/metrics":
                self._send_body(self.client.metrics().encode(),
                                "text/plain; version=0.0.4; charset=utf-8")
            else:
                self._reply({"error": f"unknown path {self.path}"}, 404)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": str(exc)}, 500)

    def do_POST(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # rfile.read(-1) would block until the client closes.
                raise ValueError(f"negative Content-Length {length}")
            request = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply({"error": f"bad JSON request: {exc}"}, 400)
            return
        try:
            if self.path == "/embed":
                payload = self.client.embed(request["nodes"], request["ts"])
            elif self.path == "/score":
                payload = self.client.score(request["src"], request["dst"],
                                            request["ts"])
            elif self.path == "/topk":
                payload = self.client.topk(
                    request["src"], request["t"], request.get("k", 10),
                    candidates=request.get("candidates"),
                    exact=request.get("exact"))
            elif self.path == "/ingest":
                payload = self.client.ingest(
                    request["src"], request["dst"], request["timestamps"],
                    edge_feats=request.get("edge_feats"))
            elif self.path == "/snapshot":
                payload = self.client.snapshot(request["path"])
            else:
                self._reply({"error": f"unknown path {self.path}"}, 404)
                return
        except KeyError as exc:
            self._reply({"error": f"missing field {exc.args[0]!r}"}, 400)
            return
        except (ServeError, SnapshotError, ValueError, TypeError,
                OSError) as exc:
            # TypeError covers malformed JSON values (e.g. null node ids)
            # that fail inside numpy conversion; OSError an unwritable
            # snapshot path.
            self._reply({"error": str(exc)}, 400)
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": str(exc)}, 500)
            return
        self._reply(payload)


def start_http_server(service: EmbeddingService, host: str = "127.0.0.1",
                      port: int = 0, quiet: bool = True
                      ) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Serve in a daemon thread; returns ``(server, thread)``.

    ``port=0`` binds an ephemeral port (``server.server_address[1]``) —
    the shape the tests use.  Call ``server.shutdown()`` to stop.
    """
    handler = type("BoundHandler", (_Handler,),
                   {"client": LocalClient(service), "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    return server, thread


def serve_forever(service: EmbeddingService, host: str, port: int,
                  quiet: bool = False) -> None:  # pragma: no cover - CLI loop
    handler = type("BoundHandler", (_Handler,),
                   {"client": LocalClient(service), "quiet": quiet})
    with ThreadingHTTPServer((host, port), handler) as server:
        bound = server.server_address
        print(f"serving on http://{bound[0]}:{bound[1]} "
              f"(POST /embed /score /topk /ingest /snapshot, "
              f"GET /stats /metrics /health)")
        server.serve_forever()


class HttpClient:
    """Minimal urllib client mirroring :class:`LocalClient`'s surface."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _post(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            return json.loads(resp.read())

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(f"{self.base_url}{path}",
                                    timeout=self.timeout) as resp:
            return json.loads(resp.read())

    def metrics(self) -> str:
        with urllib.request.urlopen(f"{self.base_url}/metrics",
                                    timeout=self.timeout) as resp:
            return resp.read().decode()

    def embed(self, nodes, ts) -> dict:
        return self._post("/embed", {"nodes": list(map(int, nodes)),
                                     "ts": ts})

    def score(self, src, dst, ts) -> dict:
        return self._post("/score", {"src": list(map(int, src)),
                                     "dst": list(map(int, dst)), "ts": ts})

    def topk(self, src, t, k, candidates=None, exact=None) -> dict:
        payload = {"src": int(src), "t": float(t), "k": int(k)}
        if candidates is not None:
            payload["candidates"] = list(map(int, candidates))
        if exact is not None:
            payload["exact"] = bool(exact)
        return self._post("/topk", payload)

    def ingest(self, src, dst, timestamps, edge_feats=None) -> dict:
        payload = {"src": list(map(int, src)), "dst": list(map(int, dst)),
                   "timestamps": list(map(float, timestamps))}
        if edge_feats is not None:
            payload["edge_feats"] = [[float(v) for v in row]
                                     for row in edge_feats]
        return self._post("/ingest", payload)

    def snapshot(self, path) -> dict:
        return self._post("/snapshot", {"path": str(path)})

    def stats(self) -> dict:
        return self._get("/stats")

    def health(self) -> dict:
        return self._get("/health")


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``repro serve`` flags on ``parser``."""
    parser.add_argument("--artifact", required=True, metavar="FILE",
                        help="PretrainArtifact written by `repro pretrain` "
                             "or Pipeline.export_for_serving()")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8471)
    parser.add_argument("--cache-capacity", type=int, default=65536,
                        help="embedding row cache slots (0 disables the cache)")
    parser.add_argument("--compaction-threshold", type=int, default=4096,
                        help="ingested events buffered before CSR merge")
    parser.add_argument("--no-verify-fingerprint", action="store_true",
                        help="skip the history-vs-artifact fingerprint check")
    parser.add_argument("--index", action="store_true",
                        help="route default-catalog top-k through the IVF "
                             "shortlist index (exactly rescored)")
    parser.add_argument("--index-nprobe", type=int, default=4,
                        help="IVF lists scanned per query")
    parser.add_argument("--index-shortlist", type=int, default=128,
                        help="min shortlist size exactly rescored per query")
    parser.add_argument("--no-background-compaction", action="store_true",
                        help="merge the adjacency delta synchronously on "
                             "the ingest path (the pre-fast-path behavior)")
    parser.add_argument("--restore-snapshot", metavar="FILE", default=None,
                        help="restore live state from an EmbeddingService "
                             "snapshot instead of replaying history")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="enable span tracing and append JSONL span "
                             "records to FILE")
    parser.add_argument("--quiet", action="store_true")


def serve_from_args(args: argparse.Namespace) -> int:
    """``repro serve``: HTTP serving from an artifact, given the parsed
    flags of :func:`add_serve_arguments`."""
    if args.trace:
        _obs.configure(enabled=True, trace_path=args.trace)

    knobs = dict(
        cache_capacity=args.cache_capacity,
        compaction_threshold=args.compaction_threshold,
        verify_fingerprint=not args.no_verify_fingerprint,
        index=args.index,
        index_nprobe=args.index_nprobe,
        index_shortlist=args.index_shortlist,
        background_compaction=not args.no_background_compaction)
    try:
        if args.restore_snapshot:
            service = EmbeddingService.from_snapshot(
                args.artifact, args.restore_snapshot, **knobs)
        else:
            service = EmbeddingService.from_artifact(args.artifact, **knobs)
    except (ServeError, SnapshotError, ArtifactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = service.stats()
    print(f"loaded {info['backbone']} artifact: {info['num_nodes']} nodes, "
          f"{info['graph']['num_events']} events, scorer={info['scorer']}")
    try:
        serve_forever(service, args.host, args.port, quiet=args.quiet)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("shutting down")
    return 0
