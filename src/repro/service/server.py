"""Front-ends for :class:`~repro.service.BitwiseService`.

Two transports over the same service:

* :func:`run_repl` — a line-oriented console (``repro serve``) with
  tenant switching and column/result payload readout;
* :func:`serve_tcp` — an **asyncio** JSON-lines TCP endpoint (``repro
  serve --port N``), wire-compatible with the original threaded
  server: one JSON request object per line, one JSON response per
  line, in order.

The TCP server is a thin sync facade (:class:`QueryServer`) over an
asyncio event loop running in a dedicated thread.  Every connection's
requests flow through one central
:class:`~repro.service.scheduler.RequestScheduler`, which coalesces
concurrent queries from *all* connections into single
:meth:`~repro.service.BitwiseService.execute` vector batches inside a
small batching window, enforces per-tenant admission control, fills
batches fairly (round-robin across tenants), and serializes mutations
as per-tenant barriers.

Protocol ops (all may carry ``"tenant": "<name>"``; a connection can
also set a default namespace once via ``{"op": "hello", "tenant":
...}``):

``query``/``batch``/``match``/``explain``/``create_column``/
``drop_column``/``columns``/``stats``, plus the mutation path
``update_column``/``write_slice``/``append_rows`` and the paginated
payload readout ``bits`` (``{"op": "bits", "name": ..., "offset": N,
"limit": N}`` — ``name`` is a column or the ``key`` of a cached query
result).

A connection may opt into the **binary wire** with ``{"op": "hello",
"wire": "binary"}``: the hello response is still a JSON line, then
both directions switch to the length-prefixed ``REPB`` frames of
:mod:`repro.service.wire` — request/response metadata as compact
JSON, bulk bit payloads (``bits`` pages, ``create_column``/
``update_column``/``write_slice`` bits, ``append_rows`` values) as
raw little-endian packed words.  JSON-only clients are unaffected.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import numpy as np

from repro.arch.expr import Col, Match
from repro.errors import ProtocolError, QueryError, ReproError
from repro.service.scheduler import (
    AdmissionError,
    RequestScheduler,
    ShuttingDownError,
)
from repro.service.wire import (
    HEADER_SIZE,
    KIND_RESPONSE,
    decode_frame,
    decode_header,
    decode_json_object,
    encode_frame,
)
from repro.service.service import (
    BitwiseService,
    MutationResult,
    QueryResult,
)

__all__ = ["run_repl", "serve_tcp", "QueryServer", "result_payload",
           "mutation_payload"]


def result_payload(result: QueryResult) -> dict:
    """JSON-safe summary of a query result (bits elided; fetch pages
    via the ``bits`` op / REPL command using the returned ``key``)."""
    return {
        "query": result.query,
        "key": result.key,
        "count": result.count,
        "cache_hit": result.cache_hit,
        "primitives_per_row": result.primitives_per_row,
        "naive_primitives_per_row": result.naive_primitives_per_row,
        "energy_nj": result.energy_j * 1e9,
        "cycles": result.cycles,
        "shards": result.shards,
    }


def mutation_payload(result: MutationResult) -> dict:
    """JSON-safe summary of a column mutation."""
    return {
        "op": result.op,
        "column": result.column,
        "offset": result.offset,
        "n_bits": result.n_bits,
        "rows_written": result.rows_written,
        "dirty_shards": result.dirty_shards,
        "energy_nj": result.energy_j * 1e9,
        "cycles": result.cycles,
        "invalidated": result.invalidated,
        "columns_written": list(result.columns_written),
    }


def _json_default(value):
    """Wire-safe conversion for non-JSON-native response values.

    Accepts exactly the numpy scalar/array types the service is known
    to emit; anything else is a server bug that must surface as a
    typed :class:`ProtocolError` (and an error response), not be
    silently stringified into the payload."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise ProtocolError(
        f"response value of type {type(value).__name__} is not "
        f"JSON-serializable")


def _error_payload(exc: ReproError) -> dict:
    """Typed wire shape for a service-level error (both wires).

    ``shutting_down`` wins over ``admission`` (it subclasses
    QueryError directly, but keep the order explicit); admission
    rejections attach their machine-readable ``retry_after_ms`` hint
    so clients can back off intelligently."""
    if isinstance(exc, ShuttingDownError):
        return {"ok": False, "error": str(exc),
                "code": "shutting_down"}
    if isinstance(exc, AdmissionError):
        payload = {"ok": False, "error": str(exc),
                   "code": "admission"}
        if exc.retry_after_ms is not None:
            payload["retry_after_ms"] = float(exc.retry_after_ms)
        return payload
    if isinstance(exc, ProtocolError):
        return {"ok": False, "error": str(exc), "code": "protocol"}
    if isinstance(exc, QueryError):
        return {"ok": False, "error": str(exc), "code": "query"}
    return {"ok": False, "error": str(exc)}


def _parse_bitstring(text: str) -> np.ndarray:
    if set(text) - {"0", "1"}:
        raise QueryError(
            f"bit string may only contain 0/1, got "
            f"{sorted(set(text) - {'0', '1'})}")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


# ----------------------------------------------------------------------
# REPL
# ----------------------------------------------------------------------
_HELP = """\
commands:
  col <name> random [density] [seed]   create a random column
  col <name> bits <01...>              create a column from a bit string
  cols                                 list columns
  drop <name>                          drop a column
  set <name> <01...>                   overwrite a column in place
  write <name> <offset> <01...>        overwrite a slice of a column
  append <name> <01...> [...]          append rows (named columns get
                                       the bits, others zero-fill)
  bits <name> <offset> <limit>         page a column's (or a cached
                                       result key's) payload
  tenant [<name>|-]                    switch namespace (- = default)
  query <expr>                         run a query (e.g. a & ~b | c)
  match <col,col,...> <0bkey> [0bmask] CAM search over a column group
                                       (x in the key = don't care)
  explain <expr>                       show plan cost without running
  stats                                service counters
  help                                 this text
  quit                                 exit
"""


class _Repl:
    """REPL state: the bound service plus the active tenant."""

    def __init__(self, service: BitwiseService) -> None:
        self.service = service
        self.tenant: str | None = None

    def dispatch(self, line: str) -> dict | None:
        """Execute one REPL command; None means quit."""
        service, tenant = self.service, self.tenant
        parts = line.strip().split(None, 1)
        if not parts:
            return {}
        command = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if command in ("quit", "exit"):
            return None
        if command == "help":
            return {"help": _HELP}
        if command == "tenant":
            name = rest.strip()
            self.tenant = None if name in ("", "-") else name
            if self.tenant is not None:
                service.tenant(self.tenant)  # auto-register
            return {"tenant": self.tenant}
        if command == "cols":
            return {"columns": list(service.tenant_columns(tenant)),
                    "n_bits": service.n_bits,
                    "tenant": tenant}
        if command == "stats":
            return {"stats": service.stats()}
        if command == "drop":
            service.drop_column(rest.strip(), tenant=tenant)
            return {"dropped": rest.strip()}
        if command == "col":
            args = rest.split()
            if len(args) < 2:
                raise QueryError("usage: col <name> random|bits ...")
            name, mode = args[0], args[1].lower()
            if mode == "random":
                density = float(args[2]) if len(args) > 2 else 0.5
                seed = int(args[3]) if len(args) > 3 else None
                service.random_column(name, density, seed,
                                      tenant=tenant)
            elif mode == "bits":
                if len(args) < 3:
                    raise QueryError("usage: col <name> bits <01...>")
                bits = _parse_bitstring(args[2])
                if bits.size != service.n_bits:
                    raise QueryError(
                        f"need {service.n_bits} bits, got {bits.size}")
                service.create_column(name, bits, tenant=tenant)
            else:
                raise QueryError(f"unknown col mode {mode!r}")
            return {"created": name}
        if command == "set":
            args = rest.split()
            if len(args) != 2:
                raise QueryError("usage: set <name> <01...>")
            result = service.update_column(
                args[0], _parse_bitstring(args[1]), tenant=tenant)
            return {"mutation": mutation_payload(result)}
        if command == "write":
            args = rest.split()
            if len(args) != 3:
                raise QueryError("usage: write <name> <offset> <01...>")
            result = service.write_slice(
                args[0], int(args[1]), _parse_bitstring(args[2]),
                tenant=tenant)
            return {"mutation": mutation_payload(result)}
        if command == "append":
            args = rest.split()
            if len(args) % 2 or not args:
                raise QueryError(
                    "usage: append <name> <01...> [<name> <01...> ...]")
            values = {args[i]: _parse_bitstring(args[i + 1])
                      for i in range(0, len(args), 2)}
            result = service.append_rows(values, tenant=tenant)
            return {"mutation": mutation_payload(result),
                    "n_bits": service.n_bits}
        if command == "bits":
            args = rest.split()
            if not 1 <= len(args) <= 3:
                raise QueryError("usage: bits <name> <offset> <limit>")
            offset = int(args[1]) if len(args) > 1 else 0
            limit = int(args[2]) if len(args) > 2 else 64
            return {"bits": service.read_bits(args[0], offset, limit,
                                              tenant=tenant)}
        if command == "explain":
            plan = service.compile(rest)
            return {"explain": {
                "key": plan.key, "columns": list(plan.cols),
                "primitives_per_row": plan.primitives,
                "naive_primitives_per_row": plan.naive_primitives,
            }}
        if command == "query":
            return {"result": result_payload(
                service.query(rest, tenant=tenant))}
        if command == "match":
            args = rest.split()
            if not 2 <= len(args) <= 3:
                raise QueryError(
                    "usage: match <col,col,...> <0bkey> [0bmask]")
            cols = [c for c in args[0].split(",") if c]
            expr = Match(*(Col(c) for c in cols), key=args[1],
                         mask=args[2] if len(args) > 2 else None)
            return {"result": result_payload(
                service.query(expr, tenant=tenant))}
        raise QueryError(f"unknown command {command!r} (try 'help')")


def run_repl(service: BitwiseService, in_stream=None, out_stream=None,
             *, prompt: str = "repro> ") -> int:
    """Drive the service from a line stream; returns an exit code."""
    in_stream = in_stream or sys.stdin
    out_stream = out_stream or sys.stdout
    repl = _Repl(service)

    def emit(text: str) -> None:
        print(text, file=out_stream, flush=True)

    emit(f"bitwise service: {service.technology}, "
         f"{service.n_bits} bits x {service.n_shards} shards "
         f"(type 'help')")
    while True:
        out_stream.write(prompt)
        out_stream.flush()
        line = in_stream.readline()
        if not line:
            break
        try:
            payload = repl.dispatch(line)
        except (ReproError, ValueError) as exc:
            # ValueError covers malformed numeric arguments (e.g.
            # 'col x random abc') — a typo must not kill the console.
            emit(f"error: {exc}")
            continue
        if payload is None:
            break
        if "help" in payload:
            emit(payload["help"])
        elif payload:
            emit(json.dumps(payload, indent=2, default=str))
    return 0


# ----------------------------------------------------------------------
# asyncio JSON-lines TCP server
# ----------------------------------------------------------------------
class QueryServer:
    """Async multi-tenant JSON-lines TCP server (sync facade).

    The asyncio event loop, the listening server, and the central
    :class:`RequestScheduler` live in a dedicated daemon thread;
    ``serve_forever()``/``shutdown()``/``server_close()`` keep the
    original threaded server's control surface so callers (CLI,
    tests) are unchanged.
    """

    def __init__(self, service: BitwiseService,
                 address: tuple[str, int], *,
                 batch_window_s: float = 0.001,
                 max_batch: int = 128,
                 max_pending: int = 64,
                 max_line_bytes: int = 1 << 26,
                 request_timeout_s: float | None = None,
                 injector=None,
                 drain_timeout_s: float = 5.0) -> None:
        self.service = service
        self._batch_window_s = batch_window_s
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._request_timeout_s = request_timeout_s
        self._injector = injector
        self._drain_timeout_s = drain_timeout_s
        # JSON lines carry whole column payloads; the default asyncio
        # stream limit (64 KiB) truncates them mid-frame.
        self._max_line_bytes = max_line_bytes
        self._shutdown = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="query-server-loop", daemon=True)
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self._start(address), self._loop)
        try:
            self.server_address: tuple = future.result(timeout=30)
        except BaseException:
            # Bind failed (port in use, permission, ...): stop the
            # loop thread instead of leaking it and the scheduler.
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()
            raise

    async def _start(self, address: tuple[str, int]) -> tuple:
        self.scheduler = RequestScheduler(
            self.service, window_s=self._batch_window_s,
            max_batch=self._max_batch, max_pending=self._max_pending,
            request_timeout_s=self._request_timeout_s,
            injector=self._injector)
        self.scheduler.start()
        self._conn_tasks: set[asyncio.Task] = set()
        #: live connections (task -> (writer, conn state)) so graceful
        #: shutdown can say goodbye on the right wire
        self._conns: dict[asyncio.Task, tuple] = {}
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, address[0], address[1],
                limit=self._max_line_bytes)
        except BaseException:
            await self.scheduler.stop()
            raise
        return self._server.sockets[0].getsockname()[:2]

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        # Per-connection state: default tenant namespace plus the
        # negotiated wire ("json" until a hello opts into "binary").
        conn: dict = {"tenant": None, "wire": "json"}
        self._conns[task] = (writer, conn)
        try:
            while True:
                if conn["wire"] == "binary":
                    done = await self._serve_frame_once(
                        reader, writer, conn)
                else:
                    done = await self._serve_line_once(
                        reader, writer, conn)
                if done:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server teardown closes live connections
        finally:
            self._conns.pop(task, None)
            writer.close()

    async def _serve_line_once(self, reader, writer,
                               conn: dict) -> bool:
        """One JSON-lines request/response; True means close."""
        try:
            raw = await reader.readline()
        except ValueError:
            # Oversized line: framing is lost, close politely.
            writer.write((json.dumps({
                "ok": False,
                "error": "request line exceeds server limit",
            }) + "\n").encode())
            await writer.drain()
            return True
        if not raw:
            return True
        try:
            request = decode_json_object(raw, "request line")
            response = await self._serve(request, conn)
        except ReproError as exc:
            response = _error_payload(exc)
        except (ValueError, KeyError, TypeError) as exc:
            response = {"ok": False,
                        "error": f"bad request: {exc}"}
        try:
            line = json.dumps(response, default=_json_default)
        except ProtocolError as exc:
            line = json.dumps({"ok": False, "error": str(exc),
                               "code": "protocol"})
        writer.write((line + "\n").encode())
        await writer.drain()
        return False

    async def _serve_frame_once(self, reader, writer,
                                conn: dict) -> bool:
        """One binary-frame request/response; True means close."""
        try:
            header_bytes = await reader.readexactly(HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return True  # clean EOF between frames
            raise
        try:
            header = decode_header(header_bytes)
            meta_bytes = (await reader.readexactly(header.meta_len)
                          if header.meta_len else b"")
            payload = (await reader.readexactly(header.payload_bytes)
                       if header.payload_bytes else b"")
        except ProtocolError as exc:
            # Header corruption: framing cannot be trusted, report
            # once and close.
            writer.write(encode_frame(KIND_RESPONSE, {
                "ok": False, "error": str(exc), "code": "protocol"}))
            await writer.drain()
            return True
        try:
            request, bits = decode_frame(header, meta_bytes, payload)
        except ProtocolError as exc:
            # Metadata-level violation (bad segment_bits, short
            # payload): the frame was consumed in full, so framing is
            # intact — report and keep serving the connection.
            writer.write(encode_frame(KIND_RESPONSE, {
                "ok": False, "error": str(exc), "code": "protocol"}))
            await writer.drain()
            return False
        try:
            if isinstance(bits, list):
                names = request.pop("value_names", None) or []
                if len(names) != len(bits):
                    raise ProtocolError(
                        f"{len(names)} value_names for "
                        f"{len(bits)} payload segments")
                request["values"] = dict(zip(names, bits))
            elif bits is not None:
                request["bits"] = bits
            response = await self._serve(request, conn)
        except ReproError as exc:
            response = _error_payload(exc)
        except (ValueError, KeyError, TypeError) as exc:
            response = {"ok": False, "error": f"bad request: {exc}"}
        bits_out = None
        if isinstance(response.get("bits"), np.ndarray):
            bits_out = response.pop("bits")
        try:
            frame = encode_frame(KIND_RESPONSE, response, bits_out,
                                 default=_json_default)
        except ProtocolError as exc:
            frame = encode_frame(KIND_RESPONSE, {
                "ok": False, "error": str(exc), "code": "protocol"})
        writer.write(frame)
        await writer.drain()
        return False

    async def _serve(self, request: dict, conn: dict) -> dict:
        service = self.service
        loop = asyncio.get_running_loop()
        op = request.get("op")
        tenant = request.get("tenant", conn["tenant"])
        if op == "hello":
            conn["tenant"] = request.get("tenant")
            if conn["tenant"] is not None:
                service.tenant(conn["tenant"])  # auto-register
            wire = request.get("wire", "json")
            if wire not in ("json", "binary"):
                raise QueryError(
                    f"unknown wire {wire!r} (json or binary)")
            conn["wire"] = wire
            return {"ok": True, "tenant": conn["tenant"],
                    "wire": wire,
                    "technology": service.technology,
                    "n_bits": service.n_bits,
                    "n_shards": service.n_shards}
        if op == "query":
            result = await self.scheduler.submit_query(
                tenant, request["expr"])
            return {"ok": True, **result_payload(result)}
        if op == "match":
            # CAM search; JSON clients inline key/mask as "1x0"-style
            # strings, binary clients ship them as packed payload
            # segments named "key"/"mask".
            cols = [str(c) for c in request.get("cols") or []]
            values = request.get("values") or {}
            key = request.get("key", values.get("key"))
            mask = request.get("mask", values.get("mask"))
            if key is None:
                key = request.get("bits")
            if not cols or key is None:
                raise QueryError("match needs cols and a key")
            expr = Match(*(Col(c) for c in cols), key=key, mask=mask)
            result = await self.scheduler.submit_query(
                tenant, str(expr))
            return {"ok": True, **result_payload(result)}
        if op == "batch":
            results = await self.scheduler.submit_batch(
                tenant, list(request["exprs"]))
            return {"ok": True,
                    "results": [result_payload(r) for r in results]}
        if op == "create_column":
            def create():
                if "bits" in request:
                    service.create_column(
                        request["name"], np.asarray(request["bits"]),
                        tenant=tenant)
                else:
                    service.random_column(
                        request["name"],
                        float(request.get("density", 0.5)),
                        request.get("seed"), tenant=tenant)
            await self.scheduler.submit_exclusive(tenant, create)
            return {"ok": True, "created": request["name"]}
        if op == "drop_column":
            await self.scheduler.submit_exclusive(
                tenant, lambda: service.drop_column(request["name"],
                                                    tenant=tenant))
            return {"ok": True}
        if op == "update_column":
            result = await self.scheduler.submit_exclusive(
                tenant, lambda: service.update_column(
                    request["name"], np.asarray(request["bits"]),
                    tenant=tenant))
            return {"ok": True, **mutation_payload(result)}
        if op == "write_slice":
            result = await self.scheduler.submit_exclusive(
                tenant, lambda: service.write_slice(
                    request["name"], int(request["offset"]),
                    np.asarray(request["bits"]), tenant=tenant))
            return {"ok": True, **mutation_payload(result)}
        if op == "append_rows":
            values = {name: np.asarray(bits) for name, bits in
                      dict(request.get("values") or {}).items()}
            result = await self.scheduler.submit_exclusive(
                tenant, lambda: service.append_rows(
                    values, request.get("n"), tenant=tenant))
            return {"ok": True, **mutation_payload(result),
                    "table_bits": service.n_bits}
        if op == "bits":
            # Binary connections get the page as a raw array (packed
            # straight into the response frame's payload); JSON keeps
            # the "0101..." text shape.
            read = (service.read_bits_array
                    if conn["wire"] == "binary" else service.read_bits)
            page = await self.scheduler.submit_exclusive(
                tenant, lambda: read(
                    request["name"], int(request.get("offset", 0)),
                    int(request.get("limit", 64)), tenant=tenant))
            return {"ok": True, **page}
        if op == "explain":
            plan = await loop.run_in_executor(
                None, lambda: service.compile(request["expr"]))
            return {"ok": True, "key": plan.key,
                    "columns": list(plan.cols),
                    "primitives_per_row": plan.primitives,
                    "naive_primitives_per_row": plan.naive_primitives}
        if op == "columns":
            columns = await loop.run_in_executor(
                None, lambda: list(service.tenant_columns(tenant)))
            return {"ok": True, "columns": columns}
        if op == "stats":
            stats = await loop.run_in_executor(None, service.stats)
            stats["scheduler"] = dict(self.scheduler.metrics)
            return {"ok": True, "stats": stats}
        raise QueryError(f"unknown op {op!r}")

    # -- sync control surface (wire-compatible with socketserver) ------
    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (interruptible)."""
        while not self._shutdown.wait(timeout=0.2):
            pass

    def shutdown(self) -> None:
        self._shutdown.set()

    async def _notify_shutdown(self) -> None:
        """Tell every live connection the server is going away.

        A typed ``{"code": "shutting_down"}`` error on the
        connection's negotiated wire beats an abrupt RST: retrying
        clients reconnect instead of surfacing a transport error."""
        message = {"ok": False, "error": "server shutting down",
                   "code": "shutting_down"}
        for writer, conn in list(self._conns.values()):
            try:
                if conn["wire"] == "binary":
                    writer.write(encode_frame(KIND_RESPONSE, message))
                else:
                    writer.write(
                        (json.dumps(message) + "\n").encode())
                await writer.drain()
                writer.close()
            except (ConnectionError, RuntimeError, OSError):
                pass

    def server_close(self) -> None:
        """Graceful teardown: stop accepting, drain in-flight batches,
        notify connections, then (if durable) flush the WAL and write
        a final snapshot."""
        self._shutdown.set()
        if self._loop.is_closed():
            return

        async def teardown():
            self._server.close()            # stop accepting
            self.scheduler.begin_drain()    # reject new submissions
            await self.scheduler.drain(self._drain_timeout_s)
            await self._notify_shutdown()
            await self.scheduler.stop()
            await self._server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)

        try:
            asyncio.run_coroutine_threadsafe(
                teardown(), self._loop).result(timeout=10)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()
            manager = getattr(self.service, "_durability", None)
            if manager is not None:
                try:
                    manager.flush()
                    self.service.checkpoint()
                except ReproError:
                    pass  # keep teardown robust; WAL already flushed


def serve_tcp(service: BitwiseService, port: int,
              host: str = "127.0.0.1", *,
              batch_window_s: float = 0.001,
              max_batch: int = 128,
              max_pending: int = 64,
              request_timeout_s: float | None = None,
              injector=None,
              drain_timeout_s: float = 5.0) -> QueryServer:
    """Bind a :class:`QueryServer`; caller runs ``serve_forever()``."""
    return QueryServer(service, (host, port),
                       batch_window_s=batch_window_s,
                       max_batch=max_batch, max_pending=max_pending,
                       request_timeout_s=request_timeout_s,
                       injector=injector,
                       drain_timeout_s=drain_timeout_s)
