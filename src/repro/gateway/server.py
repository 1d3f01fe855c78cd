"""The asyncio gateway server: a supervisor/actor split over live twins.

One *session supervisor* task runs per client connection: it frames
newline-delimited JSON requests, polls the ``fleet.gateway`` chaos site
once per received message, answers session verbs (``ping``, ``fleets``,
``shutdown``) itself, and routes fleet verbs to the owning fleet's
*actor* over an :class:`asyncio.Queue`.  Each actor task owns exactly
one :class:`~repro.gateway.twin.FleetTwin` and executes its (numpy-
heavy, GIL-releasing) operations serially through the default thread
executor — so per-fleet op order is total regardless of how many
sessions talk to it, which is what keeps twins deterministic under
concurrent traffic.  The message-bus shape follows the SCADA
supervisor/per-device-actor idiom the ROADMAP describes.

Exactly-once under chaos: every response is cached per request id for
the lifetime of the session, so a client that re-sends an id after a
dropped or corrupted line gets the cached envelope and the verb never
executes twice (``tests/test_gateway_server.py`` drills this with an
armed injector).

Observability: ``gateway.sessions`` / ``gateway.sessions.active``,
per-verb ``gateway.requests.<verb>`` counters, and a
``gateway.<verb>`` span per handled request (mirrored to
``span.gateway.advance.s`` histograms) — all through the process
recorder, zero-overhead when off.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.errors import GatewayError
from repro.faults.injector import get_fault_injector
from repro.gateway import checkpoint as ckpt
from repro.gateway import protocol
from repro.gateway.twin import FleetTwin
from repro.obs.recorder import get_recorder
from repro.obs.tracing import span

#: The chaos site polled once per message received by a session.
CHAOS_SITE = "fleet.gateway"
#: Per-session response cache bound (oldest ids evicted first).
DEDUP_CACHE_LIMIT = 1024


class _FleetActor:
    """One task owning one twin; ops arrive over the queue in order."""

    def __init__(self, twin: FleetTwin):
        self.twin = twin
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"gateway-actor-{twin.name}"
        )

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self.queue.get()
            if item is None:
                return
            fn, future = item
            try:
                result = await loop.run_in_executor(None, fn)
            except BaseException as exc:  # ships to the caller, never lost
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)

    async def call(self, fn):
        """Run ``fn`` on this actor; awaits and returns its result."""
        future = asyncio.get_running_loop().create_future()
        await self.queue.put((fn, future))
        return await future

    async def stop(self) -> None:
        await self.queue.put(None)
        await self.task


class GatewayServer:
    """A persistent simulation gateway over TCP or a Unix socket.

    ``port=0`` binds an ephemeral TCP port (read :attr:`port` after
    :meth:`start`); pass ``unix_path`` instead for a Unix socket.  Run
    :meth:`serve_forever` (returns after a ``shutdown`` verb or
    :meth:`stop`), or ``start()``/``stop()`` directly from tests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, unix_path=None):
        self.host = host
        self.port = int(port)
        self.unix_path = unix_path
        self._server = None
        self._actors: dict = {}
        self._stopping = asyncio.Event()
        self._sessions = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting sessions."""
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._session, path=self.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._session, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain every actor, close the socket."""
        self._stopping.set()
        for actor in list(self._actors.values()):
            await actor.stop()
        self._actors.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Start, then block until a ``shutdown`` verb (or :meth:`stop`)."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self.stop()

    # ------------------------------------------------------------------ #
    # Session supervisor
    # ------------------------------------------------------------------ #
    async def _session(self, reader, writer) -> None:
        metrics = get_recorder().metrics
        self._sessions += 1
        if metrics is not None:
            metrics.inc("gateway.sessions")
            metrics.set_gauge("gateway.sessions.active", self._sessions)
        dedup: dict = {}
        writer.write(protocol.encode_line(protocol.greeting()))
        try:
            await writer.drain()
            while not self._stopping.is_set():
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                faults = get_fault_injector().poll(CHAOS_SITE)
                if any(f.op == "drop" for f in faults):
                    continue  # swallowed: the client times out and retries
                response = await self._respond(line, dedup)
                for fault in faults:
                    if fault.op == "delay":
                        await asyncio.sleep(
                            float(fault.params.get("seconds", 0.05))
                        )
                    elif fault.op == "corrupt":
                        response = _corrupt(response)
                writer.write(response)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        finally:
            self._sessions -= 1
            if metrics is not None:
                metrics.set_gauge("gateway.sessions.active", self._sessions)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _respond(self, line: bytes, dedup: dict) -> bytes:
        """Decode, dedup, execute, and envelope one request line."""
        metrics = get_recorder().metrics
        try:
            message = protocol.decode_line(line)
            request_id, verb = protocol.validate_request(message)
        except GatewayError as exc:
            return protocol.encode_line(protocol.error_response("", exc))
        cached = dedup.get(request_id)
        if cached is not None:
            if metrics is not None:
                metrics.inc("gateway.requests.deduped")
            return cached
        if metrics is not None:
            metrics.inc(f"gateway.requests.{verb}")
        try:
            with span(f"gateway.{verb}"):
                result = await self._execute(verb, message)
            envelope = protocol.ok_response(request_id, result)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            envelope = protocol.error_response(request_id, exc)
        response = protocol.encode_line(envelope)
        if len(dedup) >= DEDUP_CACHE_LIMIT:
            dedup.pop(next(iter(dedup)))
        dedup[request_id] = response
        return response

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    def _actor(self, message: dict) -> _FleetActor:
        name = message.get("fleet")
        if not isinstance(name, str) or not name:
            raise GatewayError("this verb needs a 'fleet' name")
        actor = self._actors.get(name)
        if actor is None:
            raise GatewayError(
                f"unknown fleet {name!r}; live: {sorted(self._actors) or '(none)'}"
            )
        return actor

    def _register(self, twin: FleetTwin, name=None) -> _FleetActor:
        name = twin.name if name is None else str(name)
        if name in self._actors:
            raise GatewayError(f"fleet {name!r} already exists")
        twin.name = name
        actor = _FleetActor(twin)
        self._actors[name] = actor
        return actor

    async def _execute(self, verb: str, message: dict) -> dict:
        loop = asyncio.get_running_loop()
        if verb == "ping":
            return {"pong": True, "protocol": protocol.PROTOCOL_VERSION}
        if verb == "fleets":
            return {
                "fleets": [
                    a.twin.progress() for _, a in sorted(self._actors.items())
                ]
            }
        if verb == "shutdown":
            self._stopping.set()
            return {"stopping": True}
        if verb == "create":
            scenario = message.get("scenario")
            spec = message.get("spec")
            if (scenario is None) == (spec is None):
                raise GatewayError("create needs exactly one of scenario/spec")
            overrides = message.get("overrides") or {}
            if scenario is not None:
                twin = await loop.run_in_executor(
                    None, lambda: FleetTwin.from_scenario(scenario, overrides)
                )
            else:
                twin = await loop.run_in_executor(
                    None, lambda: FleetTwin.create(spec)
                )
            actor = self._register(twin, message.get("fleet"))
            return actor.twin.progress()
        if verb == "restore":
            path = message.get("path")
            if not isinstance(path, str) or not path:
                raise GatewayError("restore needs a checkpoint 'path'")
            twin = await loop.run_in_executor(
                None, lambda: ckpt.load_checkpoint(path)
            )
            actor = self._register(twin, message.get("fleet"))
            return actor.twin.progress()
        actor = self._actor(message)
        twin = actor.twin
        if verb == "submit":
            devices = message.get("devices")
            if not isinstance(devices, list):
                raise GatewayError("submit needs a 'devices' list")
            return await actor.call(lambda: twin.submit(devices))
        if verb == "advance":
            steps = message.get("steps")
            return await actor.call(lambda: twin.advance(steps))
        if verb == "query":
            what = message.get("what", "aggregate")
            return await actor.call(lambda: twin.query(what))
        if verb == "checkpoint":
            path = message.get("path")
            if not isinstance(path, str) or not path:
                raise GatewayError("checkpoint needs a 'path'")
            return await actor.call(lambda: ckpt.save_checkpoint(twin, path))
        raise GatewayError(f"verb {verb!r} is not routable")


def _corrupt(response: bytes) -> bytes:
    """Bit-flip one byte mid-line (the injected ``corrupt`` op)."""
    if len(response) < 3:
        return response
    i = len(response) // 2
    return response[:i] + bytes([response[i] ^ 0xFF]) + response[i + 1 :]
