"""HTTP front robustness: the read phase is bounded.

The slowloris regression of record: only the request *line* had a
timeout — a client that sent the line and then stalled (or under-sent
its ``Content-Length`` body, or trickled headers forever) held the
connection and its handler coroutine permanently.  Now the whole read
phase (line + headers + body) shares one ``_READ_BUDGET_S`` budget and
the header-line count is capped.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.circuits.library import fig1_circuit
from repro.runtime import ProgramCache
from repro.service import AWEService, ModelRegistry, ServiceConfig
from repro.service import http as service_http

CACHE = ProgramCache()


def make_service(**overrides) -> AWEService:
    config = ServiceConfig(**{**dict(port=0), **overrides})
    registry = ModelRegistry(cache=CACHE)
    registry.register("fig1", fig1_circuit(), "out",
                      symbols=["G1", "C2"], order=2)
    return AWEService(config, registry=registry)


async def raw_roundtrip(port: int, payload: bytes,
                        timeout: float = 10.0) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # server may answer-and-close before we finish writing
        return await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()


def post_eval(body: dict) -> bytes:
    raw = json.dumps(body).encode()
    return (b"POST /v1/eval HTTP/1.1\r\nContent-Length: "
            + str(len(raw)).encode() + b"\r\n\r\n" + raw)


def status_of(response: bytes) -> int:
    return int(response.split(b"\r\n", 1)[0].split()[1])


class TestHttpFront:
    def test_eval_roundtrip(self):
        async def scenario():
            service = make_service()
            await service.start(install_signals=False)
            try:
                return await raw_roundtrip(service.port,
                                           post_eval({"model": "fig1"}))
            finally:
                await service.drain()

        response = asyncio.run(scenario())
        assert status_of(response) == 200
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert body["model"] == "fig1" and body["degraded"] is False

    def test_stalled_headers_get_408(self, monkeypatch):
        monkeypatch.setattr(service_http, "_READ_BUDGET_S", 0.2)

        async def scenario():
            service = make_service()
            await service.start(install_signals=False)
            try:
                # request line, one header … then silence
                return await raw_roundtrip(
                    service.port,
                    b"POST /v1/eval HTTP/1.1\r\nX-Stall: yes\r\n")
            finally:
                await service.drain()

        assert status_of(asyncio.run(scenario())) == 408

    def test_undersent_body_gets_408(self, monkeypatch):
        monkeypatch.setattr(service_http, "_READ_BUDGET_S", 0.2)

        async def scenario():
            service = make_service()
            await service.start(install_signals=False)
            try:
                return await raw_roundtrip(
                    service.port,
                    b"POST /v1/eval HTTP/1.1\r\nContent-Length: 500\r\n"
                    b"\r\n{\"model\":")  # 491 bytes never arrive
            finally:
                await service.drain()

        assert status_of(asyncio.run(scenario())) == 408

    def test_header_flood_gets_400(self):
        async def scenario():
            service = make_service()
            await service.start(install_signals=False)
            try:
                flood = b"".join(b"X-Pad-%d: x\r\n" % i for i in range(150))
                return await raw_roundtrip(
                    service.port,
                    b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n")
            finally:
                await service.drain()

        assert status_of(asyncio.run(scenario())) == 400

    def test_negative_content_length_gets_400(self):
        async def scenario():
            service = make_service()
            await service.start(install_signals=False)
            try:
                return await raw_roundtrip(
                    service.port,
                    b"POST /v1/eval HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
            finally:
                await service.drain()

        assert status_of(asyncio.run(scenario())) == 400

    def test_unknown_metric_maps_to_400(self):
        async def scenario():
            service = make_service()
            await service.start(install_signals=False)
            try:
                return await raw_roundtrip(
                    service.port,
                    post_eval({"model": "fig1", "metric": "bogus"}))
            finally:
                await service.drain()

        response = asyncio.run(scenario())
        assert status_of(response) == 400
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert body["error"] == "invalid_request"
