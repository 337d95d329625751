"""The analysis service: endpoints, backpressure, timeouts, metrics."""

import asyncio
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import obs
from repro.service import AnalysisService, ServiceConfig, run_loadtest
from repro.service.loadtest import _Client

FAST = {"trials": 6}


def with_service(config, scenario):
    """Run ``scenario(client, service)`` against a live service."""

    async def _run():
        service = AnalysisService(config)
        await service.start()
        client = _Client(config.host, service.port)
        await client.connect()
        try:
            return await scenario(client, service)
        finally:
            await client.close()
            await service.stop()

    return asyncio.run(_run())


def make_config(tmp_path, **overrides):
    params = dict(cache_dir=str(tmp_path / "store"), request_timeout=60.0)
    params.update(overrides)
    return ServiceConfig(**params)


class TestEndpoints:
    def test_healthz_reports_configuration(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json("GET", "/healthz")
            assert status == 200
            assert body["ok"] is True
            assert body["cache_dir"] == str(tmp_path / "store")
            assert body["queue_limit"] == 8
            return None

        with_service(make_config(tmp_path), scenario)

    def test_analyze_and_verify(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json(
                "POST", "/analyze", {"name": "scasb_rigel", **FAST}
            )
            assert status == 200
            assert body["succeeded"] is True and body["steps"] > 0

            status, body = await client.request_json(
                "POST", "/verify", {"name": "scasb_rigel", **FAST}
            )
            assert status == 200
            assert body["ok"] is True
            assert body["verified_trials"] == FAST["trials"]

        with_service(make_config(tmp_path), scenario)

    def test_batch_warm_second_request(self, tmp_path):
        async def scenario(client, service):
            payload = {"names": ["scasb_rigel", "movsb_pascal"], **FAST}
            status, cold = await client.request_json(
                "POST", "/batch", payload
            )
            assert status == 200 and cold["cache"]["misses"] == 2
            status, warm = await client.request_json(
                "POST", "/batch", payload
            )
            assert status == 200 and warm["cache"]["hits"] == 2
            # a store hit reports what the verdict's own run reported,
            # so the two runs agree on everything but the cache block
            assert cold["results"] == warm["results"]

        with_service(make_config(tmp_path), scenario)

    def test_trace_and_replay_after_batch(self, tmp_path):
        async def scenario(client, service):
            await client.request_json(
                "POST", "/batch", {"names": ["scasb_rigel"], **FAST}
            )
            status, body = await client.request_json(
                "GET", "/trace?name=scasb_rigel"
            )
            assert status == 200
            assert body["origin"] == "stored" and len(body["digest"]) == 64

            status, body = await client.request_json(
                "POST", "/replay", {"names": ["scasb_rigel"]}
            )
            assert status == 200 and body["ok"] is True
            assert body["entries"][0]["origin"] == "stored"

        with_service(make_config(tmp_path), scenario)

    def test_stats_and_metrics_expose_service_families(self, tmp_path):
        async def scenario(client, service):
            await client.request_json(
                "POST", "/batch", {"names": ["scasb_rigel"], **FAST}
            )
            status, snapshot = await client.request_json("GET", "/stats")
            assert status == 200
            assert snapshot["schema"] == obs.METRICS_SCHEMA
            requests = obs.counter_value(
                snapshot, "repro_service_requests_total"
            )
            assert requests >= 1
            assert (
                obs.gauge_value(snapshot, "repro_provenance_hit_rate")
                is not None
            )

            status, text = await client.request("GET", "/metrics")
            assert status == 200
            exposition = text.decode("utf-8")
            assert "repro_service_requests_total" in exposition
            assert "repro_service_request_seconds" in exposition

        with_service(make_config(tmp_path), scenario)


class TestErrors:
    def test_unknown_endpoint_and_method(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json("GET", "/nope")
            assert status == 404 and "error" in body
            status, _ = await client.request_json("GET", "/batch")
            assert status == 405

        with_service(make_config(tmp_path), scenario)

    def test_bad_json_and_bad_name(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json(
                "POST", "/analyze", {"name": "no_such_analysis"}
            )
            assert status == 400 and "unknown analysis" in body["error"]

            # a raw non-JSON body
            raw = _Client(service.config.host, service.port)
            await raw.connect()
            status, _ = await raw.request("GET", "/healthz")
            assert status == 200  # sanity: transport works
            assert raw._writer is not None
            raw._writer.write(
                b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            await raw._writer.drain()
            line = await raw._reader.readline()
            assert b"400" in line
            await raw.close()

        with_service(make_config(tmp_path), scenario)

    def test_retired_engine_is_a_bad_request(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json(
                "POST", "/verify", {"name": "scasb_rigel", "engine": "compiled"}
            )
            assert status == 400
            assert body["error"] == (
                "unknown engine 'compiled'; choose from: interp, vectorized"
            )

        with_service(make_config(tmp_path), scenario)

    def test_backpressure_emits_429_with_retry_after(self, tmp_path):
        config = make_config(tmp_path, queue_limit=1)

        async def scenario(client, service):
            async def one(seed):
                c = _Client(config.host, service.port)
                await c.connect()
                status, _ = await c.request(
                    "POST", "/batch", {"seed": seed, **FAST}
                )
                headers = dict(c.last_headers)
                await c.close()
                return status, headers

            outcomes = await asyncio.gather(*(one(s) for s in range(4)))
            statuses = sorted(status for status, _ in outcomes)
            assert statuses[0] == 200
            assert 429 in statuses
            rejected = [h for s, h in outcomes if s == 429]
            assert all(h.get("retry-after") == "1" for h in rejected)

            status, snapshot = await client.request_json("GET", "/stats")
            assert status == 200
            assert (
                obs.counter_value(
                    snapshot, "repro_service_rejected_total"
                )
                >= 1
            )

        with_service(config, scenario)

    def test_slow_request_times_out_with_504(self, tmp_path):
        config = make_config(tmp_path, request_timeout=0.02)

        async def scenario(client, service):
            status, body = await client.request_json(
                "POST", "/batch", {"trials": 40}
            )
            assert status == 504 and "exceeded" in body["error"]

        with_service(config, scenario)


class TestBadInputFailsClosed:
    """Every request the routes do not accept is a 400 naming the field."""

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/batch", {"bogus": 1}, "bogus"),
            ("/analyze", {"name": "scasb_rigel", "seed": 1}, "seed"),
            ("/verify", {"name": "scasb_rigel", "verify": False}, "verify"),
            ("/batch", {"trials": "abc"}, "trials"),
            ("/batch", {"jobs": "two"}, "jobs"),
            ("/batch", {"seed": 1.5}, "seed"),
            ("/batch", {"verify": "no"}, "verify"),
            ("/batch", {"names": "scasb_rigel"}, "names"),
            ("/batch", {"jobs": 0}, "jobs"),
            ("/verify", {"name": "scasb_rigel", "trials": -5}, "trials"),
            ("/verify", {"trials": 6}, "name"),
            ("/trace", {"name": ""}, "name"),
        ],
    )
    def test_bad_body_is_400_naming_the_field(self, tmp_path, path, body, field):
        async def scenario(client, service):
            status, answer = await client.request_json("POST", path, body)
            assert status == 400, answer
            assert field in answer["error"]

        with_service(make_config(tmp_path), scenario)

    @pytest.mark.parametrize(
        "target, field",
        [
            ("/replay?name=scasb_rigel", "name"),
            ("/replay?name=", "name"),
            ("/trace?name=scasb_rigel&trials=5", "trials"),
        ],
    )
    def test_bad_query_is_400_naming_the_field(self, tmp_path, target, field):
        async def scenario(client, service):
            status, answer = await client.request_json("GET", target)
            assert status == 400, answer
            assert repr(field) in answer["error"]

        with_service(make_config(tmp_path), scenario)

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1e3"])
    def test_bad_content_length_is_400_and_closes(self, tmp_path, length):
        async def scenario(client, service):
            reader, writer = await asyncio.open_connection(
                service.config.host, service.port
            )
            writer.write(
                b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length + b"\r\n\r\n{}"
            )
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in reply
            # the service is still up for the next client
            status, _ = await client.request("GET", "/healthz")
            assert status == 200

        with_service(make_config(tmp_path), scenario)


class TestUnusableDefaultsRejected:
    """A default no request could run fails when the service is built,
    not as a 400 or 504 on every request."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"jobs": 0}, "jobs"),
            ({"trials": 0}, "trials"),
            ({"seed": 1.5}, "seed"),
            ({"request_timeout": -1}, "timeout"),
            ({"request_timeout": 0}, "timeout"),
        ],
    )
    def test_service_config_rejects(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**overrides)

    def test_no_request_timeout_is_allowed(self):
        assert ServiceConfig(request_timeout=None).request_timeout is None

    def test_serve_exits_2_on_a_negative_timeout(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0"]
            + ["--timeout", "-1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert completed.returncode == 2
        assert "timeout" in completed.stderr


class TestCanonicalBatchBody:
    def test_batch_body_is_the_cli_report_bytes(self, tmp_path):
        from repro import api

        names = ["scasb_rigel", "movsb_pascal"]

        async def scenario(client, service):
            return await client.request(
                "POST", "/batch", {"names": names, "trials": 6}
            )

        status, body = with_service(
            make_config(tmp_path, cache_dir=None), scenario
        )
        assert status == 200
        expected = api.batch(names, api.RunConfig(trials=6)).to_json()
        assert body == (expected + "\n").encode("utf-8")
        assert b'"metrics"' not in body


class TestLoadtest:
    def test_hermetic_loadtest_meets_service_gates(self, tmp_path):
        from repro.analysis.pool import shutdown_pool

        # A pool left over from earlier tests would absorb the warm-up
        # spawn this test asserts on.
        shutdown_pool()
        report = run_loadtest(
            clients=4,
            requests_per_client=3,
            trials=6,
            cache_dir=str(tmp_path / "store"),
        )
        assert report.statuses == {"200": 12}
        assert report.warm_hit_rate >= 0.9
        assert report.pool_spawn_delta_measured == 0
        assert report.pool_spawn_total >= 1
        assert report.pool_reuse_total >= 1
        assert report.p99_ms > 0 and report.rps > 0
        payload = report.to_dict()
        assert payload["schema"] == "repro.bench.service/1"
        assert json.loads(report.to_json()) == payload
