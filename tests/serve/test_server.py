"""End-to-end tests of the concurrent prediction server.

Covers the PR acceptance criteria: >=2 workers serving >=50 concurrent
requests with zero lost/duplicated responses and bitwise-identical
predictions vs direct ``PredictDDL.predict``; observable cache
effectiveness (``serve.cache.hits`` counter, no GHN embed span on
hits); admission rejection under saturation; deadline expiry; graceful
shutdown; and the fabric client/server protocol.
"""

import threading
import time

import pytest

from repro import obs
from repro.cluster import Fabric, make_cluster
from repro.core import PredictionRequest
from repro.serve import (DeadlineExceededError, LoadGenerator,
                         PredictionServer, QueueFullError, ServeClient,
                         ServeConfig, ServerClosedError, TrafficSpec)
from repro.sim import DLWorkload

pytestmark = pytest.mark.slow


def _request(model="resnet18", size=2, batch=32) -> PredictionRequest:
    return PredictionRequest(
        workload=DLWorkload(model, "cifar10",
                            batch_size_per_server=batch),
        cluster=make_cluster(size, "gpu-p100"))


SPEC = TrafficSpec(models=("resnet18", "alexnet"), cluster_sizes=(2, 4),
                   num_requests=60, rate=2000.0, seed=0)


class TestEndToEnd:
    def test_concurrent_loadgen_no_lost_no_duplicates_bitwise(
            self, predictor):
        """>=50 concurrent requests, 3 workers, exact answers."""
        requests = SPEC.build_requests()
        direct = {}
        for request in requests:
            key = (request.workload.model_name,
                   request.cluster.num_servers)
            if key not in direct:
                direct[key] = predictor.predict(request).predicted_time

        config = ServeConfig(workers=3, max_queue_depth=len(requests))
        with PredictionServer(predictor, config) as server:
            futures = [server.submit(r) for r in requests]
            results = [f.result(timeout=30.0) for f in futures]

        # Zero lost: every future completed with a result.
        assert len(results) == len(requests) == 60
        # Zero duplicated/crossed: each result is bound to exactly the
        # request that produced it.
        for request, result in zip(requests, results):
            assert result.request is request
        # Bitwise-identical to the direct path (exact float equality).
        for request, result in zip(requests, results):
            key = (request.workload.model_name,
                   request.cluster.num_servers)
            assert result.predicted_time == direct[key]

    def test_loadgen_report_accounts_for_every_request(self, predictor):
        config = ServeConfig(workers=2, max_queue_depth=SPEC.num_requests)
        with PredictionServer(predictor, config) as server:
            report = LoadGenerator(server, SPEC).run()
        assert report.sent == 60
        assert report.completed == 60
        assert report.rejected == report.expired == report.errors == 0
        assert len(report.latencies) == 60
        assert report.throughput > 0
        assert report.p50 <= report.p90 <= report.p99

    def test_cache_hits_observable_and_skip_embed_span(self, predictor):
        request = _request()
        with obs.observed() as (tracer, metrics):
            with PredictionServer(predictor, ServeConfig(workers=2)) \
                    as server:
                first = server.predict(request, timeout=30.0)
                second = server.predict(_request(), timeout=30.0)
            counters = metrics.snapshot()["counters"]
            embed_spans = [r for r in tracer.records()
                           if r.name == "embed"]
        assert second.predicted_time == first.predicted_time
        assert counters["serve.cache.hits"] >= 1
        # The embed span ran for the miss only; the hit skipped the
        # whole pipeline including GHN embedding.
        assert len(embed_spans) == 1

    def test_identical_requests_in_one_batch_coalesce(self, predictor):
        """Queued duplicates execute once but all get answers."""
        with obs.observed(tracing=False) as (_, metrics):
            config = ServeConfig(workers=1, batch_window=0.05,
                                 max_batch=16, max_queue_depth=32)
            server = PredictionServer(predictor, config).start()
            requests = [_request() for _ in range(8)]
            futures = [server.submit(r) for r in requests]
            results = [f.result(timeout=30.0) for f in futures]
            server.stop()
            counters = metrics.snapshot()["counters"]
        assert len({r.predicted_time for r in results}) == 1
        assert counters.get("serve.batch.coalesced", 0) >= 1


class _GatedBackend:
    """Stand-in predictor whose predict() blocks until released."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self.threads: list[str] = []

    def predict(self, request):
        self.started.set()
        self.gate.wait(timeout=30.0)
        self.calls += 1
        self.threads.append(threading.current_thread().name)
        from repro.core.requests import PredictionResult
        return PredictionResult(request=request, predicted_time=1.0,
                                dataset_used="cifar10",
                                ghn_trained=False, embedding_seconds=0.0,
                                inference_seconds=0.0)


class TestBatchCollection:
    def test_idle_workers_do_not_split_a_burst(self):
        """Requests arriving inside one window join one batch, however
        many workers sit idle, instead of each opening its own window."""
        backend = _GatedBackend()
        backend.gate.set()
        config = ServeConfig(workers=2, batch_window=0.25, max_batch=16,
                             max_queue_depth=16)
        with PredictionServer(backend, config) as server:
            futures = []
            for size in range(1, 7):
                futures.append(server.submit(_request(size=size)))
                time.sleep(0.005)
            for future in futures:
                assert future.result(timeout=30.0).predicted_time == 1.0
        assert len(backend.threads) == 6
        assert len(set(backend.threads)) == 1


class TestAdmissionUnderSaturation:
    def test_queue_full_rejection_then_recovery(self):
        backend = _GatedBackend()
        config = ServeConfig(workers=1, batch_window=0.0, max_batch=1,
                             max_queue_depth=3)
        with PredictionServer(backend, config) as server:
            futures = [server.submit(_request(batch=32 + i))
                       for i in range(3)]
            with pytest.raises(QueueFullError):
                server.submit(_request(batch=99))
            backend.gate.set()
            for future in futures:
                assert future.result(timeout=30.0).predicted_time == 1.0
            # Capacity frees up once requests finish.
            done = server.submit(_request(batch=99))
            assert done.result(timeout=30.0).predicted_time == 1.0

    def test_expired_deadline_rejected_before_execution(self):
        backend = _GatedBackend()
        config = ServeConfig(workers=1, batch_window=0.0, max_batch=1,
                             max_queue_depth=8)
        with PredictionServer(backend, config) as server:
            blocker = server.submit(_request(batch=32))
            doomed = server.submit(_request(batch=64), deadline=0.01)
            time.sleep(0.05)  # let the deadline lapse while queued
            backend.gate.set()
            assert blocker.result(timeout=30.0) is not None
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
        # The backend never executed the expired request.
        assert backend.calls == 1


class TestLifecycle:
    def test_submit_to_stopped_server_raises(self, predictor):
        server = PredictionServer(predictor, ServeConfig(workers=2))
        with pytest.raises(ServerClosedError):
            server.submit(_request())
        server.start()
        server.stop()
        with pytest.raises(ServerClosedError):
            server.submit(_request())

    def test_graceful_drain_completes_pending_work(self, predictor):
        config = ServeConfig(workers=2, max_queue_depth=32)
        server = PredictionServer(predictor, config).start()
        futures = [server.submit(_request(model=m, size=s))
                   for m in ("resnet18", "alexnet") for s in (2, 3, 4)]
        server.stop(drain=True)
        for future in futures:
            assert future.result(timeout=1.0).predicted_time > 0

    def test_non_drain_stop_fails_pending_futures(self):
        backend = _GatedBackend()
        config = ServeConfig(workers=1, batch_window=0.0, max_batch=1,
                             max_queue_depth=8)
        server = PredictionServer(backend, config).start()
        blocker = server.submit(_request(batch=32))
        # Wait until the worker is executing the blocker, so it is out
        # of the queue before the non-draining stop discards the rest.
        assert backend.started.wait(timeout=10.0)
        pending = [server.submit(_request(batch=40 + i))
                   for i in range(3)]
        backend.gate.set()
        server.stop(drain=False)
        assert blocker.exception(timeout=30.0) is None
        # The worker may have picked some pending items up before the
        # stop landed; everything else fails fast with
        # ServerClosedError, and nothing hangs.
        outcomes = [future.exception(timeout=5.0) for future in pending]
        assert all(future.done() for future in pending)
        assert all(exc is None or isinstance(exc, ServerClosedError)
                   for exc in outcomes)
        server.stop()  # idempotent


class TestFabricFrontDoor:
    def test_client_round_trip_matches_direct(self, predictor):
        fabric = Fabric()
        request = _request()
        direct = predictor.predict(request).predicted_time
        with PredictionServer(predictor, ServeConfig(workers=2),
                              fabric=fabric) as server:
            assert server.endpoint is not None
            client = ServeClient(fabric, "client-a")
            result = client.predict(request, timeout=30.0)
            client.close()
        assert result.predicted_time == direct

    def test_invalid_request_returns_error_reply(self, predictor):
        fabric = Fabric()
        bad = PredictionRequest(
            workload=DLWorkload("resnet18", "no-such-dataset"),
            cluster=make_cluster(2, "gpu-p100"))
        with PredictionServer(predictor, ServeConfig(workers=2),
                              fabric=fabric):
            client = ServeClient(fabric, "client-b", retries=0)
            with pytest.raises(RuntimeError, match="server error"):
                client.predict(bad, timeout=30.0)
            client.close()

    def test_endpoint_released_on_stop(self, predictor):
        fabric = Fabric()
        server = PredictionServer(predictor, ServeConfig(workers=2),
                                  fabric=fabric).start()
        assert "predictddl-serve" in fabric.addresses()
        server.stop()
        assert "predictddl-serve" not in fabric.addresses()
        # The address is reclaimable by a restarted server.
        server2 = PredictionServer(predictor, ServeConfig(workers=2),
                                   fabric=fabric).start()
        server2.stop()
