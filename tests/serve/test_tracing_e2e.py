"""End-to-end request tracing: client, fabric, batcher, worker.

The acceptance contract of the observability layer: one
``ServeClient.predict`` over the fabric with tracing on yields ONE
stitched trace tree whose spans cover the client call, server ingress,
micro-batch execution and the predictor internals -- even though those
spans are opened by four different threads.
"""

import pytest

from repro import obs
from repro.cluster import Fabric, make_cluster
from repro.core import PredictionRequest
from repro.obs.export import stitch, validate
from repro.serve import (LoadGenerator, PredictionServer, ServeClient,
                         ServeConfig, TrafficSpec)
from repro.sim import DLWorkload

pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def clean_obs():
    """Global tracer/recorder state must never leak between tests."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _request(model="resnet18", size=2):
    return PredictionRequest(
        workload=DLWorkload(model, "cifar10"),
        cluster=make_cluster(size, "gpu-p100"))


class TestFabricTraceStitching:
    def test_one_tree_spans_client_to_predictor(self, predictor):
        with obs.observed() as (tracer, _):
            fabric = Fabric()
            with PredictionServer(predictor, ServeConfig(workers=2),
                                  fabric=fabric):
                client = ServeClient(fabric, "trace-client",
                                     reliable=True)
                client.predict(_request(), timeout=30.0)
                client.close()
            records = tracer.records()

        # Every span of the request shares one trace id...
        assert len({r.trace_id for r in records}) == 1
        assert validate(records) == []
        # ...and stitches into a single tree rooted at the client span.
        (tree,) = stitch(records)
        names = tree.span_names()
        for name in ("serve.client.predict", "serve.ingress",
                     "serve.batch", "serve.execute",
                     "predictddl.predict"):
            assert name in names, f"missing span {name}"
        assert names[0] == "serve.client.predict"

    def test_cross_thread_parent_links(self, predictor):
        # The ingress-pump span must parent under the client span and
        # the worker-side batch span under the ingress span -- the
        # explicit TraceContext handoffs, not thread-locals, link them.
        with obs.observed() as (tracer, _):
            fabric = Fabric()
            with PredictionServer(predictor, ServeConfig(workers=1),
                                  fabric=fabric):
                client = ServeClient(fabric, "trace-client",
                                     reliable=True)
                client.predict(_request(), timeout=30.0)
                client.close()
            by_name = {r.name: r for r in tracer.records()}

        client_span = by_name["serve.client.predict"]
        ingress = by_name["serve.ingress"]
        batch = by_name["serve.batch"]
        execute = by_name["serve.execute"]
        assert client_span.parent_id is None
        assert ingress.parent_id == client_span.span_id
        assert batch.parent_id == ingress.span_id
        assert execute.parent_id == batch.span_id
        assert by_name["predictddl.predict"].parent_id == execute.span_id

    def test_cache_hit_trace_reaches_the_worker(self, predictor):
        # A hit is answered by a worker after waiting in the queue, so
        # its tree reaches serve.batch; serve.execute marks misses only.
        with obs.observed() as (tracer, _):
            fabric = Fabric()
            with PredictionServer(predictor, ServeConfig(workers=1),
                                  fabric=fabric) as server:
                client = ServeClient(fabric, "trace-client",
                                     reliable=True)
                client.predict(_request(), timeout=30.0)
                client.predict(_request(), timeout=30.0)  # cache hit
                client.close()
                assert server.cache.stats()["hits"] == 1
            records = tracer.records()

        assert validate(records) == []
        trees = stitch(records)
        assert len(trees) == 2
        (hit,) = [t for t in trees
                  if "serve.execute" not in t.span_names()]
        names = hit.span_names()
        assert names[:3] == ["serve.client.predict", "serve.ingress",
                             "serve.batch"]
        assert "predictddl.predict" not in names

    def test_flight_recorder_sees_the_request(self, predictor):
        with obs.observed():
            fabric = Fabric()
            with PredictionServer(predictor, ServeConfig(workers=2),
                                  fabric=fabric):
                client = ServeClient(fabric, "trace-client",
                                     reliable=True)
                client.predict(_request(), timeout=30.0)
                client.predict(_request(), timeout=30.0)  # cache hit
                client.close()
            counts = obs.RECORDER.counts()
        assert counts["request_admitted"] == 2
        assert counts["batch_formed"] >= 1
        assert counts["cache_miss"] >= 1
        assert counts["cache_hit"] >= 1

    def test_disabled_obs_leaves_predictions_identical(self, predictor):
        request = _request()
        direct = predictor.predict(request).predicted_time

        def served():
            fabric = Fabric()
            with PredictionServer(predictor, ServeConfig(workers=2),
                                  fabric=fabric):
                client = ServeClient(fabric, "trace-client",
                                     reliable=True)
                try:
                    return client.predict(request,
                                          timeout=30.0).predicted_time
                finally:
                    client.close()

        off = served()
        with obs.observed():
            on = served()
        assert off == on == direct
        assert not obs.RECORDER.enabled     # observed() restored state


class TestLoadgenTraces:
    def test_samples_carry_trace_ids_and_exemplars(self, predictor):
        spec = TrafficSpec(num_requests=12, rate=2000.0)
        with obs.observed() as (tracer, _):
            config = ServeConfig(workers=2, max_queue_depth=12)
            with PredictionServer(predictor, config) as server:
                report = LoadGenerator(server, spec).run()
            records = tracer.records()

        assert report.completed == 12
        assert len(report.samples) == 12
        assert all(s.trace_id for s in report.samples)
        assert {s.trace_id for s in report.samples} <= {
            r.trace_id for r in records}
        assert validate(records) == []
        # The per-family breakdown attaches exemplar trace ids to the
        # tail, and those ids resolve to stitched trees that reach the
        # worker side (a cache hit's tree ends at serve.batch).
        families = report.family_reports()
        assert families
        exemplars = {t for f in families for t in f.p99_exemplars}
        assert exemplars
        trees = {t.record.trace_id: t for t in stitch(records)}
        for trace_id in exemplars:
            assert "serve.batch" in trees[trace_id].span_names()

    def test_tracing_off_yields_untraced_samples(self, predictor):
        spec = TrafficSpec(num_requests=6, rate=2000.0)
        config = ServeConfig(workers=2, max_queue_depth=6)
        with PredictionServer(predictor, config) as server:
            report = LoadGenerator(server, spec).run()
        assert report.completed == 6
        assert all(s.trace_id == "" for s in report.samples)
        assert len(obs.RECORDER) == 0
        assert "families" not in report.to_dict() or report.samples
