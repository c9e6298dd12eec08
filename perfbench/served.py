"""The two serving workloads: closed loops through the fabric front door.

Both build their predictor in set-up through the public API, on the
CIFAR-10/P100 sweep (1-16 servers, batch 32 and 64) that covers every
request they send, and serve it with ``ServeConfig()`` defaults.

* ``sched-warm``: two ``ServeClient(reliable=True)`` callers, one thread
  each, draw requests from one seeded stream over the 1,248 trained
  keys (Zipf(1.1) model popularity).  Every embedding is cached by
  ``fit``; an untimed warm-up prefix of the stream fills the result
  cache.
* ``nas-cold``: one caller on one endpoint sends generations of eight
  ``RequestEnvelope``s and waits for all eight replies.  Every candidate
  is a zoo family rebuilt at a new input size and class count, under a
  unique name, so it misses the result, structure and embedding caches.
"""

from __future__ import annotations

import dataclasses
import math
import queue
import threading
import time

import numpy as np

from perfstats import Sample, account, digest, float_bits, samples_needed

from repro import PredictDDL, PredictionRequest
from repro.cluster import Fabric, make_cluster
from repro.graphs import graph_fingerprint
from repro.graphs.zoo import get_model, list_models
from repro.obs import TRACER
from repro.serve import (PredictionServer, RequestEnvelope, ServeClient,
                         ServeConfig)
from repro.sim import DLWorkload, generate_trace

DATASET = "cifar10"
SERVER_CLASS = "gpu-p100"
SERVER_COUNTS = tuple(range(1, 17))
BATCHES = (32, 64)
SWEEP_WORKERS = 2
#: The served predictor is the operator's deployed model: built from a
#: fixed seed, so ``--seed`` varies the traffic and not the model.
PREDICTOR_SEED = 0
REPLY_TIMEOUT = 10.0

#: Zipf exponent of model popularity in sched-warm.
ZIPF_S = 1.1
#: Popularity ranks are a fixed permutation of the zoo, so seeds vary
#: the draws but never which models are hot.
POPULARITY_SEED = 0
#: Requests of the untimed sched-warm warm-up (the stream's prefix).
SCHED_WARMUP = 384
#: Stream requests generated per second of timed phase: far above the
#: rate two closed-loop callers reach, so the stream never runs dry.
SCHED_PER_SECOND = 800

#: nas-cold candidate families: one of each per generation, in this
#: order, so every generation carries the same GHN work whatever the
#: seed.
NAS_FAMILIES = ("alexnet", "vgg11", "resnet18", "squeezenet1_1",
                "googlenet", "mobilenet_v3_small", "shufflenet_v2_x1_0",
                "mnasnet1_0")
#: Input sizes other than the trained 64 that every family accepts.
NAS_INPUT_SIZES = (72, 80, 88, 96, 112, 128)
NAS_CLASSES = (11, 1000)
NAS_SERVERS = 4
NAS_WARMUP_GENERATIONS = 2
#: Candidates generated per second of timed phase (about 1.6 times the
#: rate the loop reaches), capped to bound the memory they hold; a phase
#: that runs out of candidates ends early.
NAS_PER_SECOND = 40
NAS_MAX_GENERATIONS = 60


def stop_pool() -> None:
    """Stop the sweep's worker processes, if the pool API still exists."""
    try:
        from repro.parallel import shutdown_pool
    except ImportError:
        return
    shutdown_pool()


def build_predictor(seed: int) -> tuple[PredictDDL, list, float]:
    """The served predictor: sweep, GHN meta-training and fit."""
    start = time.perf_counter()
    models = list_models()
    points = []
    for offset, batch in enumerate(BATCHES):
        points += generate_trace(models, DATASET, SERVER_CLASS,
                                 SERVER_COUNTS,
                                 batch_size_per_server=batch,
                                 seed=seed + offset,
                                 workers=SWEEP_WORKERS)
    stop_pool()
    predictor = PredictDDL(seed=seed).fit(points)
    return predictor, points, time.perf_counter() - start


def in_sample_mre(predictor: PredictDDL, points: list) -> float:
    """Mean relative error of the served predictor over its sweep."""
    predicted = predictor.predict_trace(points)
    actual = np.array([p.total_time for p in points])
    return float(np.mean(np.abs(predicted - actual) / actual))


# ----------------------------------------------------------------------
# sched-warm inputs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Keyed:
    """A request with its hashable descriptor."""

    key: tuple
    request: PredictionRequest


def sched_stream(seed: int, count: int) -> list[Keyed]:
    """``count`` seeded scheduler requests over the trained envelope."""
    ranked = list(np.random.default_rng(POPULARITY_SEED)
                  .permutation(list_models()))
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_S
    rng = np.random.default_rng(seed)
    models = rng.choice(len(ranked), size=count, p=weights / weights.sum())
    servers = rng.choice(SERVER_COUNTS, size=count)
    batches = rng.choice(BATCHES, size=count)
    clusters = {n: make_cluster(n, SERVER_CLASS) for n in SERVER_COUNTS}
    stream = []
    for m, n, b in zip(models, servers, batches):
        key = (str(ranked[m]), int(n), int(b))
        stream.append(Keyed(key, PredictionRequest(
            workload=DLWorkload(key[0], DATASET, key[2]),
            cluster=clusters[key[1]])))
    return stream


# ----------------------------------------------------------------------
# nas-cold inputs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Candidate:
    index: int
    key: tuple          # (family, input size, classes)
    name: str
    request: PredictionRequest

    def fingerprint(self) -> str:
        return graph_fingerprint(self.request.graph)


class CandidateGenerator:
    """Seeded, never-repeating NAS candidates, one generation at a time.

    Each generation holds one candidate of every family in
    ``NAS_FAMILIES``, in that order, rebuilt at a seeded input size and
    class count that no earlier candidate used, and named uniquely (the
    GHN verify memo and the embedding cache key on the name).
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._used: set[tuple] = set()
        self._count = 0
        self._cluster = make_cluster(NAS_SERVERS, SERVER_CLASS)

    def generation(self) -> list[Candidate]:
        out = []
        for family in NAS_FAMILIES:
            while True:
                key = (family,
                       int(self._rng.choice(NAS_INPUT_SIZES)),
                       int(self._rng.integers(*NAS_CLASSES)))
                if key not in self._used:
                    break
            self._used.add(key)
            graph = get_model(family, input_size=key[1],
                              num_classes=key[2])
            graph.name = f"nas-{self.seed}-{self._count:05d}-{family}"
            out.append(Candidate(
                index=self._count, key=key, name=graph.name,
                request=PredictionRequest(
                    workload=DLWorkload(family, DATASET, BATCHES[0]),
                    cluster=self._cluster, graph=graph)))
            self._count += 1
        return out

    def generations(self, count: int) -> list[list[Candidate]]:
        return [self.generation() for _ in range(count)]


# ----------------------------------------------------------------------
# closed loops
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    """What one timed phase sent and got back."""

    samples: list[Sample]
    start: float
    end: float
    answers: dict            # stream index -> predicted_time
    errors: list[str]

    @property
    def stats(self):
        return account(self.samples, self.start, self.end)


def keep_sending(start: float, seconds: float, sent: int,
                 min_samples: int) -> bool:
    """Closed-loop stop rule: run for ``seconds``, and past that until
    ``min_samples`` were sent (the tail percentile's support), but never
    beyond three times ``seconds``."""
    elapsed = time.perf_counter() - start
    if elapsed >= 3 * seconds:
        return False
    return elapsed < seconds or sent < min_samples


def run_callers(clients: list[ServeClient], stream: list[Keyed],
                first: int, last: int, seconds: float,
                min_samples: int = 0) -> Phase:
    """Closed loop: each client sends its next request after its reply.

    Clients take the next unsent stream index under a lock, so the
    requests sent form the contiguous range ``[first, next)``; once the
    phase is over (:func:`keep_sending`) no new request is sent and
    in-flight ones finish.
    """
    lock = threading.Lock()
    cursor = [first]
    samples: list[Sample] = []
    answers: dict = {}
    errors: list[str] = []
    start = time.perf_counter()

    def caller(client: ServeClient) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= last or not keep_sending(
                        start, seconds, index - first, min_samples):
                    return
                cursor[0] = index + 1
            sent = time.perf_counter()
            try:
                result = client.predict(stream[index].request,
                                        timeout=REPLY_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                replied = time.perf_counter()
                with lock:
                    errors.append(f"request {index}: "
                                  f"{type(exc).__name__}: {exc}")
                    samples.append(Sample(index, sent, replied, False))
                continue
            replied = time.perf_counter()
            with lock:
                answers[index] = result.predicted_time
                samples.append(Sample(index, sent, replied, True))

    threads = [threading.Thread(target=caller, args=(c,),
                                name=f"sched-caller-{i}")
               for i, c in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Phase(samples, start, time.perf_counter(), answers, errors)


def run_generations(endpoint, address: str,
                    generations: list[list[Candidate]],
                    seconds: float, first_rid: int,
                    min_samples: int = 0) -> Phase:
    """Closed loop of NAS generations on one endpoint.

    A candidate's clock starts when its generation is sent.  When
    tracing is on, each generation runs under a ``bench.nas.generation``
    span whose context rides in every envelope, so the server-side
    spans of all eight candidates stitch under it.
    """
    samples: list[Sample] = []
    answers: dict = {}
    errors: list[str] = []
    rid = first_rid
    start = time.perf_counter()
    for generation in generations:
        if not keep_sending(start, seconds, len(samples), min_samples):
            break
        with TRACER.span("bench.nas.generation", size=len(generation)):
            context = TRACER.current_context()
            pending = {}
            sent = time.perf_counter()
            for cand in generation:
                endpoint.send(address, "predict",
                              RequestEnvelope(rid, cand.request,
                                              trace=context))
                pending[rid] = cand.index
                rid += 1
            while pending:
                remaining = sent + REPLY_TIMEOUT - time.perf_counter()
                try:
                    msg = endpoint.recv(timeout=max(remaining, 0.0))
                except queue.Empty:
                    break
                reply_id, body = msg.payload
                index = pending.pop(reply_id, None)
                if index is None:
                    continue
                replied = time.perf_counter()
                ok = msg.tag == "result"
                if ok:
                    answers[index] = body.predicted_time
                else:
                    errors.append(f"candidate {index}: {body}")
                samples.append(Sample(index, sent, replied, ok))
            for index in pending.values():
                errors.append(f"candidate {index}: no reply in "
                              f"{REPLY_TIMEOUT}s")
                samples.append(Sample(index, sent, sent + REPLY_TIMEOUT,
                                      False))
    end = max([time.perf_counter()] + [s.replied for s in samples])
    return Phase(samples, start, end, answers, errors)


def direct_replay(predictor: PredictDDL,
                  requests: dict) -> tuple[dict, dict]:
    """Direct ``predict`` of each request, single thread, obs off.

    Returns predictions and busy seconds, both keyed like ``requests``.
    """
    predictions, busy = {}, {}
    for key, request in requests.items():
        start = time.perf_counter()
        predictions[key] = predictor.predict(request).predicted_time
        busy[key] = time.perf_counter() - start
    return predictions, busy


def mismatches(served: dict, direct: dict, label) -> list[str]:
    """Served answers that differ from the direct prediction."""
    return [f"{label(k)}: served {served[k]!r} != direct {direct[k]!r}"
            for k in served if float_bits(served[k])
            != float_bits(direct[k])]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class _Served:
    """Set-up and teardown shared by the two serving workloads."""

    name = ""
    tail_q: float

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.predictor, self.points, self.build_s = build_predictor(
            PREDICTOR_SEED)
        self.fabric = Fabric()
        self.server = PredictionServer(self.predictor, ServeConfig(),
                                       fabric=self.fabric)
        self.server.start()
        self.address = self.server.config.address

    @property
    def min_samples(self) -> int:
        """Requests a timed phase needs for its tail percentile."""
        return samples_needed(self.tail_q)

    def output_digest(self, phase: Phase) -> str:
        """Digest of the phase's first ``min_samples`` served answers."""
        first = min(s.index for s in phase.samples)
        served = [(i, float_bits(phase.answers[i]))
                  for i in range(first, first + self.min_samples)
                  if i in phase.answers]
        return f"{digest(served)} (first {len(served)} served)"

    def close(self) -> None:
        self.server.stop()


class SchedWarm(_Served):
    name = "sched-warm"
    tail_q = 99.0

    def __init__(self, seed: int, seconds: float, trace: bool):
        super().__init__(seconds)
        phases = 2 if trace else 1
        self.stream = sched_stream(
            seed, SCHED_WARMUP + phases * math.ceil(seconds
                                                    * SCHED_PER_SECOND))
        self.clients = [ServeClient(self.fabric, f"sched-client-{i}",
                                    self.address, reliable=True)
                        for i in range(2)]
        warm = run_callers(self.clients, self.stream, 0, SCHED_WARMUP,
                           math.inf)
        self.cursor = SCHED_WARMUP
        self.phases = [warm]

    def input_digest(self) -> str:
        return digest(k.key for k in self.stream)

    def timed_phase(self) -> Phase:
        phase = run_callers(self.clients, self.stream, self.cursor,
                            len(self.stream), self.seconds,
                            self.min_samples)
        self.cursor = max(self.cursor, max(
            (s.index + 1 for s in phase.samples), default=self.cursor))
        self.phases.append(phase)
        return phase

    def check(self) -> tuple[list[str], dict]:
        """Every distinct request served vs a direct predict."""
        requests, served = {}, {}
        for phase in self.phases:
            for index, value in phase.answers.items():
                keyed = self.stream[index]
                requests.setdefault(keyed.key, keyed.request)
                served.setdefault(keyed.key, value)
        direct, busy = direct_replay(self.predictor, requests)
        return mismatches(served, direct, str), busy

    @staticmethod
    def model_servers(key) -> tuple:
        return key[0], key[1]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        super().close()


class NasCold(_Served):
    name = "nas-cold"
    tail_q = 95.0

    def __init__(self, seed: int, seconds: float, trace: bool):
        super().__init__(seconds)
        per_phase = min(NAS_MAX_GENERATIONS,
                        math.ceil(seconds * NAS_PER_SECOND
                                  / len(NAS_FAMILIES)))
        generator = CandidateGenerator(seed)
        warmup = generator.generations(NAS_WARMUP_GENERATIONS)
        self.pending = [generator.generations(per_phase)
                        for _ in range(2 if trace else 1)]
        self.candidates = {c.index: c
                           for gen in warmup + sum(self.pending, [])
                           for c in gen}
        self.endpoint = self.fabric.register("nas-caller")
        self.rid = 0
        self.phases = [self._run(warmup, math.inf)]

    def _run(self, generations, seconds, min_samples=0) -> Phase:
        phase = run_generations(self.endpoint, self.address, generations,
                                seconds, self.rid, min_samples)
        self.rid += sum(len(g) for g in generations)
        return phase

    def input_digest(self) -> str:
        return digest((c.key, c.name) for c in self.candidates.values())

    def timed_phase(self) -> Phase:
        phase = self._run(self.pending.pop(0), self.seconds,
                          self.min_samples)
        self.phases.append(phase)
        return phase

    def check(self) -> tuple[list[str], dict]:
        """Fresh names and fingerprints, no result-cache hit, and every
        served answer equal to a direct predict."""
        problems = []
        served = {i: v for phase in self.phases
                  for i, v in phase.answers.items()}
        sent = [self.candidates[s.index] for phase in self.phases
                for s in phase.samples]
        trained = {graph_fingerprint(graph) for graph in
                   {p.workload.model_name: p.workload.graph
                    for p in self.points}.values()}
        if len({c.name for c in sent}) != len(sent):
            problems.append("candidate names repeat")
        prints = [c.fingerprint() for c in sent]
        if len(set(prints)) != len(prints) or trained & set(prints):
            problems.append("candidate fingerprints are not all fresh")
        hits = self.server.cache.stats()["hits"]
        if hits:
            problems.append(f"result cache recorded {hits} hits")
        direct, busy = direct_replay(
            self.predictor,
            {i: self.candidates[i].request for i in served})
        problems += mismatches(served, direct,
                               lambda i: self.candidates[i].name)
        return problems, busy

    def model_servers(self, index) -> tuple:
        return self.candidates[index].key[0], NAS_SERVERS

    def close(self) -> None:
        self.endpoint.close()
        super().close()


def loop_metrics(workload, phase: Phase) -> dict:
    """End-to-end figures of one served timed phase."""
    stats = phase.stats
    tail = stats.p(workload.tail_q)
    return {
        "p50_ms": stats.p(50) * 1e3 if stats.p(50) is not None else None,
        "tail_ms": tail * 1e3 if tail is not None else None,
        "throughput_rps": stats.throughput,
        "samples": stats.attempted,
        "failed": stats.failed,
    }
