"""Per-layer metrics of a traced run, read from spans and public counters.

Layers are named after the modules.  Span-derived times come from the
spans the program already emits plus the benchmark's own spans around
its calls (``bench.*``); counters come from public accessors only.  A
metric whose span or accessor is missing on a workload that exercises
the layer is left out; a workload that bypasses the layer reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from perfstats import mean, ratio, self_time

SERVED = ("sched-warm", "nas-cold")
OFFLINE = ("offline-build",)
GHN_WORK = ("nas-cold", "offline-build")
ALL = SERVED + OFFLINE

#: name -> (unit, better, workloads that exercise the layer)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "serve.ingress_ms": ("ms", "lower", SERVED),
    "serve.queue_ms": ("ms", "lower", SERVED),
    "serve.unspanned_ms": ("ms", "lower", SERVED),
    "serve.batch_size_mean": ("count", "higher", SERVED),
    "serve.cache.hit_ratio": ("ratio", "higher", SERVED),
    "serve.errors": ("count", "lower", SERVED),
    "core.predict_ms": ("ms", "lower", SERVED),
    "core.predict_busy_ms": ("ms", "lower", SERVED),
    "graphs.verify_ms": ("ms", "lower", SERVED),
    "graphs.verify_per_predict": ("count", "lower", SERVED),
    "core.features_ms": ("ms", "lower", SERVED),
    "regression.predict_ms": ("ms", "lower", SERVED),
    "ghn.embed_ms": ("ms", "lower", GHN_WORK),
    "ghn.pack_ms": ("ms", "lower", GHN_WORK),
    "ghn.forward_ms": ("ms", "lower", GHN_WORK),
    "ghn.graphs_per_batch": ("count", "higher", GHN_WORK),
    "ghn.embed_cache.hit_ratio": ("ratio", "higher", ALL),
    "ghn.structure_cache.hit_ratio": ("ratio", "higher", ALL),
    "sim.tracegen_s": ("s", "lower", OFFLINE),
    "sim.points_per_s": ("1/s", "higher", OFFLINE),
    "sim.run_ms": ("ms", "lower", OFFLINE),
    "static.memory_ms": ("ms", "lower", OFFLINE),
    "parallel.spawns": ("count", "lower", OFFLINE),
    "parallel.chunks": ("count", "lower", OFFLINE),
    "parallel.steals": ("count", "lower", OFFLINE),
    "ghn.train_s": ("s", "lower", OFFLINE),
    "ghn.fit_embed_s": ("s", "lower", OFFLINE),
    "regression.fit_s": ("s", "lower", OFFLINE),
    "core.eval_s": ("s", "lower", OFFLINE),
    "obs.overhead_ratio": ("ratio", "lower", ALL),
}


class Spans:
    """Finished span records indexed by id, parent and name."""

    def __init__(self, records):
        self.records = list(records)
        self.by_id = {r.span_id: r for r in self.records}
        self.kids = defaultdict(list)
        self.by_name = defaultdict(list)
        for r in self.records:
            self.by_name[r.name].append(r)
            if r.parent_id is not None:
                self.kids[r.parent_id].append(r)

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def parent_name(self, record) -> str | None:
        parent = self.by_id.get(record.parent_id)
        return parent.name if parent is not None else None

    def child(self, record, name: str):
        return next((c for c in self.kids[record.span_id]
                     if c.name == name), None)

    def self_s(self, record) -> float:
        return self_time(record.start_wall, record.duration,
                         [(c.start_wall, c.duration)
                          for c in self.kids[record.span_id]])

    def nested(self, record, name: str) -> float:
        """Seconds of ``name`` spans anywhere below ``record``."""
        total, stack = 0.0, list(self.kids[record.span_id])
        while stack:
            node = stack.pop()
            if node.name == name:
                total += node.duration
            else:
                stack.extend(self.kids[node.span_id])
        return total

    def total(self, name: str) -> float:
        return sum(r.duration for r in self.named(name))


def _under(record, ancestor: str) -> bool:
    return ancestor in record.path.split("/")[:-1]


def _counter(snapshot: dict, name: str) -> float:
    return snapshot.get("counters", {}).get(name, 0.0)


def _hit_ratio(stats: dict | None) -> float | None:
    if stats is None:
        return None
    return ratio(stats["hits"], stats["hits"] + stats["misses"])


def served_layers(spans: Spans, snapshot: dict, *, round_trips=None,
                  busy: dict, result_cache: dict | None) -> dict:
    """Serve, core, graphs and regression layers of a served phase.

    ``round_trips`` are client-side seconds per request when the trace
    root is not the client span (nas-cold); ``busy`` maps
    ``(model, servers)`` to direct-predict seconds with obs off.
    """
    out: dict = {}
    ingress = spans.named("serve.ingress")
    if ingress:
        out["serve.ingress_ms"] = mean(
            [spans.self_s(r) for r in ingress]) * 1e3
    misses = []
    for r in ingress:
        batch = spans.child(r, "serve.batch")
        execute = spans.child(batch, "serve.execute") if batch else None
        if execute is None:
            continue
        root = spans.by_id.get(r.parent_id)
        misses.append((r, batch, execute, root))
    if misses:
        queue = [b.start_wall - (r.start_wall + r.duration)
                 for r, b, _, _ in misses]
        out["serve.queue_ms"] = mean(queue) * 1e3
        if round_trips is None:
            round_trips = [root.duration for _, _, _, root in misses
                           if root is not None
                           and root.name == "serve.client.predict"]
        if round_trips:
            out["serve.unspanned_ms"] = (
                mean(round_trips)
                - mean([spans.self_s(r) for r, _, _, _ in misses])
                - mean(queue)
                - mean([e.duration for _, _, e, _ in misses])) * 1e3
    sizes = snapshot.get("histograms", {}).get("serve.batch_size")
    if sizes:
        out["serve.batch_size_mean"] = sizes["mean"]
    out["serve.cache.hit_ratio"] = _hit_ratio(result_cache)
    out["serve.errors"] = sum(
        value for key, value in snapshot.get("counters", {}).items()
        if (key.startswith("serve.responses{")
            and key != "serve.responses{outcome=ok}")
        or key.startswith("serve.admission.rejected"))
    predicts = spans.named("predictddl.predict")
    if predicts:
        n = len(predicts)
        out["core.predict_ms"] = mean([r.duration for r in predicts]) * 1e3
        keys = [(r.attrs.get("model"), r.attrs.get("servers"))
                for r in predicts]
        replay = [busy[k] for k in keys if k in busy]
        if replay:
            out["core.predict_busy_ms"] = mean(replay) * 1e3
        verify = spans.named("graph-verify")
        if verify:
            out["graphs.verify_ms"] = sum(
                spans.self_s(r) for r in verify) / n * 1e3
            out["graphs.verify_per_predict"] = len(verify) / n
        for metric, name in (("core.features_ms", "feature-assembly"),
                             ("regression.predict_ms", "regress")):
            inside = [r for r in spans.named(name)
                      if spans.parent_name(r) == "predictddl.predict"]
            if inside:
                out[metric] = sum(spans.self_s(r) for r in inside) / n * 1e3
    return out


def ghn_layers(spans: Spans, snapshot: dict, *, embed_cache: dict | None,
               structure_cache: dict | None) -> dict:
    """GHN inference per embedded graph, batching and cache ratios."""
    out: dict = {}
    embeds = _counter(snapshot, "ghn.embeds")
    batches = _counter(snapshot, "ghn.embed_batches")
    embed_spans = spans.named("embed")
    if embed_spans:
        seconds = sum(r.duration - spans.nested(r, "ghn.train")
                      for r in embed_spans)
        out["ghn.embed_ms"] = ratio(seconds, embeds) * 1e3
    for metric, name in (("ghn.pack_ms", "ghn.embed_many.pack"),
                         ("ghn.forward_ms", "ghn.embed_many.forward")):
        if spans.named(name) or not embeds:
            out[metric] = ratio(spans.total(name), embeds) * 1e3
    if batches or not embeds:
        out["ghn.graphs_per_batch"] = ratio(embeds, batches)
    out["ghn.embed_cache.hit_ratio"] = _hit_ratio(embed_cache)
    out["ghn.structure_cache.hit_ratio"] = _hit_ratio(structure_cache)
    return out


def offline_layers(spans: Spans, *, pool: dict | None) -> dict:
    """Sweep, simulator, static memory, pool and build-stage layers."""
    out: dict = {}
    tracegen = spans.named("tracegen.generate")
    if tracegen:
        seconds = sum(r.duration for r in tracegen)
        out["sim.tracegen_s"] = seconds
        out["sim.points_per_s"] = ratio(
            sum(r.attrs.get("num_points", 0) for r in tracegen), seconds)
    for metric, name in (("sim.run_ms", "bench.sim.run"),
                         ("static.memory_ms", "bench.static.memory")):
        if spans.named(name):
            out[metric] = mean([r.duration
                                for r in spans.named(name)]) * 1e3
    if pool is not None:
        out["parallel.spawns"] = pool["spawns"]
        out["parallel.chunks"] = pool["chunks"]
        out["parallel.steals"] = pool["steals"]
    if spans.named("ghn.train"):
        out["ghn.train_s"] = spans.total("ghn.train")
    fit_embed = [r for r in spans.named("embed")
                 if _under(r, "predictddl.fit")]
    if fit_embed:
        out["ghn.fit_embed_s"] = sum(
            r.duration - spans.nested(r, "ghn.train") for r in fit_embed)
    fit_regress = [r for r in spans.named("regress")
                   if _under(r, "predictddl.fit")]
    if fit_regress:
        out["regression.fit_s"] = sum(r.duration for r in fit_regress)
    if spans.named("predictddl.predict_trace"):
        out["core.eval_s"] = spans.total("predictddl.predict_trace")
    return out


def finalize(workload: str, measured: dict) -> dict:
    """Every per-layer metric, with units, under the absent/zero rule."""
    out = {}
    for name, (unit, _, exercised) in PER_LAYER.items():
        value = measured.get(name)
        if value is None:
            if workload in exercised:
                continue
            value = 0.0
        out[name] = {"value": float(value), "unit": unit}
    return out
