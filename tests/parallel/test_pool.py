"""repro.parallel: the shared executor's lifecycle, through parallel_map.

Executor reuse and replacement, ordered bit-identical results, the
lowest-index exception, the counted serial fallback for a late
unpicklable task, the crash rerun and teardown (at exit and by
shutdown_pool).  The crash and exit cases run in a subprocess with a
timeout, so a wedged pool fails the test instead of stalling the suite.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro
from repro import obs
from repro.parallel import (parallel_map, pool_stats, shutdown_pool,
                            substreams)

SCRIPT_TIMEOUT = 60


def _square(x):
    return x * x


def _draw(stream):
    return np.random.default_rng(stream).standard_normal(4).tolist()


def _type_name(x):
    return type(x).__name__


def _pid(_):
    return os.getpid()


def _fail_odd(x):
    if x % 2:
        raise ValueError(f"task value {x}")
    return x


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _run_script(script, *args, cwd):
    """Run ``script`` as the leader of a new process group; kill the
    whole group (pool workers included) if it outlives the timeout."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args], env=env,
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SCRIPT_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"script still running after {SCRIPT_TIMEOUT} s")
    assert proc.returncode == 0, err
    return out


@pytest.fixture
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


class TestWarmReuse:
    def test_second_run_spawns_nothing(self, fresh_pool):
        tasks = list(range(8))
        assert parallel_map(_square, tasks, workers=2) == \
            [t * t for t in tasks]
        first = pool_stats()
        assert parallel_map(_square, tasks, workers=2) == \
            [t * t for t in tasks]
        second = pool_stats()
        assert second["spawns"] == first["spawns"]
        assert second["jobs"] == first["jobs"] + 1
        assert second["steals"] == 0

    def test_more_workers_replaces_the_executor(self, fresh_pool):
        assert pool_stats() is None
        parallel_map(_square, list(range(8)), workers=2)
        first = pool_stats()
        parallel_map(_square, list(range(8)), workers=4)
        grown = pool_stats()
        assert grown["spawns"] == first["spawns"] + 4
        # Fewer workers than the live executor has: reuse it.
        parallel_map(_square, list(range(8)), workers=2)
        assert pool_stats()["spawns"] == grown["spawns"]

    def test_chunking_gives_four_chunks_per_worker(self, fresh_pool):
        parallel_map(_square, list(range(8)), workers=2)
        before = pool_stats()["chunks"]
        # ceil(780 / (2 * 4)) = 98 tasks a chunk -> 8 chunks.
        parallel_map(_square, list(range(780)), workers=2)
        assert pool_stats()["chunks"] - before == 8


class TestDeterminism:
    def test_bitwise_identical_across_worker_counts(self):
        streams = substreams(123, 12)
        serial = [_draw(s) for s in streams]
        for workers in (1, 2, 4):
            assert parallel_map(_draw, streams, workers=workers) == serial

    def test_lowest_index_exception_wins(self):
        # Indices 1 and 3 both fail; index 1 (value 3) must be the one
        # raised, whichever chunk finished first.
        with pytest.raises(ValueError, match="task value 3"):
            parallel_map(_fail_odd, [2, 3, 4, 5], workers=2)

    def test_pool_reusable_after_task_error(self):
        with pytest.raises(ValueError):
            parallel_map(_fail_odd, [2, 3, 4, 5], workers=2)
        assert parallel_map(_square, [5, 6], workers=2) == [25, 36]


class TestCrashRecovery:
    def test_killed_worker_respawns_with_identical_results(self,
                                                           tmp_path):
        # The marker file makes the SIGKILL one-shot: the rerun on the
        # fresh executor computes index 2 normally.
        script = """
            import json, os, signal, sys
            from repro import obs
            from repro.parallel import parallel_map, pool_stats

            def crash_once(task):
                index, marker = task
                if index == 2 and not os.path.exists(marker):
                    with open(marker, "w") as fh:
                        fh.write("crashed")
                    os.kill(os.getpid(), signal.SIGKILL)
                return index * index

            obs.enable(tracing=False)
            tasks = [(i, sys.argv[1]) for i in range(8)]
            got = parallel_map(crash_once, tasks, workers=2)
            print(json.dumps({
                "got": got, "stats": pool_stats(),
                "events": obs.RECORDER.counts(),
                "counters": obs.METRICS.snapshot()["counters"]}))
        """
        marker = tmp_path / "crashed-once"
        out = _run_script(script, str(marker), cwd=tmp_path)
        report = json.loads(out.strip().splitlines()[-1])
        assert marker.exists()  # the crash really happened
        assert report["got"] == [i * i for i in range(8)]
        assert report["stats"]["respawns"] >= 1
        assert report["counters"]["parallel.pool.worker_deaths"] >= 1
        assert report["counters"]["parallel.pool.respawns"] >= 1
        assert report["events"].get("parallel.worker_died", 0) >= 1
        assert report["events"].get("parallel.worker_respawn", 0) >= 1


class TestFallbacks:
    def test_late_unpicklable_task_takes_counted_fallback(self):
        # fn and the first task pickle; the Lock at index 1 does not,
        # and the whole map must still degrade to the serial loop with
        # the counted reason.
        tasks = [1, threading.Lock()]
        with obs.observed(tracing=False) as (_, metrics):
            result = parallel_map(_type_name, tasks, workers=2)
            counters = metrics.snapshot()["counters"]
        assert result == [_type_name(t) for t in tasks]
        assert counters["parallel.fallbacks{reason=unpicklable}"] == 1


class TestTeardown:
    def test_atexit_closes_the_global_pool(self, tmp_path):
        # A process that uses the global pool and never shuts it down
        # must still exit cleanly (no hang, exit code 0).
        script = """
            from repro.parallel import parallel_map
            def sq(x):
                return x * x
            assert parallel_map(sq, list(range(8)), workers=2) == \\
                [x * x for x in range(8)]
            print("pool-ok")
        """
        assert "pool-ok" in _run_script(script, cwd=tmp_path)

    def test_shutdown_is_idempotent_and_map_after_it_works(self,
                                                           fresh_pool):
        pids = set(parallel_map(_pid, list(range(8)), workers=2))
        assert os.getpid() not in pids
        shutdown_pool()
        # shutdown_pool returns only once the workers have exited.
        assert not any(_alive(pid) for pid in pids)
        assert pool_stats() is None
        shutdown_pool()
        assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert pool_stats() is not None
