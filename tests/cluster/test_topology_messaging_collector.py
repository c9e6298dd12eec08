"""Tests for cluster topology, the message fabric and the threaded
Cluster Resource Collector."""

import queue

import pytest

from repro.cluster import (CPU_E5_2630, Cluster, ClusterResourceCollector,
                           Fabric, FabricError, GPU_P100, ResourceSnapshot,
                           ServerAgent, make_cluster)


class TestCluster:
    def test_homogeneous_aggregates(self):
        cluster = make_cluster(4, "gpu-p100")
        assert cluster.num_servers == 4
        assert cluster.num_gpus == 4
        assert cluster.total_cores == 80
        assert cluster.total_flops == pytest.approx(
            4 * GPU_P100.effective_flops)
        assert cluster.is_homogeneous

    def test_heterogeneous(self):
        cluster = Cluster(servers=(CPU_E5_2630, GPU_P100))
        assert not cluster.is_homogeneous
        assert cluster.min_server_flops == CPU_E5_2630.effective_flops

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster(servers=())

    def test_make_cluster_validates(self):
        with pytest.raises(ValueError):
            make_cluster(0, "gpu-p100")

    def test_feature_dict(self):
        features = make_cluster(8, "cpu-e5-2630").as_feature_dict()
        assert features["num_servers"] == 8.0
        assert features["num_gpus"] == 0.0
        assert features["total_ram"] == 8 * CPU_E5_2630.ram_bytes

    def test_idle_snapshots(self):
        snaps = make_cluster(3, "cpu-e5-2650").idle_snapshots()
        assert len(snaps) == 3
        assert len({s.server_name for s in snaps}) == 3


class TestFabric:
    def test_send_recv(self):
        fabric = Fabric()
        a = fabric.register("a")
        b = fabric.register("b")
        a.send("b", "hello", {"x": 1})
        msg = b.recv(timeout=1.0)
        assert msg.sender == "a"
        assert msg.tag == "hello"
        assert msg.payload == {"x": 1}

    def test_duplicate_address_rejected(self):
        fabric = Fabric()
        fabric.register("a")
        with pytest.raises(FabricError, match="already registered"):
            fabric.register("a")

    def test_unknown_destination(self):
        fabric = Fabric()
        a = fabric.register("a")
        with pytest.raises(FabricError, match="no endpoint"):
            a.send("ghost", "ping")

    def test_closed_endpoint_rejects_send(self):
        fabric = Fabric()
        a = fabric.register("a")
        fabric.register("b")
        a.close()
        with pytest.raises(FabricError, match="closed"):
            a.send("b", "ping")

    def test_close_unregisters(self):
        fabric = Fabric()
        a = fabric.register("a")
        a.close()
        assert "a" not in fabric.addresses()

    def test_try_recv_empty(self):
        fabric = Fabric()
        a = fabric.register("a")
        assert a.try_recv() is None

    def test_recv_timeout(self):
        fabric = Fabric()
        a = fabric.register("a")
        with pytest.raises(queue.Empty):
            a.recv(timeout=0.01)

    def test_broadcast_excludes_sender(self):
        fabric = Fabric()
        endpoints = [fabric.register(f"n{i}") for i in range(4)]
        count = fabric.broadcast("n0", "ping")
        assert count == 3
        assert endpoints[0].try_recv() is None
        for ep in endpoints[1:]:
            assert ep.recv(timeout=1.0).tag == "ping"


class TestCollector:
    @pytest.fixture
    def collector_setup(self):
        fabric = Fabric()
        collector = ClusterResourceCollector(fabric, poll_interval=0.005,
                                             num_pollers=2)
        collector.start()
        agents = []
        yield fabric, collector, agents
        for agent in agents:
            agent.stop()
        collector.stop()

    def test_join_and_inventory(self, collector_setup):
        fabric, collector, agents = collector_setup
        cluster = make_cluster(3, "cpu-e5-2630")
        for i, spec in enumerate(cluster.servers):
            snap = ResourceSnapshot.idle(f"server{i}", spec)
            agent = ServerAgent(fabric, f"server{i}", collector.address,
                                lambda s=snap: s)
            agent.start()
            agents.append(agent)
        assert collector.wait_for_members(3, timeout=5.0)
        inventory = collector.inventory()
        assert set(inventory) == {"server0", "server1", "server2"}
        assert all(isinstance(s, ResourceSnapshot)
                   for s in inventory.values())

    def test_polling_picks_up_state_changes(self, collector_setup):
        fabric, collector, agents = collector_setup
        state = {"cores": 16}

        def snapshot():
            return ResourceSnapshot("dyn", CPU_E5_2630,
                                    available_cores=state["cores"],
                                    cpu_utilization=0.0)

        agent = ServerAgent(fabric, "dyn", collector.address, snapshot)
        agent.start()
        agents.append(agent)
        assert collector.wait_for_members(1)
        state["cores"] = 4
        import time

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            inv = collector.inventory()
            if inv.get("dyn") and inv["dyn"].available_cores == 4:
                break
            time.sleep(0.01)
        assert collector.inventory()["dyn"].available_cores == 4

    def test_leave_removes_member(self, collector_setup):
        fabric, collector, agents = collector_setup
        snap = ResourceSnapshot.idle("tmp", CPU_E5_2630)
        agent = ServerAgent(fabric, "tmp", collector.address, lambda: snap)
        agent.start()
        assert collector.wait_for_members(1)
        agent.stop()
        import time

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and collector.num_members():
            time.sleep(0.01)
        assert collector.num_members() == 0

    def test_wait_for_members_timeout(self, collector_setup):
        _, collector, _ = collector_setup
        assert not collector.wait_for_members(1, timeout=0.05)

    def test_run_sweep_reports_trace_upstream(self, collector_setup,
                                              tmp_path):
        # The head-node production path: an agent shards a sweep over
        # the shared process pool and ships the points to the collector's
        # attached store.
        import time

        from repro.store import TraceStore

        fabric, collector, agents = collector_setup
        collector.attach_store(TraceStore(str(tmp_path / "store")))
        snap = ResourceSnapshot.idle("head", CPU_E5_2630)
        agent = ServerAgent(fabric, "head", collector.address,
                            lambda: snap)
        agent.start()
        agents.append(agent)
        assert collector.wait_for_members(1)
        count = agent.run_sweep(["alexnet"], "cifar10", "gpu-p100",
                                [1, 2], seed=3, workers=2)
        assert count == 2
        deadline = time.monotonic() + 5.0
        while (time.monotonic() < deadline
               and collector.trace_points_ingested < count):
            time.sleep(0.01)
        assert collector.trace_points_ingested == count
