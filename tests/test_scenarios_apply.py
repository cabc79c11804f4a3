"""WorkloadEngine: logical ops applied tolerantly to a live deployment."""

from repro.chaos import SoakConfig, run_soak
from repro.chaos.runner import build_deployment
from repro.scenarios import WorkloadOp, WorkloadSchedule, generate
from repro.scenarios.apply import WorkloadEngine


def make_engine(seed=1):
    deployment = build_deployment(SoakConfig(seed=seed, duration_s=10.0))
    return deployment, WorkloadEngine(deployment)


def run_schedule(engine, deployment, ops, duration_s=10.0):
    engine.schedule(WorkloadSchedule(
        kind="test", seed=1, duration_s=duration_s, ops=ops))
    deployment.net.run(until=duration_s)


class TestCreateRemove:
    def test_create_installs_chain(self):
        deployment, engine = make_engine()
        run_schedule(engine, deployment, [
            WorkloadOp(at=1.0, op="create", chain="wl-t-0",
                       ingress=0, egress=1, stages=2, value=1.0),
        ])
        assert engine.counts["created"] == 1
        assert "wl-t-0" in deployment.gs.model.chains

    def test_remove_deletes_chain(self):
        deployment, engine = make_engine()
        run_schedule(engine, deployment, [
            WorkloadOp(at=1.0, op="create", chain="wl-t-0", value=1.0),
            WorkloadOp(at=2.0, op="remove", chain="wl-t-0"),
        ])
        assert engine.counts["removed"] == 1
        assert "wl-t-0" not in deployment.gs.model.chains

    def test_remove_of_unknown_chain_is_skipped_not_fatal(self):
        deployment, engine = make_engine()
        run_schedule(engine, deployment, [
            WorkloadOp(at=1.0, op="remove", chain="wl-never-created"),
        ])
        assert engine.counts["remove_skipped"] == 1

    def test_remove_of_base_chain(self):
        deployment, engine = make_engine()
        run_schedule(engine, deployment, [
            WorkloadOp(at=1.0, op="remove", chain="chain0"),
        ])
        assert engine.counts["removed"] == 1
        assert "chain0" not in deployment.gs.model.chains


class TestRedemand:
    def test_redemand_scales_base_chain(self):
        deployment, engine = make_engine()
        before = deployment.gs.model.chains["chain0"].forward_traffic[0]
        run_schedule(engine, deployment, [
            WorkloadOp(at=1.0, op="redemand", chain="chain0", value=1.5),
        ])
        assert engine.counts["redemanded"] == 1
        after = deployment.gs.model.chains["chain0"].forward_traffic[0]
        assert after == before * 1.5

    def test_redemand_of_unknown_chain_is_skipped(self):
        deployment, engine = make_engine()
        run_schedule(engine, deployment, [
            WorkloadOp(at=1.0, op="redemand", chain="wl-ghost", value=2.0),
        ])
        assert engine.counts["redemand_skipped"] == 1

    def test_max_redemand_factor_tracked(self):
        deployment, engine = make_engine()
        run_schedule(engine, deployment, [
            WorkloadOp(at=1.0, op="redemand", chain="chain0", value=1.2),
            WorkloadOp(at=2.0, op="redemand", chain="chain1", value=2.8),
        ])
        assert engine.max_redemand_factor == 2.8


class TestRunSoakIntegration:
    def test_soak_report_carries_workload_fields(self):
        workload = generate("site_churn", 5, duration_s=12.0)
        report = run_soak(SoakConfig(seed=5, duration_s=12.0),
                          workload=workload)
        assert report.workload["digest"] == workload.digest()
        assert report.workload["ops_applied"] == len(workload.ops)
        assert sum(report.workload["counts"].values()) == len(workload.ops)
        assert "workload" in report.render()

    def test_soak_without_workload_unchanged(self):
        report = run_soak(SoakConfig(seed=1, duration_s=10.0))
        assert report.workload["digest"] == ""
        assert report.workload["ops_applied"] == 0
