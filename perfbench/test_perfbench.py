"""Self-test of the benchmark harness, on the simulation backend.

    python3 -m pytest perfbench/test_perfbench.py

The simulation backend skips the minutes-long Groth16 trusted setup; the
benchmark itself always runs Groth16.  These tests check the metric
names against BENCHMARK.json, the verdict bookkeeping, and the
``failed`` accounting.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from hostspeed import SAMPLE_EVERY_S, HostMeter  # noqa: E402

run.import_program()

import layers  # noqa: E402
import world as W  # noqa: E402
from repro.errors import CertificateError, ProofError  # noqa: E402
from workloads import (  # noqa: E402
    ACCEPT,
    BAD_PROOF,
    MIN_OPS,
    REVOKED,
    WORKLOADS,
    Op,
    Workload,
    run_phase,
    verdict_of,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_main(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--backend", "simulation", "--seconds", "0.5", *argv])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def sim_world(workload):
    return W.load_world("simulation", WORKLOADS[workload].with_prover)


def test_end_to_end_metrics_match_the_spec():
    code, result = run_main("--workload", "connect", "--seed", "3")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_match_the_spec():
    code, result = run_main("--workload", "revisit", "--seed", "3",
                            "--trace", "1")
    assert code == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cache.hit"] > 0 and metrics["cache.hit_ratio"] > 0.5
    assert metrics["core.client.cache_lookup.calls"] == (
        metrics["cache.hit"] + metrics["cache.miss"])


def test_verdict_classification():
    def raising(exc):
        def call():
            raise exc
        return call

    assert verdict_of(lambda: 1) == (ACCEPT, 1)
    assert verdict_of(raising(CertificateError("certificate is revoked")))[0] == REVOKED
    assert verdict_of(raising(ProofError("bad")))[0] == BAD_PROOF
    assert verdict_of(raising(CertificateError("expired")))[0].startswith("rejected")
    assert verdict_of(raising(KeyError("x")))[0].startswith("error:KeyError")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_reaches_its_verdicts(workload):
    world = sim_world(workload)
    ops = {"issue": 3, "connect": 40, "revisit": 200}[workload]
    phase = run_phase(WORKLOADS[workload](world, 7), 120, max_ops=ops)
    assert phase.attempted == ops
    assert phase.failed == 0, phase.failures
    assert all(size[0] > 0 for size in phase.sizes)


def test_wrong_verdicts_are_counted_once_per_operation():
    world = sim_world("connect")
    # pretend the downgrade chain should be accepted: every connection to
    # it is now a wrong verdict
    world.chains["downgrade"].verdict = ACCEPT
    load = WORKLOADS["connect"](world, 5)
    phase = run_phase(load, 120, max_ops=120)
    wrong = sum("downgrade" in f for f in phase.failures)
    assert wrong == 2  # one in every third 20-connection deck
    assert phase.failed == wrong
    assert phase.failed / phase.attempted == pytest.approx(1 / 60)


def test_revocation_is_enforced_after_it_happens():
    world = sim_world("revisit")
    load = WORKLOADS["revisit"](world, 11)
    phase = run_phase(load, 120, max_ops=240)
    assert phase.failed == 0, phase.failures
    assert load.revoked
    assert load.cache.revocation_refused >= 1
    assert load.cache.expirations > 0


def test_issue_checks_the_issued_chain():
    world = sim_world("issue")
    load = WORKLOADS["issue"](world, 2)
    real = load.prover.obtain_certificate

    def wrong_key(acme, key, clock, **kw):
        with W.seeded_secrets(99):
            other = W.EcdsaPrivateKey.generate(W.TOY29)
        return real(acme, other, clock, **kw)

    load.prover.obtain_certificate = wrong_key
    phase = run_phase(load, 120, max_ops=2)
    assert phase.attempted == 2 and phase.failed == 2
    assert all("another key" in f for f in phase.failures)


def test_seeded_world_is_reproducible():
    a, b = W.World("simulation"), W.World("simulation")
    assert a.root_zsk_dnskey().to_bytes() == b.root_zsk_dnskey().to_bytes()
    assert a.ca.root_cert.to_der() == b.ca.root_cert.to_der()


class Sleeper(Workload):
    """Operations that only sleep, for the phase bookkeeping."""

    def __init__(self, seconds):
        super().__init__(None, 0)
        self.seconds = seconds

    def ops(self):
        while True:
            yield Op("sleep", lambda: time.sleep(self.seconds), ACCEPT)


def test_phase_runs_min_ops():
    phase = run_phase(Sleeper(0.01), 0)
    assert phase.attempted == MIN_OPS and phase.failed == 0
    assert phase.norm_latencies != phase.latencies


def test_host_meter_samples_inside_long_intervals_only():
    meter = HostMeter()
    meter.time(lambda: time.sleep(SAMPLE_EVERY_S / 10))
    assert meter.inside == []
    _, long, norm = meter.time(lambda: time.sleep(2.2 * SAMPLE_EVERY_S))
    assert len(meter.inside) == 2
    # the kernel's own time is left out of the interval
    assert long == pytest.approx(2.2 * SAMPLE_EVERY_S - sum(meter.inside),
                                 abs=0.05)
    assert norm > 0


def test_tracer_leaves_sampling_out_of_layer_self_time():
    tracer = layers.Tracer()
    meter = HostMeter()
    meter.on_sample = tracer.exclude
    busy = tracer.wrap("busy", lambda: time.sleep(2.2 * SAMPLE_EVERY_S))
    _, latency, _ = meter.time(lambda: tracer.call(busy))
    spans = tracer.sinks["op"]
    self_time = spans["busy"][1] + spans[layers.OP][1]
    assert self_time == pytest.approx(latency, abs=1e-3)
