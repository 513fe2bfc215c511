"""The benchmark's own checks, at tiny problem sizes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Every workload is shrunk to a few small tilings so the whole
file takes seconds; the code paths are the full benchmark's.
"""

import json
import os

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer
from workloads import RunConfig

from repro.artifacts import ArtifactCache
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.tiling.transform import TilingTransformation

TINY_GRIDS = (
    ("sor", (10, 20), (2, 3, None), (4,)),
    ("jacobi", (6, 12, 12), (None, 4, 4), (2,)),
    ("adi", (8, 16), (None, 4, 4), (2,)),
)
TINY_RUNS = {
    "sor_native": RunConfig("sor", (10, 20), "nonrect", (2, 3, 4),
                            native=True, workers=0),
    "adi_parallel": RunConfig("adi", (8, 16), "nr1", (2, 4, 4),
                              native=False, workers=2),
}
ALL = ("paper_sweep", "sor_native", "adi_parallel")


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "ANCHOR_GRIDS", TINY_GRIDS)
    monkeypatch.setattr(workloads, "RUN_CONFIGS", TINY_RUNS)
    monkeypatch.setattr(run, "CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "5",
                     "--seconds", "0.05", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def needs_workers(workload):
    if workload == "adi_parallel" and (os.cpu_count() or 1) < 2:
        pytest.skip("adi_parallel needs two CPUs")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    needs_workers(workload)
    code, text, result = bench(capsys, workload, trace)
    assert code == 0, text
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[2] == m["unit"] for line in text)
        if not trace:
            assert got["value"] > 0, m["name"]
    assert any(line.split()[0] == "fail_frac" for line in text)


def test_sweep_counts_are_exact_per_seed(capsys):
    _, _, first = bench(capsys, "paper_sweep", trace=1)
    _, _, again = bench(capsys, "paper_sweep", trace=1)
    for name in ("tiling.tiles", "runtime.sim_messages",
                 "runtime.sim_elements", "artifacts.bytes"):
        assert first["metrics"][name] == again["metrics"][name]


def test_corrupted_execution_is_counted(capsys, monkeypatch):
    execute_dense = DistributedRun.execute_dense

    def corrupt(self, *args, **kwargs):
        fields, stats = execute_dense(self, *args, **kwargs)
        first = tuple(ax[0] for ax in np.nonzero(fields["A"].written))
        fields["A"].values[first] += 1.0
        return fields, stats

    monkeypatch.setattr(DistributedRun, "execute_dense", corrupt)
    code, text, result = bench(capsys, "sor_native")
    assert code == 1
    assert not result["correct"]
    # Every execution fails; only the cost-certificate check passes.
    assert result["failed"] == result["attempted"] - 1
    frac = [line for line in text if line.split()[0] == "fail_frac"]
    assert float(frac[0].split()[1]) > 0
    assert any("max |diff|" in line for line in text)


def test_failed_warm_load_is_counted(capsys, monkeypatch):
    monkeypatch.setattr(ArtifactCache, "load", lambda *a, **k: None)
    code, text, result = bench(capsys, "paper_sweep")
    # get_or_compile goes through load too: every cold point still
    # compiles (a miss), every warm load fails.
    assert code == 1
    assert result["failed"] == result["attempted"] // 2


def test_raising_operation_is_counted_not_fatal(capsys, monkeypatch):
    certify = TiledProgram.cost_certificate
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return certify(self, *args, **kwargs)

    monkeypatch.setattr(TiledProgram, "cost_certificate", flaky)
    code, text, result = bench(capsys, "paper_sweep")
    assert code == 1
    assert result["failed"] == 1
    assert any("injected" in line for line in text)


def test_native_fallback_is_a_skip_with_reason(capsys, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    code, text, result = bench(capsys, "sor_native")
    assert code == 3
    assert "metrics" not in result
    assert "native build fell back" in result["skipped"]["sor_native"]


def test_too_few_cpus_is_a_skip_with_reason(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, text, result = bench(capsys, "adi_parallel")
    assert code == 3
    assert "metrics" not in result
    assert "cpu_count()=1" in result["skipped"]["adi_parallel"]


def test_tracer_restores_every_layer(tmp_path):
    originals = {
        "init": TilingTransformation.__dict__["__init__"],
        "load": ArtifactCache.__dict__["load"],
        "simulate": DistributedRun.__dict__["simulate"],
    }
    tracer = Tracer()
    workloads.install_layers(tracer)
    assert ArtifactCache.__dict__["load"] is not originals["load"]
    tracer.close()
    assert TilingTransformation.__dict__["__init__"] is originals["init"]
    assert ArtifactCache.__dict__["load"] is originals["load"]
    assert DistributedRun.__dict__["simulate"] is originals["simulate"]


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer", op=True):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.spans
    self_ns = tracer.self_ns()
    assert self_ns["inner"] == inner[3] - inner[2]
    assert self_ns["outer"] == (outer[3] - outer[2]) - self_ns["inner"]
    assert outer[5] == inner[5] == 1 and inner[4] == outer[0]


def test_resource_tracker_is_stopped(capsys):
    from multiprocessing import resource_tracker
    needs_workers("adi_parallel")
    code, _, _ = bench(capsys, "adi_parallel")
    assert code == 0
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None  # the shared-memory mailboxes started it
    run.stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)  # ended and reaped, not a zombie
