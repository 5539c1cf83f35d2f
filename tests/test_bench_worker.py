"""The benchmark's design_batch worker, unmodified, runs on this library.

`bench/worker.py` reads `fk_chain`'s poses, `FabricationPlan.joints` and
`DHChain.links`; a change to any of them fails its operations, and fails here
first.
"""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(BENCH)
    import worker

    return worker


def test_design_batch_worker_runs_on_the_bundled_inputs(worker, data_dir, tmp_path):
    inputs = {"chain": {"type": "chain", "method": "tape",
                        "path": os.path.join(data_dir, "chain_threebend.json")},
              "waypoints": {"type": "waypoints", "method": "loop", "radius": 16.5,
                            "path": os.path.join(data_dir, "path_waypoints.csv")}}
    batch = worker.DesignBatch({"warmup": list(inputs), "inputs": inputs}, "run", str(tmp_path))
    batch.warmup()
    for index, key in enumerate(inputs):
        ok, elapsed, digest = batch.op(index, key)
        assert ok is True and elapsed > 0.0 and len(digest) == 64
    assert list(batch.records) == list(inputs)
    json.dumps(batch.records)
