import json
from pathlib import Path

import numpy as np

import layers
import run
import satpath
from satpath import ExplorerPolicy, StrategyProfile, generate_random_game, paths, solver
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_traced_calls_report_every_layer_and_leave_outputs_unchanged(tmp_path):
    game = generate_random_game(3, (2, 3, 2), 11)
    start = StrategyProfile.pure(game, (0, 0, 0))
    plain = satpath.construct_path(game, start, 1e-9)
    rows = satpath.batch_experiment([game], 3, explorer=ExplorerPolicy("pure_uniform"), max_steps=50)

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = satpath.construct_path(game, start, 1e-9)
        traced_rows = satpath.batch_experiment(
            [game], 3, explorer=ExplorerPolicy("pure_uniform"), max_steps=50
        )
        assert satpath.cli.run(["gen", "--players", "2", "--actions", "2,2",
                                "--out", str(tmp_path / "g.json")]) == 0
    finally:
        tracer.close()
    assert paths.find_nash is solver.find_nash
    assert [s.profile for s in traced.steps] == [s.profile for s in plain.steps]
    assert traced_rows == rows

    metrics = layers.layer_metrics(tracer.spans)
    assert set(metrics) == set(layers.PER_LAYER_UNITS) - {"trace.overhead_ratio"}
    assert metrics["paths.steps.case1_jump"] + metrics["paths.steps.case2_jump"] == 1
    assert metrics["solver.find_nash.calls"] >= 1
    assert metrics["dynamics.steps"] == sum(
        round(r["hits"] * r["mean_hit_step"]) + (r["trials"] - r["hits"]) * 50 if r["hits"]
        else r["trials"] * 50 for r in rows
    )
    assert metrics["cli.run_ms.gen"] > 0
    assert metrics["games.satisfaction_report.calls"] >= metrics["dynamics.steps"]
    assert np.isfinite(list(metrics.values())).all()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
