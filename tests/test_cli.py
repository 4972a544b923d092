import json
from pathlib import Path

import numpy as np
import pytest

import lpslice.cli as cli
import lpslice.instances as instances
from lpslice.cli import CSV_HEADER, main
from lpslice.learner import certificate_bound
from lpslice.lp_core import VertexStart, load_json


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_gen_is_idempotent(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--preset", "example1", "--out", str(a)]) == 0
    assert main(["gen", "--preset", "example1", "--out", str(b)]) == 0
    fa, fb = a / "example1-s0.json", b / "example1-s0.json"
    assert fa.read_bytes() == fb.read_bytes()
    out = capsys.readouterr().out
    assert out.count("sha256=") == 2
    shas = [line.split("sha256=")[1].rstrip(")\n") for line in out.strip().split("\n")]
    assert shas[0] == shas[1]


def test_learn_known_prior_writes_model_and_certificate(tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["learn", "--preset", "example1", "--known-prior", "--n1", "50", "--out", str(out)]
    )
    assert rc == 0
    model = read_json(out / "model.json")
    assert len(model["U"]) == 1  # stored column-major: rank one
    assert len(model["U"][0]) == 2
    trace = read_json(out / "trace.json")
    # the labels come from the command, not from learn
    assert model["provenance"] == {"hard_indices": trace["hard"], "instance": "example1-s0", "seed": 0}
    assert trace["anchor_provenance"] == "known c0"
    cert = read_json(out / "certificate.json")
    assert cert["mode"] == "known"
    assert cert["n1"] == 50
    assert cert["t"] == len(trace["hard"])
    expect = certificate_bound(50, cert["t"], cert["delta1"]).lower_bound
    assert cert["bound"] == pytest.approx(expect, abs=0)
    assert "composite" not in cert
    assert not (out / "prior.json").exists()


def test_learn_with_no_training_costs(tmp_path):
    out = tmp_path / "run"
    rc = main(["learn", "--preset", "example1", "--known-prior", "--n1", "0", "--out", str(out)])
    assert rc == 0
    model = read_json(out / "model.json")
    assert model["U"] == []
    cert = read_json(out / "certificate.json")
    assert cert["bound"] == 0.0 and cert["t"] == 0


def test_learn_rerun_reproduces_model_bitwise(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        main(["learn", "--preset", "example1", "--known-prior", "--n1", "25", "--out", str(out)])
        outs.append((out / "model.json").read_bytes())
    assert outs[0] == outs[1]


def test_learn_estimated_mode_writes_prior_and_composite(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "learn", "--preset", "example1", "--n1", "10",
            "--m-fit", "20", "--m-cal", "40", "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "prior.json").exists()
    trace = read_json(out / "trace.json")
    assert trace["anchor_provenance"] == "estimated prior mean"
    assert read_json(out / "model.json")["provenance"] == {"hard_indices": trace["hard"], "instance": "example1-s0", "seed": 0}
    cert = read_json(out / "certificate.json")
    assert cert["mode"] == "estimated"
    assert 0.0 <= cert["composite"] <= cert["bound"]


def test_solve_through_model(tmp_path, monkeypatch):
    out = tmp_path / "run"
    main(["learn", "--preset", "example1", "--known-prior", "--n1", "50", "--out", str(out)])
    # model.json stores no start: the model read back factors its anchor
    # basis once, for the command's check and serve together (the serve
    # start is on the rank-1 reduced LP)
    dims = []
    real = VertexStart.at
    monkeypatch.setattr(VertexStart, "at", lambda q, x: dims.append(q.d) or real(q, x))
    rc = main(
        [
            "solve", "--preset", "example1", "--model", str(out / "model.json"),
            "--cost", "[-1.2, 0.4]", "--out", str(out),
        ]
    )
    assert rc == 0
    sol = read_json(out / "solution.json")
    assert sol["full_status"] == "optimal"
    assert sol["full_value"] == pytest.approx(-1.6, abs=1e-12)
    assert sol["reduced_value"] == pytest.approx(-1.6, abs=1e-9)
    assert sol["exact"] is True
    assert dims.count(2) == 1 and dims.count(1) == 1


def test_solve_from_test_stream(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--preset", "example1", "--test-index", "3", "--out", str(out)])
    assert rc == 0
    sol = read_json(out / "solution.json")
    assert sol["full_status"] == "optimal"
    assert "reduced_value" not in sol


def test_calibrate_writes_prior(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "calibrate", "--preset", "example1", "--m-fit", "30",
            "--m-cal", "60", "--out", str(out),
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out
    assert line.startswith("calibrated prior: m=60")
    prior = load_json(out / "prior.json")
    assert prior["m"] == 60
    assert np.isfinite(prior["threshold"])


def test_oracle_small_instance(capsys):
    rc = main(["oracle", "--preset", "example1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vertices: 4" in out
    assert "reachable: 2" in out
    assert "d_star: 1" in out


def test_oracle_refuses_large_instance(capsys):
    rc = main(["oracle", "--preset", "maxflow-small"])
    assert rc == 2
    assert "oracle refused" in capsys.readouterr().err


def test_missing_instance_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="no instance"):
        main(["solve", "--out", str(tmp_path)])


BENCH_ARGS = [
    "bench", "--preset", "example1", "--known-prior", "--n1", "12",
    "--n-test", "25", "--seed", "0",
]


def _bench_config(tmp_path: Path) -> Path:
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"n1_grid": [4, 8], "methods": ["ours", "random", "pca", "full"]}))
    return cfg


def test_bench_outputs_and_parallel_determinism(tmp_path):
    cfgp = _bench_config(tmp_path)
    hashes = []
    for name, jobs in (("j1", "1"), ("j1b", "1"), ("j2", "2")):
        out = tmp_path / name
        rc = main(BENCH_ARGS + ["--config", str(cfgp), "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        summary = read_json(out / "summary.json")
        hashes.append(summary["csv_sha256_stable"])
    assert hashes[0] == hashes[1] == hashes[2]

    out = tmp_path / "j1"
    csv_lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert csv_lines[0] == CSV_HEADER
    # stage a cell plus two sample-sweep cells, four methods each
    assert len(csv_lines) == 1 + 3 * 4
    rows = [dict(zip(CSV_HEADER.split(","), ln.split(","))) for ln in csv_lines[1:]]
    for r in rows:
        if r["method"] == "full":
            assert float(r["obj_ratio"]) == 1.0 and float(r["exact"]) == 1.0
        if r["method"] == "ours":
            assert r["cert_lb"] != ""
    summary = read_json(out / "summary.json")
    growth = summary["rank_growth"]
    assert growth == sorted(growth)
    assert summary["mode"] == "known"
    assert summary["rho_sweep"] == []
    assert [s["n1"] for s in summary["sample_sweep"]] == [4, 8]
    assert (out / "run_manifest.json").exists()


def test_bench_config_file_can_set_known_prior(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "preset": "example1",
                "known_prior": True,
                "n1": 6,
                "n_test": 10,
                "n1_grid": [4],
                "methods": ["ours", "full"],
            }
        )
    )
    out = tmp_path / "run"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert read_json(out / "summary.json")["mode"] == "known"


# csv_sha256_stable of `bench --preset example1` with the default config
EXAMPLE1_DEFAULT_HASH = "d6fd4f7b07c1e8a7a7e622b471a5050b6dc505be20d188c848f6c65b20b92c59"
# the same for grid-4, the degenerate preset (integer ties make optimal
# faces that are not vertices): pricing changes must keep its bits too
GRID4_DEFAULT_HASH = "49e0678603d85490555a1be9f0a3cccaa65223bffe0ab07683b68d41af94db2e"


def test_bench_learns_each_stream_once(tmp_path, monkeypatch):
    # the default config: 150 test costs, the main stream, a rho grid that
    # holds the configured rho, and four n1 prefixes
    calls = {"cold_solve": 0, "learn": 0, "make_anchor": 0, "instance_from_json": 0}

    def count(mod, name, key, cold_only=False):
        real = getattr(mod, name, None)

        def counted(*args, **kwargs):
            if not (cold_only and kwargs.get("start") is not None):
                calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted, raising=False)

    count(cli, "solve_lp", "cold_solve", cold_only=True)
    count(cli, "learn", "learn")
    count(cli, "make_anchor", "make_anchor")
    for mod in (cli, instances):
        count(mod, "instance_from_json", "instance_from_json")
    out = tmp_path / "run"
    assert main(["bench", "--preset", "example1", "--jobs", "1", "--out", str(out)]) == 0
    # cold solves of the test costs only: PCA reads learn's own optima
    # one anchor; the main stream, rho = 0.05 and 0.3, and four prefixes
    assert calls == {"cold_solve": 150, "learn": 7, "make_anchor": 1, "instance_from_json": 0}
    assert read_json(out / "summary.json")["csv_sha256_stable"] == EXAMPLE1_DEFAULT_HASH


def test_bench_example1_default_hash_at_two_jobs(tmp_path):
    out = tmp_path / "run"
    assert main(["bench", "--preset", "example1", "--jobs", "2", "--out", str(out)]) == 0
    assert read_json(out / "summary.json")["csv_sha256_stable"] == EXAMPLE1_DEFAULT_HASH


def test_bench_grid4_default_hash(tmp_path):
    out = tmp_path / "run"
    assert main(["bench", "--preset", "grid-4", "--jobs", "1", "--out", str(out)]) == 0
    assert read_json(out / "summary.json")["csv_sha256_stable"] == GRID4_DEFAULT_HASH
