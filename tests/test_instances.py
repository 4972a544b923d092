import json

import numpy as np
import pytest

from lpslice import (
    CostMode,
    FeasibilityStatus,
    ParseError,
    Polytope,
    UnsupportedFeature,
    check_feasible_bounded,
    sample_costs,
    solve_lp,
)
from lpslice.instances import (
    CHECK_DIM_LIMIT,
    PRESETS,
    STREAM_PILOT,
    CostModel,
    GenerationError,
    cost_stream,
    gen_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    make_preset,
    parse_mps,
)
from lpslice.lp_core import normalize_to_inequality_form
from lpslice.oracle import enumerate_vertices


# ---------------------------------------------------------------------------
# presets and generators
# ---------------------------------------------------------------------------


def test_example1_preset_shape(example1):
    assert example1.d == 2
    assert np.allclose(example1.c0, [-1.25, 0.0])
    assert example1.cost_model.mode is CostMode.KNOWN_CLIPPED
    assert example1.polytope.meta["prior"]["shape"] == "box"
    assert example1.name == "example1-s0"


def test_example1_costs_stay_in_clip_ball(example1):
    C = sample_costs(example1, 10_000, seed=3)
    radii = np.linalg.norm(C - example1.c0, axis=1)
    assert float(radii.max()) <= 0.2 + 1e-12
    # the clipped model keeps every draw strictly inside the documented prior box
    assert np.all(C[:, 0] > -1.5) and np.all(C[:, 0] < -1.0)
    assert np.all(np.abs(C[:, 1]) < 1.0)


def test_packing_preset_dimensions_and_norm():
    inst = make_preset("packing-360")
    assert inst.d == 360
    assert float(np.linalg.norm(inst.c0)) == pytest.approx(42.344, rel=1e-9)
    assert float(inst.c0.min()) >= -4.069 - 1e-12
    assert float(inst.c0.max()) <= 0.0 + 1e-12


def test_grid_preset_dimension():
    inst = make_preset("grid-16")
    assert inst.d == 480  # 16x16 nodes, right and down arcs


def test_randomlp_tiny_is_well_posed():
    inst = make_preset("randomlp-tiny")
    assert inst.d == 3 and inst.polytope.m == 12
    assert check_feasible_bounded(inst.polytope) is FeasibilityStatus.FEASIBLE_BOUNDED
    assert len(enumerate_vertices(inst.polytope)) == 14
    assert inst.provenance["seed"] == 0



@pytest.mark.parametrize("seed", range(6))
def test_randomlp_at_the_check_limit_generates(seed):
    # d = 40 runs check_feasible_bounded; its coordinate solves used to stop
    # on a false ray ("phase-one objective unbounded below zero") for seeds
    # 0-5.  The Stiemke test needs two LPs per seed, so all six run here.
    params = {**PRESETS["randomlp-a"]["params"], "d": 40, "rows": 40}
    assert gen_instance("randomlp", params, seed).polytope.A.shape == (120, 40)


def test_every_preset_above_the_check_limit_is_feasible_and_bounded():
    # gen_instance runs the Stiemke check only up to CHECK_DIM_LIMIT, so
    # every larger preset is classified here instead
    large = []
    for name in PRESETS:
        inst = make_preset(name)
        if inst.d > CHECK_DIM_LIMIT:
            large.append(name)
            assert check_feasible_bounded(inst.polytope) is FeasibilityStatus.FEASIBLE_BOUNDED, name
    assert "packing-360" in large and "grid-16" in large


def test_preset_generation_is_deterministic():
    a = make_preset("mincostflow-small", seed=5)
    b = make_preset("mincostflow-small", seed=5)
    assert instance_to_json(a) == instance_to_json(b)
    c = make_preset("mincostflow-small", seed=6)
    assert instance_to_json(a) != instance_to_json(c)


def test_unknown_preset_and_kind_raise():
    with pytest.raises(KeyError):
        make_preset("nope")
    with pytest.raises(GenerationError):
        gen_instance("nope", {}, seed=0)


def test_network_vertices_are_integral():
    for name in ("mincostflow-small", "grid-4"):
        inst = make_preset(name)
        for k in range(3):
            c = sample_costs(inst, 1, seed=k)[0]
            r = solve_lp(inst.polytope, c)
            assert r.status.value == "optimal"
            assert np.max(np.abs(r.x - np.round(r.x))) < 1e-6


# ---------------------------------------------------------------------------
# cost models and sampling
# ---------------------------------------------------------------------------


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(mode=CostMode.KNOWN_CLIPPED, U_c=np.eye(2), sigmas=np.array([0.1, -0.2]), clip_radius=1.0)
    with pytest.raises(ValueError):
        CostModel(mode=CostMode.KNOWN_CLIPPED, U_c=np.eye(2), sigmas=np.array([0.1, 0.2]), clip_radius=None)
    with pytest.raises(ValueError):
        skew = np.array([[1.0, 0.5], [0.0, 1.0]])
        CostModel(mode=CostMode.UNKNOWN_FACTOR, U_c=skew, sigmas=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CostModel(mode=CostMode.UNKNOWN_AMBIENT, eta=0.0)


def test_zero_spread_cost_model_returns_anchor_exactly():
    params = {
        "d": 2,
        "cost": {"mode": "known_clipped", "c0": [-1.0, 0.25], "U_c": "identity", "sigmas": [0.0, 0.0], "R": 0.0},
    }
    inst = gen_instance("square", params, seed=1)
    C = sample_costs(inst, 50, seed=9)
    assert np.array_equal(C, np.tile(inst.c0, (50, 1)))


def test_factor_mode_samples_live_in_the_factor_subspace():
    params = {
        "rows": 4,
        "cols": 4,
        "cost": {"mode": "unknown_factor", "c0_range": [-9.0, -1.0], "r_c": 4, "alpha": 0.7, "beta": 0.9, "R": 0.25},
    }
    inst = gen_instance("shortestpathgrid", params, seed=2)
    U = inst.cost_model.U_c
    P = U @ U.T
    C = sample_costs(inst, 40, seed=4)
    W = C - inst.c0
    assert np.max(np.abs(W - W @ P.T)) < 1e-9


def test_sample_costs_prefix_stability(example1):
    full = sample_costs(example1, 10, seed=11)
    head = sample_costs(example1, 4, seed=11)
    tail = sample_costs(example1, 6, seed=11, start=4)
    assert np.array_equal(full[:4], head)
    assert np.array_equal(full[4:], tail)
    # separate streams give separate sequences
    other = sample_costs(example1, 10, seed=11, stream=STREAM_PILOT)
    assert not np.array_equal(full, other)


def test_cost_stream_matches_indexed_sampling(example1):
    gen = cost_stream(example1, seed=11, chunk=3)
    got = np.array([next(gen) for _ in range(8)])
    assert np.array_equal(got, sample_costs(example1, 8, seed=11))


# ---------------------------------------------------------------------------
# MPS parsing
# ---------------------------------------------------------------------------

BASIC_MPS = """\
NAME          TESTLP
ROWS
 N  COST
 L  CAP
 G  FLOOR
COLUMNS
    X1        COST      1.0        CAP       1.0
    X1        FLOOR     1.0
    X2        COST      2.0        CAP       1.0
RHS
    RHS1      CAP       10.0       FLOOR     2.0
BOUNDS
 UP BND1      X1        8.0
ENDATA
"""


def test_parse_mps_basic_and_solve():
    g = parse_mps(BASIC_MPS)
    assert g.name == "TESTLP"
    assert g.sense == "min"
    assert g.col_names == ("X1", "X2")
    assert g.rel == ("<=", ">=")
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    r = solve_lp(poly, c)
    # min x1 + 2 x2 with x1 >= 2 and everything else slack
    assert vmap.original_value(r.value) == pytest.approx(2.0)
    assert np.allclose(vmap.original_solution(r.x), [2.0, 0.0], atol=1e-9)


def test_parse_mps_ranges_widen_rows():
    text = """\
NAME
ROWS
 N  OBJ
 L  CAP
COLUMNS
    X         OBJ       1.0        CAP       1.0
RHS
    R         CAP       10.0
RANGES
    R         CAP       4.0
ENDATA
"""
    g = parse_mps(text)
    assert "CAP__rng" in g.row_names
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    r = solve_lp(poly, c)
    # the range turns x <= 10 into 6 <= x <= 10
    assert vmap.original_value(r.value) == pytest.approx(6.0)


def test_parse_mps_objective_rhs_becomes_constant():
    text = BASIC_MPS.replace("    RHS1      CAP       10.0       FLOOR     2.0",
                             "    RHS1      CAP       10.0       FLOOR     2.0\n    RHS1      COST      -5.0")
    g = parse_mps(text)
    assert g.obj_constant == pytest.approx(5.0)
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    r = solve_lp(poly, c)
    assert vmap.original_value(r.value) == pytest.approx(7.0)  # 2 + 5


def test_parse_mps_missing_endata():
    with pytest.raises(ParseError):
        parse_mps(BASIC_MPS.replace("ENDATA\n", ""))


def test_parse_mps_unsupported_sections_and_markers():
    with pytest.raises(UnsupportedFeature):
        parse_mps("OBJSENSE\n    MAX\n" + BASIC_MPS)
    marker = BASIC_MPS.replace(
        "COLUMNS\n",
        "COLUMNS\n    M1        'MARKER'        'INTORG'\n",
    )
    with pytest.raises(UnsupportedFeature):
        parse_mps(marker)
    bv = BASIC_MPS.replace(" UP BND1      X1        8.0", " BV BND1      X1")
    with pytest.raises(UnsupportedFeature):
        parse_mps(bv)


def test_parse_mps_negative_upper_bound_frees_below():
    text = """\
NAME
ROWS
 N  OBJ
 G  FLOOR
COLUMNS
    X         OBJ       1.0        FLOOR     1.0
RHS
    R         FLOOR     -5.0
BOUNDS
 UP B         X         -1.0
ENDATA
"""
    g = parse_mps(text)
    assert g.lo[0] == -np.inf
    assert g.hi[0] == pytest.approx(-1.0)
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    r = solve_lp(poly, c)
    assert vmap.original_value(r.value) == pytest.approx(-5.0)


def test_parse_mps_second_rhs_set_is_ignored():
    text = BASIC_MPS.replace("    RHS1      CAP       10.0       FLOOR     2.0",
                             "    RHS1      CAP       10.0       FLOOR     2.0\n    RHS2      FLOOR     4.0")
    g = parse_mps(text)
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    r = solve_lp(poly, c)
    assert vmap.original_value(r.value) == pytest.approx(2.0)


def test_parse_mps_malformed_inputs():
    with pytest.raises(ParseError):
        parse_mps("ROWS\n N  OBJ\n N  OBJ\nENDATA\n")  # duplicate name
    with pytest.raises(ParseError):
        parse_mps("    X  OBJ  1.0\nENDATA\n")  # data before any section
    with pytest.raises(ParseError):
        parse_mps(BASIC_MPS.replace("CAP       1.0", "TYPO      1.0"))
    with pytest.raises(ParseError):
        parse_mps("NAME\nROWS\n N  OBJ\nCOLUMNS\nRHS\nENDATA\n")  # no columns


# ---------------------------------------------------------------------------
# load_instance and serialization
# ---------------------------------------------------------------------------


def test_instance_json_round_trip(example1, tmp_path):
    doc = instance_to_json(example1)
    inst2 = instance_from_json(doc)
    assert np.array_equal(inst2.polytope.A, example1.polytope.A)
    assert np.array_equal(inst2.c0, example1.c0)
    assert inst2.cost_model.mode is example1.cost_model.mode
    assert np.array_equal(sample_costs(inst2, 5, 0), sample_costs(example1, 5, 0))
    assert instance_to_json(inst2) == doc


def test_load_instance_json_file(example1, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(example1)))
    inst = load_instance(path)
    assert inst.name == example1.name
    assert np.array_equal(inst.polytope.b, example1.polytope.b)


def test_load_instance_mps_with_cost_preset(tmp_path):
    path = tmp_path / "toy.mps"
    path.write_text(BASIC_MPS)
    inst = load_instance(path, cost_config={"preset": "sc205", "r_c": 2, "seed": 4})
    assert inst.kind == "mps"
    # the override reaches the model; the provenance echoes the published table
    assert inst.cost_model.r_c == 2
    assert inst.provenance["cost_preset"] == "sc205"
    assert inst.provenance["cost_preset_config"]["r_c"] == 20
    # normalization bookkeeping is echoed so values can be mapped back
    assert "sense_sign" in inst.provenance and "value_offset" in inst.provenance
    C = sample_costs(inst, 4, seed=1)
    assert C.shape == (4, inst.d)


def test_load_instance_mps_requires_cost_config(tmp_path):
    path = tmp_path / "toy2.mps"
    path.write_text(BASIC_MPS)
    with pytest.raises(ValueError):
        load_instance(path)
    # without an explicit c0 the parsed objective is used as the anchor cost
    inst = load_instance(path, cost_config={"r_c": 1, "alpha": 0.7, "beta": 0.9, "R": 0.1})
    poly, c, offset, vmap = normalize_to_inequality_form(parse_mps(BASIC_MPS))
    assert np.allclose(inst.c0, c)
