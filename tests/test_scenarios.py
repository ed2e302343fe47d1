import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stodesign.fem import GridSpec, cell_centers
from stodesign.scenarios import (
    Scenario,
    ScenarioSet,
    center_square_mask,
    load_scenario_file,
    make_case1,
    make_case2,
    make_deterministic,
    save_scenario_file,
    validate,
)
from stodesign.solve import load_basis

from oracles import property_settings


def test_deterministic_set():
    g = GridSpec(8, 8)
    sset = make_deterministic(g, np.ones(g.n_cells))
    assert len(sset.scenarios) == 1
    assert sset.scenarios[0].weight == 1.0
    assert np.all(sset.scenarios[0].xi == 0.0)
    assert validate(sset) == []


def test_case1_support_and_weights():
    g = GridSpec(8, 8)
    sset = make_case1(g)
    assert [s.weight for s in sset.scenarios] == [0.5, 0.5]
    xi = sset.scenarios[0].xi
    assert np.count_nonzero(xi) == 16  # the 4x4 center block
    assert set(np.unique(xi)) == {0.0, 1.0}
    mean = 0.5 * sset.scenarios[0].xi + 0.5 * sset.scenarios[1].xi
    assert np.max(np.abs(mean)) == 0.0


def test_case2_complement():
    g = GridSpec(8, 8)
    s1 = make_case1(g)
    s2 = make_case2(g)
    assert np.count_nonzero(s2.scenarios[0].xi) == 48
    sup1 = s1.scenarios[0].xi != 0.0
    sup2 = s2.scenarios[0].xi != 0.0
    assert not np.any(sup1 & sup2)
    assert np.all(sup1 | sup2)


def test_case_masks_on_nonaligned_grid():
    # centers decide membership, no error on grids not aligned with the block
    g = GridSpec(10, 10)
    mask = center_square_mask(g)
    c = cell_centers(g)
    inside = (c[:, 0] >= 0.25) & (c[:, 0] <= 0.75) & (c[:, 1] >= 0.25) & (c[:, 1] <= 0.75)
    assert np.array_equal(mask, inside)
    assert validate(make_case1(g)) == []


def test_builtin_zero_mean_tight():
    for g in (GridSpec(8, 8), GridSpec(32, 32), GridSpec(13, 13)):
        for sset in (make_case1(g), make_case2(g)):
            mean = np.zeros(g.n_cells)
            for s in sset.scenarios:
                mean += s.weight * s.xi
            assert np.max(np.abs(mean)) <= 1e-12
            assert abs(sum(s.weight for s in sset.scenarios) - 1.0) <= 1e-12


def test_validate_reports_zero_mean_violation():
    g = GridSpec(4, 4)
    xi = np.zeros(g.n_cells)
    xi[3] = 1.0
    sset = ScenarioSet(g, np.ones(g.n_cells), [Scenario(xi, 1.0)])
    problems = validate(sset)
    assert len(problems) == 1
    assert "mean" in problems[0]


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_validate_zero_mean_is_relative_to_the_perturbations(scale):
    # xi_3 = -(xi_1 + xi_2) at weight 1/3 each: the mean is rounding alone,
    # of the size of the perturbations' last bits
    g = GridSpec(8, 8)
    xi1, xi2 = np.random.default_rng(9).standard_normal((2, g.n_cells))
    xis = [scale * xi for xi in (xi1, xi2, -(xi1 + xi2))]
    sset = ScenarioSet(g, np.ones(g.n_cells), [Scenario(xi, 1.0 / 3.0) for xi in xis])
    assert validate(sset) == []


def test_validate_rejects_a_tiny_nonzero_mean():
    g = GridSpec(4, 4)
    xi = np.zeros(g.n_cells)
    xi[3] = 1e-15
    problems = validate(ScenarioSet(g, np.ones(g.n_cells), [Scenario(xi, 1.0)]))
    assert problems == [
        "perturbation mean reaches 1.000e-15, expected 0 within 1e-12 of the largest perturbation"
    ]


def test_validate_reports_weight_violation():
    g = GridSpec(4, 4)
    z = np.zeros(g.n_cells)
    sset = ScenarioSet(g, np.ones(g.n_cells), [Scenario(z, 0.6), Scenario(z, 0.6)])
    problems = validate(sset)
    assert len(problems) == 1
    assert "weights" in problems[0]


def test_validate_reports_non_finite_values():
    g = GridSpec(4, 4)
    f = np.ones(g.n_cells)
    f[5] = np.nan
    xi = np.zeros(g.n_cells)
    xi[2] = np.inf
    sset = ScenarioSet(g, f, [Scenario(np.zeros(g.n_cells), 0.5), Scenario(xi, 0.5)])
    problems = validate(sset)
    assert any("f holds non-finite" in p for p in problems)
    assert any("scenario 1 holds non-finite" in p for p in problems)


def test_set_shapes_must_match_the_grid():
    g = GridSpec(4, 4)
    with pytest.raises(ValueError, match="f must hold one real per cell"):
        ScenarioSet(g, np.ones(g.n_cells - 1))
    with pytest.raises(ValueError, match="scenario field size does not match the grid"):
        ScenarioSet(g, np.ones(g.n_cells), [Scenario(np.zeros(g.n_cells + 1), 1.0)])


def test_validate_reports_empty_set():
    g = GridSpec(4, 4)
    assert validate(ScenarioSet(g, np.ones(g.n_cells))) == ["scenario set is empty"]


def test_file_rejects_non_finite_load(tmp_path):
    sset = make_case1(GridSpec(4, 4))
    sset.f[7] = np.nan
    path = tmp_path / "nan.scn"
    save_scenario_file(sset, path)
    with pytest.raises(ValueError, match="non-finite"):
        load_scenario_file(path)


# a valid 2x2 set; each case below edits one line of it
SMALL_FILE = """# two scenarios on a 2x2 grid
grid 2 2
f
1 1
1 1
scenario 0.5
1 -1
0 0
scenario 0.5
-1 1
0 0
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("0 0\nscenario", "0 abc\nscenario", ":8: could not convert string to float: 'abc'"),
        ("grid 2 2", "grid two 2", ":2: invalid literal for int() with base 10: 'two'"),
        ("grid 2 2", "grid 1 2", ":2: grid needs at least 2 cells per direction"),
        ("grid 2 2", "gird 2 2", ":2: scenario file must start with 'grid', got 'gird'"),
        ("f\n", "g\n", ":3: expected 'f' section after the grid line"),
        ("scenario 0.5\n-1", "scenario 2.0\n-1", ":9: scenario weight must lie in (0, 1], got 2.0"),
        ("0 0\nscenario", "0 0\nweight", ":9: expected 'scenario <weight>' section"),
    ],
    ids=["bad-value", "bad-int", "small-grid", "no-grid", "no-f", "weight", "no-scenario"],
)
def test_file_errors_name_file_and_line(tmp_path, old, new, message):
    path = tmp_path / "set.scn"
    path.write_text(SMALL_FILE)
    assert len(load_scenario_file(path).scenarios) == 2
    path.write_text(SMALL_FILE.replace(old, new, 1))
    with pytest.raises(ValueError) as info:
        load_scenario_file(path)
    assert str(info.value) == f"{path}{message}"


# SMALL_FILE laid out in other ways: the same set, or the same error at the same line
@pytest.mark.parametrize(
    "text",
    [
        "grid 2 2\nf\n1\n1 1\n1\nscenario 0.5\n1 -1 0\n0\nscenario 0.5\n-1\n1 0 0\n",
        "grid 2 2 f 1 1 1 1\nscenario 0.5 1 -1 0 0\nscenario 0.5 -1 1 0 0",
        SMALL_FILE.replace("\n", "\r\n"),
        SMALL_FILE.replace("\n", "\r"),
    ],
    ids=["split-rows", "header-and-values", "crlf", "cr"],
)
def test_file_layouts_load_the_same_set(tmp_path, text):
    path = tmp_path / "set.scn"
    path.write_bytes(text.encode())
    sset = load_scenario_file(path)
    assert sset.grid == GridSpec(2, 2)
    assert sset.f.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert [s.weight for s in sset.scenarios] == [0.5, 0.5]
    assert [s.xi.tolist() for s in sset.scenarios] == [[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0]]


ENDED = "scenario file {path} ended unexpectedly"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            SMALL_FILE.replace("0 0\nscenario", "0 abc\nscenario").replace("\n", "\r\n"),
            "{path}:8: could not convert string to float: 'abc'",
        ),
        (
            SMALL_FILE.replace("0 0\nscenario", "0 abc\nscenario").replace("\n", "\r"),
            "{path}:8: could not convert string to float: 'abc'",
        ),
        # a form feed ends a line, and with it a comment, as str.splitlines() has it
        (
            SMALL_FILE.replace("grid\ngrid 2 2", "grid\fgrid two 2"),
            "{path}:2: invalid literal for int() with base 10: 'two'",
        ),
        # running out of values outranks a bad value in the same section
        (SMALL_FILE.replace("-1 1\n0 0\n", "-1 abc\n"), ENDED),
        # a bad grid names the line of nx, even when ny is the bad one
        (
            SMALL_FILE.replace("grid 2 2", "grid\n2\n1"),
            "{path}:3: grid needs at least 2 cells per direction",
        ),
        (
            SMALL_FILE.replace("grid 2 2", "grid\n2\ntwo"),
            "{path}:4: invalid literal for int() with base 10: 'two'",
        ),
        # far more cells than the file could hold values for
        ("grid 1000000 1000000\nf\n1 1\n", ENDED),
        (SMALL_FILE[: SMALL_FILE.index("scenario 0.5")], "scenario file {path} declares no scenarios"),
    ],
    ids=["crlf", "cr", "form-feed", "truncated-and-bad", "bad-ny", "bad-ny-token", "huge-grid", "no-scenario"],
)
def test_file_layout_errors(tmp_path, text, message):
    path = tmp_path / "set.scn"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        load_scenario_file(path)
    assert str(info.value) == message.format(path=path)


def test_file_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "set.scn"
    path.write_bytes(b"grid 2 2\nf\n1 1 1 \xc2\n")
    with pytest.raises(ValueError) as info:
        load_scenario_file(path)
    assert str(info.value) == (
        f"{path}:3: 'utf-8' codec can't decode byte 0xc2 in position 6: unexpected end of data"
    )
    # text reads decode 8 KB ahead: a bad byte far into a file still names its line
    save_scenario_file(make_case1(GridSpec(64, 64)), path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(b"".join(lines[:107])) > 8192
    lines[107] = b"\xc2" + lines[107][1:]
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError) as info:
        load_scenario_file(path)
    assert str(info.value) == (
        f"{path}:108: 'utf-8' codec can't decode byte 0xc2 in position 0: invalid continuation byte"
    )


def test_file_load_peak_memory_near_its_arrays(tmp_path):
    # 64^2 cells, K = 16 full-precision values in (+xi, -xi) pairs: zero mean exactly
    g = GridSpec(64, 64)
    rng = np.random.default_rng(0)
    scenarios = []
    for _ in range(8):
        xi = rng.standard_normal(g.n_cells)
        scenarios += [Scenario(xi, 1 / 16), Scenario(-xi, 1 / 16)]
    sset = ScenarioSet(g, rng.standard_normal(g.n_cells), scenarios)
    path = tmp_path / "big.scn"
    save_scenario_file(sset, path)
    tracemalloc.start()
    try:
        loaded = load_scenario_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.f, sset.f)
    assert peak <= 2 * 17 * g.n_cells * 8


def test_file_bytes(tmp_path):
    g = GridSpec(3, 2)
    f = np.array([-0.0, 1e-300, 1 / 3, 1.0, 2.5, -7.0])
    xi = np.array([1 / 3, -0.0, 1e-300, 0.0, 1.0, -1.0])
    path = tmp_path / "set.scn"
    save_scenario_file(ScenarioSet(g, f, [Scenario(xi, 1 / 3), Scenario(-xi, 2 / 3)]), path)
    assert path.read_bytes() == (
        b"grid 3 2\nf\n"
        b"-0.0 1e-300 0.3333333333333333\n1.0 2.5 -7.0\n"
        b"scenario 0.3333333333333333\n"
        b"0.3333333333333333 -0.0 1e-300\n0.0 1.0 -1.0\n"
        b"scenario 0.6666666666666666\n"
        b"-0.3333333333333333 0.0 -1e-300\n-0.0 -1.0 1.0\n"
    )


def test_scenario_weight_range_enforced():
    with pytest.raises(ValueError):
        Scenario(np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        Scenario(np.zeros(4), 1.5)


def test_file_round_trip(tmp_path):
    g = GridSpec(6, 4)
    sset = make_deterministic(g, np.linspace(0.0, 2.0, g.n_cells))
    xi = np.zeros(g.n_cells)
    xi[:4] = [1.0, -1.0, 2.0, -2.0]
    sset.scenarios = [Scenario(xi, 0.25), Scenario(-xi / 3.0, 0.75)]
    assert validate(sset) == []
    path = tmp_path / "set.scn"
    save_scenario_file(sset, path)
    loaded = load_scenario_file(path)
    assert loaded.grid == g
    assert np.array_equal(loaded.f, sset.f)
    assert [s.weight for s in loaded.scenarios] == [0.25, 0.75]
    for orig, back in zip(sset.scenarios, loaded.scenarios):
        assert np.allclose(orig.xi, back.xi, rtol=0, atol=1e-15)
    assert validate(loaded) == []


def test_file_rejects_biased_perturbation(tmp_path):
    g = GridSpec(4, 4)
    xi = np.ones(g.n_cells)
    sset = ScenarioSet(g, np.ones(g.n_cells), [Scenario(xi, 0.5), Scenario(-0.9 * xi, 0.5)])
    path = tmp_path / "bad.scn"
    save_scenario_file(sset, path)
    with pytest.raises(ValueError, match="mean"):
        load_scenario_file(path)


def test_file_recenters_roundtrip_noise(tmp_path):
    # a drift below the file tolerance is accepted and removed on load
    g = GridSpec(4, 4)
    xi = np.ones(g.n_cells)
    drift = 4e-10
    sset = ScenarioSet(
        g, np.ones(g.n_cells), [Scenario(xi + drift, 0.5), Scenario(-xi, 0.5)]
    )
    path = tmp_path / "noisy.scn"
    save_scenario_file(sset, path)
    loaded = load_scenario_file(path)
    assert validate(loaded) == []


def test_file_renormalizes_weights_within_tolerance(tmp_path):
    # three weights of 0.3333333333 sum to 1 - 1e-10, within the file
    # tolerance: they are rescaled to sum to 1, and the set passes load_basis
    g = GridSpec(4, 4)
    xi = np.ones(g.n_cells)
    w = 0.3333333333
    sset = ScenarioSet(
        g, np.ones(g.n_cells), [Scenario(xi, w), Scenario(-xi, w), Scenario(0.0 * xi, w)]
    )
    path = tmp_path / "thirds.scn"
    save_scenario_file(sset, path)
    loaded = load_scenario_file(path)
    assert [s.weight for s in loaded.scenarios] == [pytest.approx(1.0 / 3.0, rel=1e-15)] * 3
    assert validate(loaded) == []
    assert len(load_basis(loaded).loads) == 2


@st.composite
def exact_scenario_sets(draw):
    """Sets whose weights sum to exactly 1.0 and whose perturbation mean is exactly 0.

    Pair weights are dyadic (n_p / 2^m, summing to 1 in any order) and each
    pair is (+xi, -xi), so the loader has nothing to renormalize or recenter.
    """
    g = GridSpec(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    f = draw(arrays(float, g.n_cells, elements=finite))
    total = 2 ** draw(st.integers(0, 5))
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=3)) if total > 1 else set()
    bounds = [0, *sorted(cuts), total]
    scenarios = []
    for lo, hi in zip(bounds, bounds[1:]):
        xi = draw(arrays(float, g.n_cells, elements=finite))
        w = (hi - lo) / total / 2
        scenarios += [Scenario(xi, w), Scenario(-xi, w)]
    return ScenarioSet(g, f, scenarios)


@property_settings(30)
@given(exact_scenario_sets())
def test_file_round_trip_bitwise_property(sset):
    assert validate(sset) == []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.scn"
        save_scenario_file(sset, path)
        loaded = load_scenario_file(path)
    assert loaded.grid == sset.grid
    assert np.array_equal(loaded.f, sset.f)
    assert [s.weight for s in loaded.scenarios] == [s.weight for s in sset.scenarios]
    for orig, back in zip(sset.scenarios, loaded.scenarios):
        assert np.array_equal(orig.xi, back.xi)


_VALID_FILE = "grid 2 2 f 1 1 1 1 scenario 0.5 1 0 -1 2 scenario 0.5 -1 0 1 -2"
_TOKENS = ["grid", "f", "scenario", "#", "\n", "2", "3", "-1", "0", "0.5", "1", "1.5",
           "nan", "inf", "-inf", "1e400", "2.5", "x"]


@st.composite
def mutated_files(draw):
    """The valid 2x2 file with a few tokens replaced, dropped or inserted."""
    tokens = _VALID_FILE.split()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["replace", "drop", "insert"]))
        if op == "insert" or i == len(tokens):
            tokens.insert(i, draw(st.sampled_from(_TOKENS)))
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(_TOKENS))
        else:
            del tokens[i]
    return " ".join(tokens)


@property_settings(150)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_TOKENS)).map(" ".join), mutated_files()))
def test_loader_fuzz_raises_only_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scn"
        path.write_text(text, encoding="utf-8")
        try:
            sset = load_scenario_file(path)
        except ValueError:
            return
    assert validate(sset) == []
