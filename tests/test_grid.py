"""Grid fields, built-in samplers, and CSV round-trips."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstat import GridField, TestFunction, diag_step, load_csv, sample, save_csv
from gridstat.grid import GridFormatError


def unit_grid(nx=6, ny=6, values=None):
    if values is None:
        values = np.arange(nx * ny, dtype=float)
    return GridField(nx=nx, ny=ny, dx=1.0, dy=1.0, origin=(0.0, 0.0), values=values)


# --- GridField -------------------------------------------------------------

def test_gridfield_validation():
    with pytest.raises(ValueError):
        GridField(nx=3, ny=4, dx=1, dy=1, origin=(0, 0), values=np.zeros(12))
    with pytest.raises(ValueError):
        GridField(nx=4, ny=4, dx=0, dy=1, origin=(0, 0), values=np.zeros(16))
    with pytest.raises(ValueError):
        GridField(nx=4, ny=4, dx=1, dy=1, origin=(0, 0), values=np.zeros(15))
    with pytest.raises(ValueError):
        GridField(nx=4, ny=4, dx=1, dy=1, origin=(0, 0),
                  values=np.full(16, np.nan))


@pytest.mark.parametrize("values, shape", [(np.zeros((4, 4)), "(4, 4)"),
                                           (np.zeros(15), "(15,)"), (np.zeros(17), "(17,)")])
def test_gridfield_names_the_shape_of_wrong_values(values, shape):
    # a (ny, nx) array holds nx*ny values, but not in the flat shape asked for
    with pytest.raises(ValueError, match=rf"^expected values of flat shape \(16,\) "
                                         rf"\(nx\*ny, row-major\), got shape {re.escape(shape)}$"):
        GridField(nx=4, ny=4, dx=1.0, dy=1.0, origin=(0.0, 0.0), values=values)


@pytest.mark.parametrize("field, change", [("dx", {"dx": math.inf}), ("dy", {"dy": math.nan}),
                                           ("origin x", {"origin": (-math.inf, 0.0)}),
                                           ("origin y", {"origin": (0.0, math.nan)})])
def test_gridfield_rejects_non_finite_geometry(field, change):
    args = dict(nx=4, ny=4, dx=1.0, dy=1.0, origin=(0.0, 0.0), values=np.zeros(16))
    with pytest.raises(ValueError, match=f"{field} must be "):
        GridField(**{**args, **change})


@pytest.mark.parametrize("change", [
    {"dx": 1e308, "origin": (-2.0, 0.0)},   # the last x node overflows
    {"dy": 1e308},                          # so does the last y node
    {"dx": 1e-303, "origin": (1e6, 0.0)},   # every x node rounds to 1e6
    {"dy": 2.0 ** -53, "origin": (0.0, 1.0)},  # 1 + dy rounds to 1
], ids=["x-overflows", "y-overflows", "x-rounds-to-one-node", "y-repeats-a-node"])
def test_gridfield_rejects_nodes_that_are_not_distinct_finite_floats(change):
    args = dict(nx=4, ny=4, dx=1.0, dy=1.0, origin=(0.0, 0.0), values=np.zeros(16))
    axis = "x" if "dx" in change else "y"
    with pytest.raises(ValueError, match=f"grid nodes along {axis} must be finite and "
                                         "strictly increasing"):
        GridField(**{**args, **change})


def test_gridfield_rejects_a_range_that_overflows():
    # max - min of finite values can overflow; a range that fits is accepted
    values = np.zeros(16)
    values[0], values[1] = 1e308, -1e308
    with pytest.raises(ValueError, match="field range max - min overflows float64: "
                                         "max 1e[+]308, min -1e[+]308"):
        unit_grid(4, 4, values)
    values[1] = -7e307
    assert unit_grid(4, 4, values).field_range == 1.7e308


def test_gridfield_accepts_nodes_one_ulp_apart():
    g = GridField(nx=4, ny=4, dx=2.0 ** -52, dy=1.0, origin=(1.0, 0.0), values=np.zeros(16))
    assert g.origin == (1.0, 0.0)


def test_values_are_immutable():
    g = unit_grid()
    with pytest.raises(ValueError):
        g.values[0] = 99.0


def test_diag_step():
    assert diag_step(unit_grid()) == pytest.approx(math.sqrt(2))
    g = GridField(nx=4, ny=4, dx=3, dy=4, origin=(0, 0), values=np.zeros(16))
    assert diag_step(g) == pytest.approx(5.0)
    f2 = sample(TestFunction.F2, 120, 120)
    assert diag_step(f2) == pytest.approx(4 * math.sqrt(2) / 119)


# --- samplers ---------------------------------------------------------------

def test_sample_spacing_and_endpoints():
    g = sample(TestFunction.F2, 120, 120)
    assert g.dx == pytest.approx(4 / 119)
    assert g.origin == (-2.0, -2.0)
    np.testing.assert_allclose(np.add(g.origin, 119 * np.array([g.dx, g.dy])), [2.0, 2.0])
    with pytest.raises(ValueError):
        sample(TestFunction.F2, 3, 10)


def test_function_values():
    assert TestFunction.F2(0.0, 0.0) == 0.0
    assert TestFunction.F11(0.3, 0.3) == 0.0
    assert TestFunction.F14(0.0, 0.0) == 1.0
    # odd node counts put a node exactly at the center of symmetric domains
    g = sample(TestFunction.F2, 5, 5)
    assert g.grid2d()[2, 2] == 0.0


def test_f1_formula_rederivation():
    # independent re-derivation of the four-bump sum (second bump has a
    # linear y-exponent)
    rng = np.random.default_rng(3)
    for x, y in rng.uniform(0, 1, (25, 2)):
        expect = (0.75 * math.exp(-(9 * x - 2) ** 2 / 4 - (9 * y - 2) ** 2 / 4)
                  + 0.75 * math.exp(-(9 * x + 1) ** 2 / 49 - (9 * y + 1) / 10)
                  + 0.5 * math.exp(-(9 * x - 7) ** 2 / 4 - (9 * y - 3) ** 2 / 4)
                  - 0.2 * math.exp(-(9 * x - 4) ** 2 - (9 * y - 7) ** 2))
        assert TestFunction.F1(x, y) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("tf", [TestFunction.F13, TestFunction.F14])
def test_point_symmetry(tf):
    g = sample(tf, 21, 21)  # odd: nodes map onto nodes under negation
    v = g.grid2d()
    np.testing.assert_allclose(v, v[::-1, ::-1], atol=1e-15)


@pytest.mark.parametrize("tf", list(TestFunction))
def test_analytic_gradient_matches_finite_differences(tf):
    xmin, xmax, ymin, ymax = tf.domain
    rng = np.random.default_rng(4)
    h = 1e-7
    for _ in range(20):
        x = rng.uniform(xmin + 0.05, xmax - 0.05)
        y = rng.uniform(ymin + 0.05, ymax - 0.05)
        gx = (tf(x + h, y) - tf(x - h, y)) / (2 * h)
        gy = (tf(x, y + h) - tf(x, y - h)) / (2 * h)
        np.testing.assert_allclose(tf.gradient(x, y), [gx, gy],
                                   rtol=1e-5, atol=1e-7)


# --- CSV I/O ----------------------------------------------------------------

def test_load_minimal_csv(tmp_path):
    p = tmp_path / "g.csv"
    body = ",".join(str(float(i)) for i in range(4))
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join([body] * 4) + "\n")
    g = load_csv(p)
    assert (g.nx, g.ny, g.dx, g.dy, g.origin) == (4, 4, 1.0, 1.0, (0.0, 0.0))
    assert g.values[3] == 3.0


def test_load_csv_value_count_error(tmp_path):
    p = tmp_path / "g.csv"
    rows = [",".join(["1.0"] * 4)] * 3 + [",".join(["1.0"] * 3)]
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join(rows) + "\n")
    with pytest.raises(GridFormatError, match="16 values"):
        load_csv(p)


def test_load_csv_errors(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("")
    with pytest.raises(GridFormatError, match="line 1"):
        load_csv(p)
    p.write_text("4,4,1.0\n")
    with pytest.raises(GridFormatError, match="header"):
        load_csv(p)
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join([",".join(["1"] * 4)] * 2) + "\n")
    with pytest.raises(GridFormatError, match="rows"):
        load_csv(p)
    body = [",".join(["1.0"] * 4)] * 4
    body[2] = "1.0,nan,1.0,1.0"
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join(body) + "\n")
    with pytest.raises(GridFormatError, match="line 4"):
        load_csv(p)
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv")


def test_load_csv_names_the_line_of_an_unreadable_value(tmp_path):
    # whitespace around a value is read; underscores, non-ASCII digits and
    # words are not, and the error names the line and the token (numpy's
    # wording around them is not pinned across the versions it may be)
    p = tmp_path / "g.csv"
    rows = [",".join(["1.0"] * 4)] * 4
    rows[1] = " 1.0, 2.5 ,3,-0.0"
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert load_csv(p).grid2d()[1].tolist() == [1.0, 2.5, 3.0, -0.0]
    for r, token in [(2, "1_0"), (4, "\u0663"), (5, "x")]:
        bad = list(rows)
        bad[r - 2] = f"1.0,{token},1.0,1.0"
        p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join(bad) + "\n", encoding="utf-8")
        with pytest.raises(GridFormatError, match=f"^line {r}: .*'{token}'"):
            load_csv(p)
    rows[3] = "1.0,1.0,1.0,inf"
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(GridFormatError, match="line 5: non-finite"):
        load_csv(p)


@pytest.mark.parametrize("row, column, token", [("1.0,1_0,1.0,1.0", 2, "1_0"),
                                               ("1.0,,1.0,1.0", 2, ""),
                                               ("1.0,1.0,1.0, x", 4, " x")])
def test_load_csv_names_the_column_of_an_unreadable_value(row, column, token, tmp_path):
    # the position is the file's: line 3, not loadtxt's row 0 of the one
    # line it was handed
    p = tmp_path / "g.csv"
    rows = [",".join(["1.0"] * 4)] * 4
    rows[1] = row
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join(rows) + "\n")
    with pytest.raises(GridFormatError) as err:
        load_csv(p)
    assert str(err.value) == f"line 3: column {column}: cannot read {token!r} as a number"


@pytest.mark.parametrize("body, r, got", [
    # loadtxt skips a blank line
    (["1.0,1.0,1.0,1.0"] * 2 + ["", "1.0,1.0,1.0,1.0"], 4, 1),
    # and reads rows of one wrong width whole
    (["1.0,1.0,1.0"] * 4, 2, 3),
])
def test_load_csv_names_a_line_of_the_wrong_width(body, r, got, tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("4,4,1.0,1.0,0.0,0.0\n" + "\n".join(body) + "\n")
    with pytest.raises(GridFormatError, match=f"^line {r}: expected 4 values, got {got} "):
        load_csv(p)


@pytest.mark.parametrize("header, field", [("6,6,inf,0.1,0.0,0.0", "dx"),
                                           ("6,6,0.1,1e400,0.0,0.0", "dy"),
                                           ("6,6,0.1,0.1,inf,0.0", "origin x"),
                                           ("6,6,0.1,0.1,0.0,1e400", "origin y")])
def test_load_csv_rejects_non_finite_geometry(header, field, tmp_path):
    p = tmp_path / "g.csv"
    p.write_text(header + "\n" + "\n".join([",".join(["1.0"] * 6)] * 6) + "\n")
    with pytest.raises(ValueError, match=f"{field} must be "):
        load_csv(p)


@pytest.mark.parametrize("tf", list(TestFunction))
def test_csv_roundtrip_bit_exact(tf, tmp_path):
    g = sample(tf, 12, 9)
    p = tmp_path / "rt.csv"
    save_csv(g, p)
    g2 = load_csv(p)
    assert (g2.nx, g2.ny, g2.dx, g2.dy, g2.origin) == (g.nx, g.ny, g.dx, g.dy, g.origin)
    np.testing.assert_array_equal(g2.values, g.values)


@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.floats(-1e100, 1e100, allow_nan=False), min_size=16,
                       max_size=16))
def test_csv_roundtrip_random_values(values, tmp_path_factory):
    g = GridField(nx=4, ny=4, dx=0.3, dy=0.7, origin=(-1.5, 2.25),
                  values=np.array(values))
    p = tmp_path_factory.mktemp("csv") / "rt.csv"
    save_csv(g, p)
    np.testing.assert_array_equal(load_csv(p).values, g.values)
