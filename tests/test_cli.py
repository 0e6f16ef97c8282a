"""Command-line surface: parsing, report schema, exit codes, round trips."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from lambdarisk import make_distribution
from lambdarisk.cli import main, parse_scenarios

U4_CSV = "value\n1\n2\n3\n4\n"
STEP36_SPEC = {"type": "step", "thresholds": [3.6], "levels": [0.75, 0.25], "continuity": "right"}


@pytest.fixture()
def u4(tmp_path):
    path = tmp_path / "u4.csv"
    path.write_text(U4_CSV)
    return str(path)


@pytest.fixture()
def step36(tmp_path):
    path = tmp_path / "step.json"
    path.write_text(json.dumps(STEP36_SPEC))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------- scenario files


def test_parse_scenarios_equal_weights(u4):
    d = parse_scenarios(u4)
    assert d.atoms() == [(1.0, 0.25), (2.0, 0.25), (3.0, 0.25), (4.0, 0.25)]


def test_parse_scenarios_with_probabilities(tmp_path):
    f = tmp_path / "two.csv"
    f.write_text("value,probability\n0,0.3\n1,0.7\n")
    d = parse_scenarios(str(f))
    assert d.atoms() == [(0.0, 0.3), (1.0, 0.7)]


def test_parse_scenarios_rejections(capsys, tmp_path):
    cases = {
        "empty.csv": "",
        "blank.csv": "\n  \n,\n",
        "header_only.csv": "value\n",
        "header.csv": "loss\n1\n",
        "text.csv": "value\n1\nabc\n",
        # float() accepts these two, the reader does not
        "underscore.csv": "value\n1_000\n",
        "arabic_digits.csv": "value\n\u0661\u0662\n",
        "nan.csv": "value\n1\nnan\n",
        "inf.csv": "value\ninf\n1\n",
        "nan_prob.csv": "value,probability\n0,nan\n1,1\n",
        "negative.csv": "value,probability\n0,-0.5\n1,1.5\n",
        "short_row.csv": "value,probability\n0\n",
        "long_row.csv": "value\n1,2\n",
        "ragged.csv": "value,probability\n0,0.5\n1\n",
        "sum.csv": "value,probability\n0,0.3\n1,0.6\n",
    }
    for name, body in cases.items():
        f = tmp_path / name
        f.write_text(body)
        with pytest.raises(ValueError):
            parse_scenarios(str(f))
        code, _, err = run(capsys, ["evar", "--p", "1", "--alpha", "0.5", str(f)])
        assert code == 1, name
        assert str(f) in err


def test_parse_scenarios_accepts_blank_rows_and_loose_fields(tmp_path):
    want = [(1.0, 0.25), (2.5, 0.75)]
    cases = {
        "blank.csv": "value,probability\n\n1,0.25\n\n2.5,0.75\n\n",
        "whitespace.csv": "value,probability\n1,0.25\n   \n\t\n2.5,0.75\n",
        "commas.csv": "value,probability\n,\n1,0.25\n , \n2.5,0.75\n,,\n",
        "crlf.csv": "value,probability\r\n1,0.25\r\n\r\n2.5,0.75\r\n",
        "spaces.csv": "value , probability\n  1 ,0.25\n2.5,  0.75  \n",
        "quoted.csv": '"value","probability"\n"1","0.25"\n" 2.5",0.75\n',
        "leading_blank.csv": "\n \n,\nvalue,probability\n1,0.25\n2.5,0.75",
    }
    for name, body in cases.items():
        f = tmp_path / name
        f.write_bytes(body.encode())
        assert parse_scenarios(str(f)).atoms() == want, name
    f = tmp_path / "single_column.csv"
    f.write_text("value\n1\n ,\n\n2.5\n2.5\n2.5\n")
    assert parse_scenarios(str(f)).atoms() == want


def test_parse_errors_name_the_file_line(capsys, tmp_path):
    cases = {
        "value\n1\n\n\n2\nabc\n": "line 6: malformed number",
        "\n\nvalue\n1\n  \n,\n2\n3,4\n": "line 8: expected 1 fields, got 2",
        "value,probability\n0,0.5\n\n1\n": "line 4: expected 2 fields, got 1",
        "value,probability\r\n\r\n0,x\r\n": "line 3: malformed number",
    }
    for i, (body, message) in enumerate(cases.items()):
        f = tmp_path / f"bad{i}.csv"
        f.write_bytes(body.encode())
        with pytest.raises(ValueError, match=message):
            parse_scenarios(str(f))
        code, _, err = run(capsys, ["evar", "--p", "1", "--alpha", "0.5", str(f)])
        assert code == 1
        assert f"{f}, {message}" in err


@pytest.mark.parametrize("weighted", [False, True])
def test_parse_scenarios_matches_float_of_each_field(tmp_path, weighted):
    rng = np.random.default_rng(11)
    n = 10_000
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    values[:100] = rng.integers(1, 2**63, 100).view(float)  # random bit patterns
    values[100:200] = rng.uniform(1.0, 2.0, 100) * 5e-324 * rng.integers(1, 2**40, 100)
    values[200:300] = rng.integers(-10**6, 10**6, 100)
    values[~np.isfinite(values)] = 1.0
    formats = [repr, "{:.17g}".format, "{:.6e}".format, lambda v: str(int(v))]
    fields = [formats[3 if i in range(200, 300) else i % 3](v)
              for i, v in enumerate(values.tolist())]
    probs = [f"{q:.6e}" for q in rng.uniform(0.1, 1.0, n)]
    f = tmp_path / "parity.csv"
    if weighted:
        f.write_text("value,probability\n" + "".join(
            f"{v},{q}\n" for v, q in zip(fields, probs)))
    else:
        f.write_text("value\n" + "\n".join(fields) + "\n")
    got = parse_scenarios(str(f), normalize=True)
    want = make_distribution([float(v) for v in fields],
                             [float(q) for q in probs] if weighted else None)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.probs.tobytes() == want.probs.tobytes()


def test_parse_scenarios_normalize_flag(tmp_path):
    f = tmp_path / "sum.csv"
    f.write_text("value,probability\n0,0.3\n1,0.6\n")
    d = parse_scenarios(str(f), normalize=True)
    assert d.probs[1] == pytest.approx(2.0 / 3.0)


# ------------------------------------------------------------------ commands


def test_evar_command(capsys, u4):
    rep = run_json(capsys, ["evar", "--p", "1", "--alpha", "0.5", u4])
    assert rep["measure"] == "evar"
    assert rep["p"] == 1.0
    assert rep["value"] == 3.5
    assert rep["t_interval"] == [2.0, 3.0]
    assert rep["attained"] is True
    assert isinstance(rep["inputs"], str) and len(rep["inputs"]) == 64


def test_evar_level_zero_serializes_infinite_interval(capsys, u4):
    rep = run_json(capsys, ["evar", "--p", "2", "--alpha", "0", u4])
    assert rep["value"] == 2.5
    assert rep["t_interval"] == ["-inf", "-inf"]  # no minimizer resolved
    assert rep["attained"] is False


def test_evar_level_zero_order_one_attains_its_minimum(capsys, u4):
    # the p = 1 objective equals the mean on all of (-inf, essinf]
    rep = run_json(capsys, ["evar", "--p", "1", "--alpha", "0", u4])
    assert rep["value"] == 2.5
    assert rep["t_interval"] == ["-inf", 1.0]
    assert rep["attained"] is True


def test_lambda_es_command(capsys, u4, step36):
    rep = run_json(capsys, ["lambda", "--measure", "es", "--p", "1", "--lambda", step36, u4])
    assert rep["measure"] == "lambda_es"
    assert rep["p"] == 1.0
    assert rep["value"] == 3.6
    assert rep["x_star"] == 3.6
    assert rep["attained"] is False


def test_lambda_var_has_no_inner_interval(capsys, u4, step36):
    rep = run_json(capsys, ["lambda", "--measure", "var", "--lambda", step36, u4])
    assert rep["measure"] == "lambda_var"
    assert rep["p"] is None
    assert rep["t_interval"] is None


def test_ru_command(capsys, u4, step36):
    rep = run_json(capsys, ["ru", "--p", "1", "--lambda", step36, u4])
    assert rep["measure"] == "lambda_evar_ru"
    assert rep["value"] == 3.6


def test_ru_rejects_left_continuous_spec(capsys, tmp_path, u4):
    spec = dict(STEP36_SPEC, continuity="left")
    f = tmp_path / "left.json"
    f.write_text(json.dumps(spec))
    code, _, err = run(capsys, ["ru", "--p", "1", "--lambda", str(f), u4])
    assert code == 2
    assert "right-continuous" in err


def test_robust_wasserstein_command(capsys, u4, step36):
    rep = run_json(
        capsys,
        ["robust", "wasserstein", "--p", "1", "--delta", "0.3", "--lambda", step36, u4],
    )
    assert rep["measure"] == "robust_wasserstein"
    assert rep["value"] == 3.6
    assert rep["nominal"] == 3.6
    assert rep["inflation"] == 0.0
    # closed-form result: no solver diagnostics to report
    assert rep["t_interval"] is None
    assert rep["attained"] is None
    assert rep["iterations"] is None


def test_robust_meanvar_command(capsys, tmp_path):
    f = tmp_path / "const05.json"
    f.write_text(json.dumps({"type": "constant", "level": 0.5}))
    rep = run_json(
        capsys,
        ["robust", "meanvar", "--mean", "0", "--std", "1", "--lambda", str(f), "--measure", "es"],
    )
    assert rep["measure"] == "robust_meanvar_es"
    assert rep["value"] == 1.0


def test_robust_rejects_level_one(capsys, tmp_path, u4):
    f = tmp_path / "const1.json"
    f.write_text(json.dumps({"type": "constant", "level": 1.0}))
    code, _, err = run(
        capsys, ["robust", "wasserstein", "--p", "1", "--delta", "0.1", "--lambda", str(f), u4]
    )
    assert code == 2
    assert "below 1" in err


def test_sweep_command(capsys, u4, step36):
    code, out, _ = run(
        capsys, ["sweep", "--lambda", step36, "--p", "1", "--grid", "0:5:51", u4]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "g(x)", "min(g(x),x)", "max(g(x),x)"]
    assert len(rows) == 52
    mins = [float(r[2]) for r in rows[1:]]
    # the lift value 3.6 is a supremum the grid can only approach from the
    # left, so agreement is up to one grid spacing
    assert abs(max(mins) - 3.6) <= 0.1 + 1e-9
    for r in rows[1:]:
        x, g, lo, hi = map(float, r)
        assert lo == pytest.approx(min(g, x), abs=1e-15)
        assert hi == pytest.approx(max(g, x), abs=1e-15)


def test_check_command(capsys):
    code, out, _ = run(capsys, ["check", "--seed", "3", "--cases", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 3 and data["cases"] == 2
    assert data["all_passed"] is True


# ------------------------------------------------------------- expect loop


def test_expect_round_trip(capsys, tmp_path, u4, step36):
    argv = ["lambda", "--measure", "es", "--p", "1", "--lambda", step36, u4]
    rep = run_json(capsys, argv)
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps(rep))
    code, _, _ = run(capsys, argv + ["--expect", str(stored)])
    assert code == 0
    rep["value"] = rep["value"] + 0.5
    stored.write_text(json.dumps(rep))
    code, _, err = run(capsys, argv + ["--expect", str(stored)])
    assert code == 2
    assert "expect" in err


# -------------------------------------------------------------- exit codes


def test_missing_file_is_exit_one(capsys, step36):
    code, _, err = run(capsys, ["evar", "--p", "1", "--alpha", "0.5", "/nonexistent.csv"])
    assert code == 1
    assert err


def test_malformed_spec_is_exit_one(capsys, tmp_path, u4):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, _ = run(capsys, ["lambda", "--measure", "es", "--lambda", str(f), u4])
    assert code == 1
    f.write_text(json.dumps({"type": "step", "thresholds": [0.0], "levels": [0.1, 0.7]}))
    code, _, _ = run(capsys, ["lambda", "--measure", "es", "--lambda", str(f), u4])
    assert code == 1


def test_unnormalized_probabilities_exit_one(capsys, tmp_path):
    f = tmp_path / "sum.csv"
    f.write_text("value,probability\n0,0.3\n1,0.6\n")
    code, _, _ = run(capsys, ["evar", "--p", "1", "--alpha", "0.5", str(f)])
    assert code == 1
    code, out, _ = run(capsys, ["evar", "--p", "1", "--alpha", "0.5", str(f), "--normalize"])
    assert code == 0


def test_bad_numeric_domain_exit_two(capsys, u4):
    code, _, _ = run(capsys, ["evar", "--p", "0.5", "--alpha", "0.5", u4])
    assert code == 2
    code, _, _ = run(capsys, ["evar", "--p", "1", "--alpha", "1.5", u4])
    assert code == 2


def test_usage_errors_exit_one(capsys, u4):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["evar", u4])[0] == 1  # missing required flags
    assert run(capsys, ["frobnicate"])[0] == 1
    assert run(capsys, ["sweep", "--lambda", "x.json", "--p", "1", "--grid", "0:5", u4])[0] == 1


def test_report_numbers_render_17_digits(capsys, tmp_path):
    f = tmp_path / "third.csv"
    f.write_text("value,probability\n0,0.66666666666666663\n3,0.33333333333333331\n")
    code, out, _ = run(capsys, ["evar", "--p", "1", "--alpha", "0", str(f)])
    assert code == 0
    assert "0.99999999999999989" in out or "1" in out  # mean 1/3 * 3, 17g formatted
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ digest


def _inputs(capsys, tmp_path, body, argv=("evar", "--p", "2", "--alpha", "0.5")):
    f = tmp_path / "law.csv"
    f.write_text(body)
    return run_json(capsys, [*argv, str(f)])["inputs"]


def test_digest_reads_the_law_not_the_rows(capsys, tmp_path):
    base = _inputs(capsys, tmp_path, "value\n1\n2\n2\n3\n")
    # permuted, re-formatted, and the duplicate merged into one weighted row
    assert _inputs(capsys, tmp_path, "value,probability\n3.0,0.25\n2,5e-1\n1e0,0.25\n") == base
    # a weighted atom split into two rows
    split = "value,probability\n0,0.5\n1,0.25\n1,0.25\n"
    assert _inputs(capsys, tmp_path, split) == _inputs(
        capsys, tmp_path, "value,probability\n1,0.5\n0,0.5\n")


def test_digest_changes_with_any_input(capsys, tmp_path, step36):
    up = math.nextafter(2.0, math.inf)
    base = _inputs(capsys, tmp_path, "value,probability\n1,0.25\n2,0.75\n")
    moved = {
        _inputs(capsys, tmp_path, f"value,probability\n1,0.25\n{up!r},0.75\n"),
        _inputs(capsys, tmp_path,
                f"value,probability\n1,{math.nextafter(0.25, 1.0)!r}\n2,0.75\n"),
        _inputs(capsys, tmp_path, "value,probability\n1,0.25\n2,0.75\n",
                ("evar", "--p", "3", "--alpha", "0.5")),
        _inputs(capsys, tmp_path, "value,probability\n1,0.25\n2,0.75\n",
                ("evar", "--p", "2", "--alpha", "0.6")),
    }
    assert base not in moved and len(moved) == 4
    lift = ("lambda", "--measure", "evar", "--p", "2", "--lambda", step36)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(STEP36_SPEC, levels=[0.75, 0.5])))
    lift_other = ("lambda", "--measure", "evar", "--p", "2", "--lambda", str(other))
    body = "value\n1\n2\n3\n4\n"
    assert _inputs(capsys, tmp_path, body, lift) != _inputs(capsys, tmp_path, body, lift_other)


def test_digest_pinned(capsys, tmp_path, u4):
    # sha256 of the sorted-key compact JSON of the scalar inputs with the atom
    # count under "atoms", then the law's values and probabilities as <f8 bytes
    rep = run_json(capsys, ["evar", "--p", "1", "--alpha", "0.5", u4])
    assert rep["inputs"] == "1a0e7b138db64cf96ebdb2dd774841786cf1b5b3beb2fb46f2c9669806220d57"
    canon = b'{"alpha":0.5,"atoms":4,"command":"evar","p":1.0}'
    law = np.array([1.0, 2.0, 3.0, 4.0, 0.25, 0.25, 0.25, 0.25], "<f8").tobytes()
    assert rep["inputs"] == hashlib.sha256(canon + law).hexdigest()
    # a report without a scenario file hashes its scalar inputs alone
    f = tmp_path / "const05.json"
    f.write_text(json.dumps({"type": "constant", "level": 0.5}))
    rep = run_json(
        capsys,
        ["robust", "meanvar", "--mean", "0", "--std", "1", "--lambda", str(f), "--measure", "es"],
    )
    assert rep["inputs"] == "5ec65a4980c8d4ccff947f5f315f972ff74cded2efb558259ec088908b71c04d"
