"""Command-line interface: formats, exit codes, subcommand behavior."""

import json
import math

import pytest

from pulse2d.cli import main
from pulse2d.dispatch import Region


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_eval_point(capsys):
    code, out, _ = run(capsys, "eval", "--t", "2", "--r", "1")
    assert code == 0
    cols = out.split()
    assert cols[:2] == ["2", "1"]
    assert float(cols[2]) == pytest.approx(-0.1113901226888824, abs=1e-15)
    assert float(cols[3]) == pytest.approx(0.09834789895940715, abs=1e-15)
    assert cols[4] == "Form1GL"


def test_eval_never_prints_negative_zero(capsys):
    code, out, _ = run(capsys, "eval", "--t", "0", "--r", "0")
    assert code == 0
    assert "-0 " not in out and not out.rstrip().endswith("-0")
    assert out.split()[2] == "1"


def test_eval_clamp_note_on_stderr(capsys):
    code, out, err = run(capsys, "eval", "--t", "1", "--r", "1",
                         "--eps", "1e-10")
    assert code == 0
    assert "tightened" in err


def test_eps_below_floor_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--t", "2", "--r", "1", "--eps", "1e-20"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "floor" in err and "mp_backend(24)" in err
    assert "Traceback" not in err


def test_eval_rejects_negative_t(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--t", "-1", "--r", "1"])
    assert exc.value.code == 2


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "point.txt"
    code, out, _ = run(capsys, "eval", "--t", "2", "--r", "1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().split()[4] == "Form1GL"


def test_eval_out_bad_path(capsys):
    code, _, err = run(capsys, "eval", "--t", "2", "--r", "1",
                       "--out", "/nonexistent-dir/x.txt")
    assert code == 3
    assert "I/O error" in err


def test_grid_csv(capsys):
    code, out, _ = run(capsys, "grid", "--t-values", "2,9",
                       "--r-values", "1,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,r,p,ur,region"
    assert len(lines) == 5
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["t"] == "2" and row["r"] == "5"


def test_grid_requires_exactly_one_axis_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--t-values", "1", "--t-pow", "2:0:3:1",
              "--r-values", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--r-values", "1"])
    assert exc.value.code == 2


def test_grid_pow_axis(capsys):
    code, out, _ = run(capsys, "grid", "--t-pow", "2:0:2:1",
                       "--r-values", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "4"]


def test_regions_csv(capsys):
    code, out, _ = run(capsys, "regions", "--t-values", "1,30",
                       "--r-values", "30,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,r,region"
    table = {tuple(ln.split(",")[:2]): ln.split(",")[2] for ln in lines[1:]}
    assert table[("1", "30")] == "Zero"
    assert table[("30", "1")] == "Form2Uniform"


def test_rules_legendre(capsys):
    code, out, _ = run(capsys, "rules", "--kind", "legendre", "--m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,node,weight"
    node = float(lines[1].split(",")[1])
    assert abs(node + 1 / math.sqrt(3)) < 1e-15


def test_rules_jacobi_needs_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rules", "--kind", "jacobi"])
    assert exc.value.code == 2


@pytest.mark.parametrize("m", ["0", "513"])
def test_rules_bad_m_exits_2(capsys, m):
    with pytest.raises(SystemExit) as exc:
        main(["rules", "--kind", "legendre", "--m", m])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "node count" in err and "Traceback" not in err


def test_rules_uniform(capsys):
    code, out, _ = run(capsys, "rules", "--kind", "uniform")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,node,weight"
    assert len(lines) == 16  # M2 = 15 at the default eps
    k1 = lines[1].split(",")
    h = 0.6366842184408109
    assert float(k1[1]) == pytest.approx(h, abs=1e-15)
    assert float(k1[2]) == pytest.approx(
        h / math.sqrt(2 * math.pi) * math.exp(-h * h / 2), abs=1e-16)


def test_selfcheck_single_point(capsys):
    code, out, _ = run(capsys, "selfcheck", "--point", "2", "1")
    assert code == 0
    assert "selfcheck: PASS" in out
    assert "routes = halfline/selfsim" in out


def test_selfcheck_tiny_lattice(capsys):
    # the span starts with "-": argparse needs the --m=... form
    code, out, _ = run(capsys, "selfcheck", "--n", "0:100:100",
                       "--m=-100:0:100")
    assert code == 0
    assert "lattice: 4 points" in out
    assert "selfcheck: PASS" in out


def test_bench_runs(capsys):
    code, out, _ = run(capsys, "bench", "--points", "2000")
    assert code == 0
    assert "throughput" in out
    assert "region breakdown:" in out
    code, out, _ = run(capsys, "bench", "--points", "2000", "--json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert {"points", "eps", "seed", "points_per_s", "ns_per_point",
            "evaluator_build_s", "regions", "versions",
            "cpu_count"} <= set(rec)
    assert rec["points"] == 2000 and rec["eps"] == 2e-16
    assert set(rec["regions"]) == {reg.label for reg in Region}
    assert sum(v["points"] for v in rec["regions"].values()) == 2000
    for row in rec["regions"].values():
        assert row["points_per_s"] > 0 and row["ns_per_point"] > 0
    assert set(rec["versions"]) == {"python", "numpy", "scipy", "mpmath"}
    assert rec["evaluator_build_s"] > 0 and rec["cpu_count"] >= 1


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
