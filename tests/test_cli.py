import json
import math
import tracemalloc

import numpy as np
import pytest

from currentlab import cli
from currentlab import measures as M
from currentlab import process as P
from currentlab.gridfn import grid_1d_sqrt, grid_2d_sqrt
from currentlab.specfun import Dimensions


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_specfun_eval_v_half(capsys):
    code, out, _ = run(capsys, ["specfun", "eval", "--fn", "V",
                                "--rho", "0.5", "--x", "1.0"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.e ** 2, rel=1e-12)


def test_specfun_eval_k(capsys):
    code, out, _ = run(capsys, ["specfun", "eval", "--fn", "K",
                                "--rho", "0.5", "--x", "1.0"])
    assert code == 0
    want = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
    assert float(out.strip()) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("fn", ["K", "V", "g", "psi"])
def test_specfun_eval_prints_a_float(capsys, fn):
    # repr of a Python float, not numpy's np.float64(...)
    code, out, _ = run(capsys, ["specfun", "eval", "--fn", fn, "--x", "1"])
    assert code == 0
    assert float(out.strip()) > 0 and "np." not in out


def test_check_suite_json_and_exit_code(capsys):
    code, out, _ = run(capsys, ["check", "specfun", "--seed", "2024"])
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "specfun"
    assert doc["all_pass"] is True
    assert all(set(r) >= {"check_id", "paper_anchor", "residual",
                          "tolerance", "pass"} for r in doc["reports"])


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "bogus"])
    assert exc.value.code == 2


def test_check_failing_tolerance_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(
        {"tolerances": {"density-ratio-consistency": 1e-300}}))
    code, out, _ = run(capsys, ["check", "measures", "--config", str(cfgfile)])
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False


def test_check_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, ["check", "measures", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["all_pass"] is True
    assert set(doc) == {"suite", "seed", "all_pass", "reports"}
    # the printed report is the file's, byte for byte
    assert out == out_path.read_text()


def test_check_bad_config_exits_one_without_partial_file(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    cfgfile = tmp_path / "cfg.json"
    for bad in ({"foo": 1}, {"seed": 3, "partition": [0.5, 0.3]}, {"trials": 0}, [1]):
        cfgfile.write_text(json.dumps(bad))
        code, out, err = run(capsys, ["check", "specfun", "--config", str(cfgfile),
                                      "--out", str(out_path)])
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""
        assert not out_path.exists()
    cfgfile.write_text(json.dumps({"foo": 1}))
    _, _, err = run(capsys, ["check", "specfun", "--config", str(cfgfile)])
    assert err.strip() == "error: unknown config key 'foo'"


@pytest.mark.parametrize("bad, message", [
    ({"trials": "5"}, "config key 'trials' must be an integer, got str"),
    ({"tolerances": [1]}, "config key 'tolerances' must be an object, got list"),
    ({"seed": "x"}, "config key 'seed' must be an integer, got str"),
])
def test_check_config_value_of_the_wrong_type(tmp_path, capsys, bad, message):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(bad))
    code, out, err = run(capsys, ["check", "specfun", "--config", str(cfgfile)])
    assert code == 1
    assert err.strip() == f"error: {message}"
    assert out == ""


def test_trials_below_one_is_an_error(capsys):
    # a bad count must not read as a broken group law (inf residuals) or
    # silently fall back to the default
    for argv in (["check", "all", "--trials", "0"], ["check", "group", "--trials", "-3"],
                 ["group", "check", "--trials", "0"]):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err.startswith("error: trials must be at least 1")
        assert out == ""


def test_check_has_no_dimension_or_partition_flags(capsys):
    for argv in (["check", "specfun", "--n", "7"],
                 ["check", "specfun", "--partition", "9,9"],
                 ["rep", "check", "--suite", "tau", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_specfun_eval_domain_errors(capsys):
    for argv in (["--fn", "psi", "--lambda", "-0.5", "--x", "0.5"],
                 ["--fn", "psi", "--lambda", "0", "--x", "0.5"],
                 ["--fn", "g", "--x", "-1"],
                 ["--fn", "K", "--x", "0"],
                 ["--fn", "V", "--rho", "0.5", "--x", "-1"]):
        code, out, err = run(capsys, ["specfun", "eval"] + argv)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""


def test_sample_marginal_jsonl_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["sample", "marginal", "--n", "2", "--partition", "0.5,0.3",
            "--seed", "7", "--count", "5"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    lines1 = out1.read_text().splitlines()
    assert lines1 == out2.read_text().splitlines()
    assert len(lines1) == 5
    row = json.loads(lines1[0])
    assert np.asarray(row["xi"]).shape == (2, 1)


def test_sample_process_jsonl(tmp_path, capsys):
    out = tmp_path / "p.jsonl"
    code = cli.main(["sample", "process", "--n", "3", "--mass", "0.8",
                     "--eps", "0.05", "--seed", "3", "--count", "2",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = [json.loads(s) for s in out.read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["truncation_bound"] > 0
    for atom in rows[0]["atoms"]:
        assert 0.0 <= atom["x"] <= 0.8
        assert len(atom["c"]) == 2


def test_sample_files_are_the_per_record_formula(tmp_path, capsys):
    # each line is the JSON of one record made from the same stream
    out = tmp_path / "m.jsonl"
    assert cli.main(["sample", "marginal", "--n", "3", "--partition", "0.3,0.5,0.7",
                     "--seed", "5", "--count", "50", "--out", str(out)]) == 0
    draws = P.sample_marginal(Dimensions(3), M.Partition((0.3, 0.5, 0.7)),
                              P.SeededStream(5), size=50)
    assert out.read_text() == "".join(json.dumps({"xi": xi.tolist()}) + "\n" for xi in draws)

    out = tmp_path / "p.jsonl"
    assert cli.main(["sample", "process", "--n", "2", "--mass", "0.8", "--eps", "0.1",
                     "--seed", "5", "--count", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    dims, stream = Dimensions(2), P.SeededStream(5)
    table = P.JumpSizeTable(dims, 0.1, P.default_intensity_scale(dims))
    want = ""
    for _ in range(4):
        config = P.sample_process(dims, 0.8, 0.1, stream, table=table)
        atoms = [{"x": float(x), "c": c.tolist()}
                 for x, c in zip(config.positions, config.amplitudes)]
        want += json.dumps({"atoms": atoms, "truncation_bound": config.truncation_bound}) + "\n"
    assert out.read_text() == want


def test_sample_with_invalid_arguments_writes_no_file(tmp_path, capsys):
    out = tmp_path / "bad.jsonl"
    code, _, err = run(capsys, ["sample", "process", "--mass", "-1", "--count", "3",
                                "--out", str(out)])
    assert code == 1 and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_sample_marginal_holds_the_draws_but_not_the_records(tmp_path, capsys):
    # the records are written as they are made: the traced peak stays below
    # the draws array (20 000 x 3 x 2 doubles, 0.96 MB) plus 1 MB, where a
    # list of every record's dict took tens of MB
    out = tmp_path / "m.jsonl"
    argv = ["sample", "marginal", "--n", "3", "--partition", "0.3,0.5,0.7",
            "--seed", "5", "--count", "20000", "--out", str(out)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 20_000 * 3 * 2 * 8 + 1_000_000
    assert len(out.read_text().splitlines()) == 20_000


def test_sample_count_zero_makes_empty_file(tmp_path, capsys):
    out = tmp_path / "z.jsonl"
    code = cli.main(["sample", "marginal", "--n", "2", "--partition", "1.0",
                     "--count", "0", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_text() == ""


def test_measure_density_json(capsys):
    code, out, _ = run(capsys, ["measure", "density", "--which", "mu",
                                "--n", "2", "--partition", "0.5,0.3",
                                "--xi", "0.7,-1.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(math.exp(doc["log_value"]), rel=1e-12)
    # nu density from the CLI matches the library value
    from currentlab import measures as M
    from currentlab.specfun import Dimensions
    _, out, _ = run(capsys, ["measure", "density", "--which", "nu",
                             "--n", "2", "--partition", "0.5,0.3",
                             "--xi", "0.7,-1.1"])
    want = M.log_nu_alpha_density(Dimensions(2), M.Partition((0.5, 0.3)),
                                  [[0.7], [-1.1]])
    assert json.loads(out)["log_value"] == pytest.approx(want, abs=1e-12)
    # v treats the inputs as configuration amplitudes
    _, out, _ = run(capsys, ["measure", "density", "--which", "v",
                             "--n", "2", "--partition", "0.5,0.3",
                             "--xi", "0.7,1.1"])
    want_v = M.log_density_v(Dimensions(2), 0.8, [0.7, 1.1])
    assert json.loads(out)["log_value"] == pytest.approx(want_v, abs=1e-12)


def test_kernel_tabulate_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = cli.main(["kernel", "tabulate", "--lambda", "0.5",
                     "--grid", "0.5,1.0,2.0", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,xi_prime,value"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[2]) != 0.0


def test_kernel_tabulate_usage_and_domain_errors(tmp_path, capsys):
    # the table is the n = 2 kernel, so there is no --n; a zero argument or a
    # mass outside (0, 1) is outside the kernel's domain and ends in error:
    # with no file
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "tabulate", "--n", "3", "--grid", "0.5,1.0",
                  "--out", str(tmp_path / "k3.csv")])
    assert exc.value.code == 2
    capsys.readouterr()
    out = tmp_path / "k0.csv"
    for args in (["--grid", "0,1"], ["--lambda", "1.5", "--grid", "0.5,1"],
                 ["--lambda", "0", "--grid", "0.5,1"]):
        code = cli.main(["kernel", "tabulate", *args, "--out", str(out)])
        _, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error:")
        assert not out.exists()


def test_rep_apply_and_check(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main(["rep", "apply", "--n", "2", "--lambda", "0.5",
                     "--g", "z:0.5|s|d:2.0", "--grid", "10,16",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) == 16
    assert all(len(v) == 2 for v in doc["values"])

    code, txt, _ = run(capsys, ["rep", "check", "--suite", "unitarity"])
    assert code == 0
    rows = json.loads(txt)
    assert rows and all(r["pass"] for r in rows)


def test_rep_apply_lands_a_dilated_kernel_letter_on_the_grid(capsys):
    # in d(2) s the kernel letter lands on the grid pulled back through d(2),
    # which carries it back onto the grid's nodes
    code, out, _ = run(capsys, ["rep", "apply", "--g", "d:2.0|s", "--grid", "10,16"])
    assert code == 0
    grid = grid_1d_sqrt(10.0, 16)
    assert json.loads(out)["nodes"] == grid.nodes.tolist()


def test_rep_apply_takes_the_operator_checks_grids(capsys):
    # --grid R,N is grid_1d_sqrt(R, N) at n = 2 and grid_2d_sqrt(R, N/4, N/4)
    # at n = 3, the grids of the registry's operator checks
    for n, grid in ((2, grid_1d_sqrt(10.0, 16)), (3, grid_2d_sqrt(10.0, 4, 4))):
        code, out, _ = run(capsys, ["rep", "apply", "--n", str(n), "--g", "d:2.0",
                                    "--grid", "10,16"])
        assert code == 0
        doc = json.loads(out)
        assert np.array_equal(np.asarray(doc["nodes"]) * 2.0, grid.nodes)
        assert len(doc["values"]) == grid.size


@pytest.mark.parametrize("n, grid, message", [
    (2, "0,64", "radius must be finite and positive"),
    (2, "nan,64", "radius must be finite and positive"),
    (2, "inf,64", "radius must be finite and positive"),
    (2, "-5,64", "radius must be finite and positive"),
    (3, "0,64", "radius must be finite and positive"),
    (3, "nan,64", "radius must be finite and positive"),
    (3, "inf,64", "radius must be finite and positive"),
    (3, "-5,64", "radius must be finite and positive"),
    (2, "25,7", "count must be even and at least 2 at n = 2"),
    (2, "25,0", "count must be even and at least 2 at n = 2"),
    (3, "25,4", "count must be a multiple of 4 and at least 8 at n = 3"),
    (3, "25,10", "count must be a multiple of 4 and at least 8 at n = 3"),
])
def test_rep_apply_rejects_a_grid_it_cannot_build(tmp_path, capsys, n, grid, message):
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, ["rep", "apply", "--n", str(n), "--g", "z:1.0" + ",0" * (n - 2),
                                     f"--grid={grid}", "--out", str(out)])
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert stdout == "" and list(tmp_path.iterdir()) == []


def test_specfun_eval_has_no_bessel_i(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["specfun", "eval", "--fn", "I", "--x", "1.0"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["rep", "apply", "--g", "s", "--grid", "10"],
    ["rep", "apply", "--g", "z:abc"],
    ["measure", "density", "--which", "mu", "--xi", "0.7,abc"],
    ["sample", "marginal", "--partition", "0.5,x", "--count", "2"],
    ["kernel", "tabulate", "--grid", "1,x"],
])
def test_malformed_numbers_are_errors_not_tracebacks(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] != "measure":
        argv = argv + ["--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["measure", "density", "--which", "mu", "--partition", "nan,0.3", "--xi", "1,1"],
    ["sample", "marginal", "--partition", "nan", "--count", "2"],
    ["specfun", "eval", "--fn", "V", "--x", "nan"],
    ["specfun", "eval", "--fn", "K", "--x", "nan"],
    ["rep", "apply", "--lambda", "nan", "--g", "z:1.0"],
    ["sample", "process", "--mass", "nan", "--count", "2"],
    ["sample", "process", "--eps", "nan", "--count", "2"],
])
def test_nan_arguments_are_domain_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] in ("sample", "rep"):
        argv = argv + ["--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert stdout == "" and list(tmp_path.iterdir()) == []


# the values of rep apply --g "z:1.0|s|d:2.0" --lambda 0.5 --grid 10,8 as
# (real, imag) pairs, pinned so that a change of the word interpreter keeps them
_REP_APPLY_HALF = [
    (-0.07529553120812393, -0.07231470880306481), (-0.056540507097775417, 0.24873289893581826),
    (0.0716040159971245, -0.13695821229889493), (1.0630800973059278, -0.051288500761488984),
    (1.0630800973059278, 0.051288500761488984), (0.0716040159971245, 0.13695821229889493),
    (-0.056540507097775417, -0.24873289893581826), (-0.07529553120812393, 0.07231470880306481),
]


@pytest.mark.parametrize("word, lam", [
    ("z:1.0|s|d:2.0", "-1"), ("z:1.0|s|d:2.0", "0"), ("z:1.0|s|d:2.0", "1"),
    ("z:1.0|s|d:2.0", "1.5"), ("z:1.0|s|d:2.0", "0.5"),
    # the lambda = 0 representation's route is reps.special_apply
    ("z:1.0|d:2.0", "0"), ("z:1.0|d:2.0", "-0.5"),
])
def test_rep_apply_needs_a_mass_in_the_representation_range(tmp_path, capsys, word, lam):
    # with a kernel letter the mass must lie in (0, d) = (0, 1) at n = 2, and
    # be positive without one
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, ["rep", "apply", "--g", word, f"--lambda={lam}",
                                     "--grid", "10,8", "--out", str(out)])
    if lam != "0.5":
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert stdout == "" and list(tmp_path.iterdir()) == []
        return
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["nodes"] == grid_1d_sqrt(10.0, 8).nodes.tolist()
    got = np.asarray(doc["values"])
    want = np.asarray(_REP_APPLY_HALF)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_unknown_check_ids_are_errors(tmp_path, capsys, monkeypatch):
    # a tolerance for a misspelt check in a config file
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"tolerances": {"kernel-involuton": 1e-9}}))
    code, out, err = run(capsys, ["check", "reps", "--config", str(cfgfile)])
    assert code == 1 and out == ""
    assert err.strip() == "error: tolerance for unknown check 'kernel-involuton'"
    # a stale id in a rep check group
    monkeypatch.setitem(cli._REP_SUITE_CHECKS, "tau", ("tensor-embedding-z-commutation",
                                                       "no-such-check"))
    code, out, err = run(capsys, ["rep", "check", "--suite", "tau", "--workers", "1"])
    assert code == 1 and out == ""
    assert err.strip() == "error: no check 'no-such-check' in suite 'reps'"


def test_rep_check_runs_only_the_checks_it_reports(capsys, monkeypatch):
    from currentlab import reps, suites

    builds = []
    real = reps.kernel_matrix

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(reps, "kernel_matrix", counting)
    code, txt, _ = run(capsys, ["rep", "check", "--suite", "tau", "--workers", "1"])
    assert code == 0
    assert builds == []
    rows = json.loads(txt)
    assert [r["check"] for r in rows] == ["tensor-embedding-z-commutation",
                                          "tensor-embedding-isometry"]
    # each check keeps its registry stream, so its residual is the one the
    # whole suite reports
    cfg = suites.RunConfig(workers=1)
    whole = {r.check_id: r.residual for r in suites.run_suite(cfg, "reps")}
    assert all(r["residual"] == whole[r["check"]] for r in rows)


def test_group_check(capsys):
    code, out, _ = run(capsys, ["group", "check", "--n", "3", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    m = np.asarray(doc["form_matrix"], dtype=float)
    assert m.size == 16


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("CURRENTLAB_SEED", "99")
    code, out, _ = run(capsys, ["check", "specfun"])
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_malformed_seed_env_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CURRENTLAB_SEED", "abc")
    code, out, err = run(capsys, ["sample", "marginal", "--count", "2",
                                  "--out", str(tmp_path / "m.jsonl")])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sample", "marginal", "--count", "2"],
    ["sample", "process", "--count", "2"],
    ["kernel", "tabulate", "--grid", "0.5,1.0"],
    ["rep", "apply", "--g", "z:1.0|s", "--grid", "10,8"],
    ["check", "specfun"],
])
def test_output_path_errors_leave_no_file(tmp_path, capsys, argv):
    # into a missing directory, and onto a directory, where the .tmp is
    # written and then cannot replace the target
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "missing" / "out", tmp_path / "taken"):
        code, stdout, err = run(capsys, argv + ["--out", str(out)])
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "taken"]
        assert list((tmp_path / "taken").iterdir()) == []
