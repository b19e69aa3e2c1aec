"""CLI: config parsing, command dispatch, deterministic outputs, exit codes."""

import math
import re
import subprocess
import sys

import pytest

from qclab.cli import ConfigError, main, parse_config


def run(args, tmp_path, config_text=None, out=None):
    argv = list(args)
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_from_empty_document():
    cfg = parse_config("")
    assert cfg.model == "atomistic"
    assert cfg.N == 64
    assert cfg.potential == "harmonic"
    assert cfg.F == 1.2


def test_parse_simple_document():
    cfg = parse_config("model=qnl\nN=1024\nF=1.2\n")
    assert cfg.model == "qnl" and cfg.N == 1024 and cfg.F == 1.2


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="modle"):
        parse_config("modle=qnl\n")


def test_malformed_number_reported_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("model=qnl\nN=twelve\n")


def test_multiple_errors_reported_together():
    try:
        parse_config("modle=qnl\nN=twelve\n")
    except ConfigError as exc:
        msg = str(exc)
        assert "modle" in msg and "twelve" in msg
    else:
        pytest.fail("expected ConfigError")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nmodel=qce  # trailing\n")
    assert cfg.model == "qce"


def test_partition_and_lists():
    cfg = parse_config("partition=0:0.25;0.5:0.75\nN_list=64,128\np_list=1,2,inf\n")
    assert cfg.partition == ((0.0, 0.25), (0.5, 0.75))
    assert cfg.N_list == (64, 128)
    assert cfg.p_list == (1.0, 2.0, math.inf)


def test_bad_model_and_witness_rejected():
    with pytest.raises(ConfigError, match="model"):
        parse_config("model=ecc\n")
    with pytest.raises(ConfigError, match="witness"):
        parse_config("witness=poly\n")


@pytest.mark.parametrize("text, want", [
    ("N=64\nN=128\n", "line 2: key 'N' repeats line 1"),
    ("model=qnl\n# N=32\nF=1.1\n\nmodel=qce\n", "line 5: key 'model' repeats line 1"),
    ("p_list=1,2\nN=64\np_list=inf\n", "line 3: key 'p_list' repeats line 1"),
], ids=["N", "model", "p_list"])
def test_repeated_key_is_named_with_both_lines(text, want):
    # the last value won silently, as a repeated p is refused within p_list
    with pytest.raises(ConfigError, match=re.escape(want)):
        parse_config(text)


def test_repeated_key_is_reported_with_the_other_errors():
    with pytest.raises(ConfigError) as info:
        parse_config("N=64\nF=x\nN=128\nN=256\nmodle=qnl\n")
    assert str(info.value) == (
        "line 2: bad value for 'F': could not convert string to float: 'x'; "
        "line 3: key 'N' repeats line 1; line 4: key 'N' repeats line 1; "
        "line 5: unknown key 'modle'"
    )


def test_line_without_equals_is_named():
    with pytest.raises(ConfigError, match=re.escape("line 2: expected key=value, got 'N 64'")):
        parse_config("model=qnl\nN 64\n")


def test_unknown_potential_is_named():
    with pytest.raises(ConfigError, match=re.escape("unknown potential 'morse'")):
        parse_config("potential=morse\n")


def test_interval_without_colon_is_named():
    with pytest.raises(ConfigError, match=re.escape(
            "line 1: bad value for 'partition': interval '0.75' is not of the form a:b")):
        parse_config("partition=0:0.25;0.75\n")


def test_exact_flag_parsing():
    assert parse_config("exact=true\n").exact is True
    with pytest.raises(ConfigError):
        parse_config("exact=yes\n")


# ---------------------------------------------------------------------------
# commands and exit codes


def test_energy_command_writes_csv(tmp_path):
    out = tmp_path / "energy.csv"
    code = run(["energy"], tmp_path, config_text="model=atomistic\nN=16\nF=1.0\nk=1\ns0=1\n",
               out=out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# qclab ")
    assert lines[1] == "model,potential,N,F,amplitude,energy"
    assert lines[2].startswith("atomistic,harmonic,16,1.0,0.0,")
    assert float(lines[2].rsplit(",", 1)[1]) == pytest.approx(0.5)


def test_energy_rejects_force_based_model(tmp_path, capsys):
    code = run(["energy"], tmp_path, config_text="model=qcf\n")
    assert code == 2
    assert "no energy" in capsys.readouterr().err


def test_stencil_names_a_singular_lennard_jones_bond_length(tmp_path, capsys):
    # exited 2 with evaluate's bare "lennard_jones is singular at s <= 0"
    assert run(["stencil"], tmp_path, config_text="potential = lj\nF = 0\n") == 2
    err = capsys.readouterr().err
    assert "singular at the bond length rF = 0.0 of shell r=1 (F=0.0)" in err


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["energy", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_stencil_command(tmp_path):
    out = tmp_path / "stencil.csv"
    code = run(["stencil"], tmp_path, config_text="model=qnl\nN=32\n", out=out)
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[1] == "atom,offset,coeff,ghost"
    assert out.with_suffix(".dat").exists()


def test_moments_exact_mode(tmp_path, capsys):
    out = tmp_path / "moments.csv"
    code = run(["moments", "--exact", "--report"], tmp_path,
               config_text="model=qnl\nN=64\nk=1\ns0=1\n", out=out)
    assert code == 0
    report = capsys.readouterr().out
    assert "exact rational recomputation agrees: True" in report
    assert "[33, 34, 63, 64]" in report


def test_ghost_outputs_are_byte_identical(tmp_path):
    text = "model=qce\nN_list=64,128,256\n"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["ghost"], tmp_path, config_text=text, out=a) == 0
    assert run(["ghost"], tmp_path, config_text=text, out=b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--report"], tmp_path,
               config_text="model=continuum\nN_list=64,128,256\n", out=out)
    assert code == 0
    assert "consistency exponent" in capsys.readouterr().out
    header = out.read_text().splitlines()[1]
    assert header == "N,epsilon,residual,model"


@pytest.mark.parametrize("model", ["qnl", "qce", "qcf"])
@pytest.mark.parametrize("N_list", ["64,128", "64"])
def test_sweep_without_a_slope_reports_nan(tmp_path, capsys, model, N_list):
    # the partition has no interface, so every residual is 0; that, and a
    # single rung, used to end in a config error from the slope fit
    out = tmp_path / "s.csv"
    code = run(["sweep", "--report"], tmp_path,
               config_text=f"model={model}\npartition=0:1\nN_list={N_list}\n", out=out)
    assert code == 0
    assert f"{model} consistency exponent nan (r^2 nan)" in capsys.readouterr().out
    rows = out.read_text().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["0.0"] * len(N_list.split(","))


def test_certify_command(tmp_path, capsys):
    out = tmp_path / "certify.csv"
    code = run(["certify", "--report"], tmp_path,
               config_text="m_min=1\nm_max=4\n", out=out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "m,value,min_residual,bound"
    assert all(line.split(",")[1] == "-2" for line in lines[2:])
    assert "force-based witness feasible" in capsys.readouterr().out


def test_certify_exact_report(tmp_path, capsys):
    code = run(["certify", "--exact", "--report"], tmp_path,
               config_text="m_min=4\nm_max=4\n")
    assert code == 0
    outtext = capsys.readouterr().out
    assert "bound^2 = 1/96" in outtext  # 4/384 reduced


def test_certify_bad_range(tmp_path):
    assert run(["certify"], tmp_path, config_text="m_min=3\nm_max=1\n") == 2


def test_converge_command_with_blocks(tmp_path):
    out = tmp_path / "conv.csv"
    code = run(["converge"], tmp_path,
               config_text="model=qnl\nN_list=64,128,256\np_list=1,inf\n", out=out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "model,N,epsilon,p,error_norm,slope_running"
    assert len(lines) == 2 + 6  # header block + 3 sizes x 2 norms
    dat = out.with_suffix(".dat").read_text()
    assert "\n\n\n" in dat  # gnuplot series separation

def test_converge_rejects_atomistic(tmp_path):
    assert run(["converge"], tmp_path, config_text="model=atomistic\n") == 2


def test_stdout_emission_without_out(tmp_path, capsys):
    code = run(["energy"], tmp_path, config_text="N=16\nF=1.0\nk=1\ns0=1\n")
    assert code == 0
    outtext = capsys.readouterr().out
    assert outtext.splitlines()[1] == "model,potential,N,F,amplitude,energy"


def test_selftest_passes(tmp_path, capsys):
    code = run(["selftest"], tmp_path)
    assert code == 0
    outtext = capsys.readouterr().out
    assert outtext.count("PASS criterion") == 7


def test_console_script_entry_point(tmp_path, src_env):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m_min=1\nm_max=2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qclab.cli", "certify", "--config", str(cfg), "--report"],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0
    assert "weighted sum -2" in proc.stdout


def test_import_loads_no_scipy(src_env):
    # only the stress form of a C wider than tridiagonal imports scipy.linalg,
    # on first use; importing qclab and its CLI loads none of scipy
    code = "import sys, qclab, qclab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


R2_SOLVES_THEN_A_WIDE_BAND = """
import sys
import numpy as np
from qclab import (ChainConfig, InterfaceStencil, ModelKind, RegionPartition,
                   assemble_operator, convergence_study, harmonic, solve_equilibrium)
from qclab.cli import main
ATOM_L2, CONT_L2 = {-2: -1, 0: 2, 2: -1}, {-1: -4, 0: 8, 1: -4}
part = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
witness = lambda x: np.sin(2.0 * np.pi * np.asarray(x) + 0.3)
for kind in ("qnl", "qcf"):
    convergence_study(kind, witness, [64, 128], [1, 2], harmonic(1.0, 1.0), partition=part)
assert main(["selftest"]) == 0
print("after R = 2:", "scipy.linalg" in sys.modules)
if sys.argv[1] == "custom":
    # a dense block: its diagonal cancels what each block row reads outside
    # it, and the zero-row-sum coupling 4 I - 1 1^T between all four block
    # atoms gives C nonzero diagonals at offsets +-2, which no trim removes
    outer = [sum(CONT_L2.get(j - i, 0) for j in (-1, 0)) + sum(ATOM_L2.get(j - i, 0) for j in (5, 6))
             for i in range(1, 5)]
    block = -np.diag(np.asarray(outer, dtype=float)) + 4.0 * np.eye(4) - np.ones((4, 4))
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.CUSTOM, config, harmonic(1.0, 1.0), partition=part,
                           stencil=InterfaceStencil(4, block))
else:
    config = ChainConfig(N=64, F=1.2, R=3)
    op = assemble_operator(ModelKind.ATOMISTIC, config, harmonic(1.0, 1.0))
solve_equilibrium(op, np.sin(2.0 * np.pi * config.positions()))
print(f"after {sys.argv[1]}:", "scipy.linalg" in sys.modules)
"""


def test_r2_solves_load_no_scipy_linalg(src_env):
    # a tridiagonal C or T solves in numpy: QNL and QCF ladders and the
    # selftest leave scipy.linalg unloaded. A C wider than that loads it, be
    # it CUSTOM with a dense block or a pure chain at R = 3; each runs in a
    # process of its own, so each is seen to load it
    for wide in ("custom", "R=3"):
        proc = subprocess.run([sys.executable, "-c", R2_SOLVES_THEN_A_WIDE_BAND, wide],
                              capture_output=True, text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-2:] == ["after R = 2: False", f"after {wide}: True"]


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import qclab.cli as cli
    from qclab.convergence import NumericalError

    def boom(*a, **k):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "convergence_study", boom)
    code = run(["converge"], tmp_path, config_text="model=qnl\nN_list=64,128\n")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_moments_exact_mode_fails_on_a_floating_deviation(tmp_path, capsys, monkeypatch):
    # one exact sum moved by 1: the floats no longer agree, and the run
    # exits 3 with the deviation
    import qclab.cli as cli

    exact_sums = cli._moment_sums

    def perturbed(op, ref, exact):
        sums = exact_sums(op, ref, exact)
        sums[32, 2] += 1
        return sums

    monkeypatch.setattr(cli, "_moment_sums", perturbed)
    code = run(["moments", "--exact", "--report"], tmp_path, config_text="model=qnl\nN=64\n")
    assert code == 3
    captured = capsys.readouterr()
    assert "exact rational recomputation agrees: False (worst deviation 1.00e+00)" in captured.out
    assert captured.err == ("numerical failure: floating moment residuals deviate "
                            "from exact arithmetic by 1.00e+00\n")


def test_moments_exact_mode_lennard_jones(tmp_path, capsys):
    # irrational moduli: the float path rounds, the rational path certifies it
    code = run(["moments", "--exact", "--report"], tmp_path,
               config_text="model=qnl\nN=64\npotential=lennard_jones\nF=1.1\n")
    assert code == 0
    assert "agrees: True" in capsys.readouterr().out


def test_moments_exact_mode_on_a_long_lennard_jones_chain(tmp_path, capsys):
    # the float sums deviate from the exact ones by 4e-9 at N = 4096, a few
    # eps_mach of their largest terms: they agree, and no row is listed
    code = run(["moments", "--exact", "--report"], tmp_path, out=tmp_path / "m.csv",
               config_text="model=continuum\nN=4096\nR=4\npotential=lennard_jones\nF=1.1\n")
    assert code == 0
    report = capsys.readouterr().out
    assert "exact rational recomputation agrees: True" in report
    assert "nonzero-moment rows: []" in report


def test_sweep_rejects_atomistic(tmp_path):
    assert run(["sweep"], tmp_path, config_text="model=atomistic\n") == 2


@pytest.mark.parametrize("command", ["sweep", "converge"])
def test_sweep_and_converge_reject_other_cutoffs(tmp_path, capsys, command):
    # both studies are defined on R = 2 chains; R = 3 must not print R = 2 rows
    code = run([command], tmp_path, config_text="model=continuum\nR=3\nN_list=64,128\n")
    assert code == 2
    captured = capsys.readouterr()
    assert "R=2 only, got R=3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["k", "s0", "F", "phase", "amplitude"])
def test_nonfinite_numbers_are_named_with_their_line(key):
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=rf"line 2: bad value for '{key}': must be finite"):
            parse_config(f"model=qnl\n{key}={value}\n")


@pytest.mark.parametrize("value", ["nan", "0.5", "-inf"])
def test_p_below_one_is_named_with_its_line(tmp_path, capsys, value):
    message = rf"line 2: bad value for 'p_list': p must lie in \[1, inf\], got '{value}'"
    with pytest.raises(ConfigError, match=message):
        parse_config(f"model=qnl\np_list=1,{value}\n")
    # the command names the key and the line too, and prints no rows
    code = run(["converge"], tmp_path, config_text=f"model=qnl\np_list=1,{value}\nN_list=64,128\n")
    assert code == 2
    captured = capsys.readouterr()
    assert re.search(message, captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep", "stencil", "converge"])
def test_nonfinite_input_is_a_config_error(tmp_path, capsys, command):
    for key in ("F", "k", "phase"):
        code = run([command], tmp_path, config_text=f"model=qnl\nN_list=64,128\n{key}=nan\n")
        assert code == 2
        captured = capsys.readouterr()
        assert f"bad value for '{key}'" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["converge", "ghost"])
def test_converge_names_an_N_list_that_does_not_increase(tmp_path, capsys, command):
    # a repeated size used to reach the slope fit (a RankWarning, slope 0.61);
    # ghost listed the rungs in the order given, with ratios 0.25 and 2.0
    N_list = "64,64" if command == "converge" else "256,64,128"
    code = run([command], tmp_path, config_text=f"model=qce\nN_list={N_list}\n")
    assert code == 2
    captured = capsys.readouterr()
    assert f"N_list must be strictly increasing, got [{N_list.replace(',', ', ')}]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["2,2", "1,inf,Infinity", "1, 2.0, 2"])
def test_converge_names_a_repeated_p(tmp_path, capsys, text):
    # a repeated p listed each (N, p) row twice, the second with a running
    # slope fitted through two points at one N; inf and Infinity are one p
    message = r"line 3: bad value for 'p_list': p = (2\.0|inf) is repeated"
    with pytest.raises(ConfigError, match=message):
        parse_config(f"model=qnl\nN_list=64,128,256\np_list={text}\n")
    out = tmp_path / "c.csv"
    code = run(["converge"], tmp_path,
               config_text=f"model=qnl\nN_list=64,128,256\np_list={text}\n", out=out)
    assert code == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("text", ["", " ", ",", " , "])
def test_converge_refuses_an_empty_p_list(tmp_path, capsys, text):
    # an empty p_list ran every solve, wrote only the header and exited 0
    message = r"line 3: bad value for 'p_list': name at least one p"
    with pytest.raises(ConfigError, match=message):
        parse_config(f"model=qnl\nN_list=64,128\np_list={text}\n")
    out = tmp_path / "c.csv"
    code = run(["converge"], tmp_path, config_text=f"model=qnl\nN_list=64,128\np_list={text}\n", out=out)
    assert code == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("where", ["option", "key"])
def test_an_out_path_ending_in_dat_is_refused(tmp_path, capsys, where):
    # the gnuplot twin goes to the path with suffix .dat: for such a path it
    # would overwrite the CSV, so the path is refused before any work
    out = tmp_path / "g.dat"
    if where == "option":
        code = run(["ghost"], tmp_path, config_text="N_list=32,64\n", out=out)
    else:
        code = run(["ghost"], tmp_path, config_text=f"N_list=32,64\nout={out}\n")
    assert code == 2
    captured = capsys.readouterr()
    assert f"out path {str(out)!r} ends in .dat" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("command", ["stencil", "moments"])
def test_stencil_and_moments_files_hold_plain_numbers(tmp_path, capsys, command):
    out = tmp_path / f"{command}.csv"
    code = run([command, "--report"], tmp_path, config_text="model=qce\nN=32\n", out=out)
    assert code == 0
    csv_rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    dat_rows = [line.split() for line in out.with_suffix(".dat").read_text().splitlines()[2:]]
    assert csv_rows and csv_rows == dat_rows
    for row in csv_rows:
        # the moments' p column names its test vector: 1, j or j2
        for cell in row[:1] + row[2:] if command == "moments" else row:
            float(cell)
    assert "np." not in capsys.readouterr().out


def test_only_config_and_out_errors_map_to_exit_2(tmp_path, capsys, monkeypatch):
    import qclab.cli as cli

    assert run(["energy"], tmp_path, config_text="N=16\n", out=tmp_path / "no" / "e.csv") == 2
    assert "config error" in capsys.readouterr().err

    def boom(*a, **k):
        raise PermissionError("not a config problem")

    monkeypatch.setattr(cli, "total_energy", boom)
    with pytest.raises(PermissionError):
        run(["energy"], tmp_path, config_text="N=16\n")


def test_closed_stdout_ends_the_run_quietly(tmp_path, src_env):
    # as in `qclab certify --report | head -1`: the reader leaves before the
    # command writes
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m_min=1\nm_max=12\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "qclab.cli", "certify", "--config", str(cfg), "--report"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env,
    )
    proc.stdout.close()
    _, err = proc.communicate()
    assert proc.returncode == 1
    assert err == b""
