import contextlib
import io
import json
import multiprocessing
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from openquad import _blas, cli, spectra
from openquad.model import ChainParams, xy_redfield_model
from openquad.ness import observable_report, steady_state
from openquad.spectra import spectral_gap


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "openquad.cli", *args],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------- fits


def test_fit_power_law_exact():
    xs = np.array([2.0, 3.0, 5.0, 8.0, 13.0])
    ys = 4.0 * xs**-3
    expo, pref, resid = cli.fit_power_law(xs, ys)
    assert expo == pytest.approx(-3.0, abs=1e-12)
    assert pref == pytest.approx(4.0, rel=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        cli.fit_power_law([1, 2, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        cli.fit_power_law(xs, -ys)


def test_fit_exponential_exact():
    ns_ = np.arange(4, 16)
    ys = 0.7 * np.exp(-1.3 * ns_)
    rate, pref, resid = cli.fit_exponential(ns_, ys)
    assert rate == pytest.approx(1.3, abs=1e-12)
    assert pref == pytest.approx(0.7, rel=1e-9)
    assert resid < 1e-12


def test_fit_karevski_recovers_synthetic():
    lams = np.array([0.05, 0.1, 0.2, 0.3, 0.45, 0.7, 1.0])
    a, b = 0.088, 0.0071
    qs = a * lams**2 / (b + lams**4)
    af, bf, resid = cli.fit_karevski(lams, qs)
    assert af == pytest.approx(a, abs=1e-6)
    assert bf == pytest.approx(b, abs=1e-6)
    assert resid < 1e-10
    with pytest.raises(ValueError):
        cli.fit_karevski(lams[:4], qs[:4])
    with pytest.raises(ValueError):
        cli.fit_karevski(lams, np.sort(qs))  # maximum at the edge


# ------------------------------------------------------------ validation


def test_invalid_configs_exit_2(tmp_path, capsys):
    cases = [
        {"task": "fly_me_to_the_moon", "model": {"n": 4}},
        {"task": "ness"},  # missing model
        {"task": "ness", "model": {"n": 1}},
        {"task": "ness", "model": {"n": 8}, "bath": {"type": "squeezed"}},
        {"task": "sweep", "model": {"n": 8}},  # missing sweep block
        {"task": "sweep", "model": {"n": 8}, "sweep": {"parameter": "bogus", "values": [1, 2]}},
        {"task": "sweep", "model": {"n": 8}, "sweep": {"parameter": "h", "values": [0.5]}},
        {"task": "oracle_check", "model": {"n": 5}},
        {"task": "ness", "model": {"n": 8}, "output": {"format": "parquet"}},
        {"task": "ness", "model": {"n": 8}, "bath": {"beta_L": -2.0}},
        {"task": "ness", "model": {"n": 8}, "bath": "hot"},
        {"task": "ness", "model": {"n": 8}, "output": "x"},
        {"task": "sweep", "model": {"n": 8}, "sweep": {"parameter": "h", "values": ["a", "b"]}},
        {"task": "dynamics", "model": {"n": 3}, "dynamics": {"num_times": "x"}},
        {"task": "ness", "model": {"n": 8, "h": "nan"}},
        {"task": "ness", "model": {"n": 8}, "bath": {"lambda": -1}},
        {"task": "dynamics", "model": {"n": 3}, "dynamics": {"pairs": [[1, 2], [3, 40]]}},
        {"task": "dynamics", "model": {"n": 3}, "dynamics": {"pairs": [[0, 2], [3, 4]]}},
        {"task": "dynamics", "model": {"n": 3}, "dynamics": {"pairs": [[1, 2], [3, 1e999]]}},
        {"task": "ness", "model": {"n": 4.7}},
        {"task": "ness", "model": {"n": 1e300}},
        {"task": "dynamics", "model": {"n": 3}, "dynamics": {"num_times": 1.5}},
        {"task": "gap_scaling", "model": {"n": 8}, "sizes": [16, 24.5, 32, 40]},
        {"task": "sweep", "model": {"n": 4}, "sweep": {"parameter": "n", "values": [4.7, 6]}},
        {"task": "sweep", "model": {"n": 4}, "sweep": {"parameter": "n", "values": [1, 6]}},
        {"task": "sweep", "model": {"n": 4},
         "sweep": {"parameter": "n", "start": 4, "stop": 20001, "count": 2}},
        {"task": "sweep", "model": {"n": 4},
         "sweep": {"parameter": "n", "start": 4, "stop": 9, "count": 3}},
        {"task": "sweep", "model": {"n": 4, "h": 0.5},
         "sweep": {"parameter": ["h", "n"], "values": [0.5, 0.7],
                   "axis2": {"values": [4, 6.5]}}},
        {"task": "dynamics", "model": {"n": 3}, "dynamics": {"num_times": 1_000_001}},
        {"task": "ness", "model": {"n": 8},
         "bath": {"type": "lindblad", "rates": [-0.5, 0.3, 0.5, 0.1]}},
        {"task": "dynamics", "model": {"n": 3}, "dynamics": {"t_max": -1.0}},
        # a Lindblad bath has no temperatures or coupling strength to sweep
        {"task": "sweep", "model": {"n": 4}, "bath": {"type": "lindblad"},
         "sweep": {"parameter": "lambda", "values": [0.1, 0.5, 0.9]}},
    ]
    # in-process: a fresh interpreter per case would cost 0.6 s of imports
    for payload in cases:
        cfg = write_config(tmp_path, payload)
        code = cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, (payload, err)
        assert len(err.strip().splitlines()) == 1, (payload, err)
    # and one case through a real interpreter
    cfg = write_config(tmp_path, cases[0])
    assert_exit_2_one_line(run_cli("run", str(cfg), "--output-dir", str(tmp_path / "out")))


def test_missing_config_file_exit_2(tmp_path):
    proc = run_cli("run", str(tmp_path / "nope.json"))
    assert proc.returncode == 2


def assert_exit_2_one_line(proc):
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


def test_config_path_that_is_a_directory_exit_2(tmp_path):
    assert_exit_2_one_line(run_cli("run", str(tmp_path)))


def test_config_that_is_not_utf8_exit_2(tmp_path):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"task": "ness", "model": {"n": 4}, "note": "\u00e9"}'.encode("latin-1"))
    assert_exit_2_one_line(run_cli("run", str(cfg)))


def test_output_dir_naming_a_file_exit_2(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    cfg = write_config(tmp_path, {"task": "ness", "model": {"n": 4}})
    proc = run_cli("run", str(cfg), "--output-dir", str(blocker))
    assert_exit_2_one_line(proc)
    assert "output directory" in proc.stderr
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("name", ["ness.csv", "ness.meta.json"])
def test_output_file_that_cannot_be_written_exit_2(tmp_path, capsys, name):
    # a directory where the primary file or its sidecar should go
    blocker = tmp_path / "out" / name
    blocker.mkdir(parents=True)
    cfg = write_config(tmp_path, {"task": "ness", "model": {"n": 4}})
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert str(blocker) in err
    assert blocker.is_dir()


def test_output_directory_below_a_file_exit_2(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    payload = {"task": "ness", "model": {"n": 4},
               "output": {"directory": str(blocker / "sub")}}
    proc = run_cli("run", str(write_config(tmp_path, payload)))
    assert_exit_2_one_line(proc)
    assert "output directory" in proc.stderr


def test_numerical_failure_exit_3(tmp_path):
    # lambda = 0 leaves a purely imaginary rapidity spectrum: no unique NESS
    cfg = write_config(
        tmp_path,
        {
            "task": "ness",
            "model": {"n": 4, "gamma": 0.5, "h": 0.9},
            "bath": {"lambda": 0.0},
            "output": {"directory": str(tmp_path / "out")},
        },
    )
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 3, proc.stderr
    assert "NonUniqueNESS" in proc.stderr


def test_refused_dynamics_run_writes_one_stderr_line(tmp_path):
    # normal_modes warns for the vanishing rapidity that the correlator
    # then refuses: the refusal is the one line
    cfg = write_config(tmp_path, {"task": "dynamics", "model": {"n": 8, "h": 1e150}})
    proc = run_cli("run", str(cfg), "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "NonUniqueNESSError" in proc.stderr


@pytest.mark.parametrize("parameters", [["h", "h"], ["beta_L", "delta_beta"],
                                        ["delta_beta", "beta_R"]])
def test_sweep_axes_that_would_overwrite_each_other_exit_2(tmp_path, capsys, parameters):
    # a repeated name, or delta_beta, which resets both temperatures, swept
    # with one of them: every value of one axis would write the same rows
    payload = {"task": "sweep", "model": {"n": 4},
               "sweep": {"parameter": parameters, "values": [0.5, 0.7],
                         "axis2": {"values": [0.1, 0.2]}}}
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "sweep.parameter" in err, err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_json_output_is_strict_json(tmp_path):
    # the ness C_res of n = 3 is NaN, which is null in strict JSON
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    primary = cli.run({"task": "ness", "model": {"n": 3}}, output_dir=str(tmp_path), fmt="json")
    rows = json.loads(primary.read_text(), parse_constant=refuse)
    (c_res,) = [row["value"] for row in rows if row["quantity"] == "C_res"]
    assert c_res is None


# Config fuzzing.  Numbers stay within [-3, 6] and time counts at most 20,
# so that every model a run can build has n <= 6 and no example is
# expensive; the one huge size, 1e300, fails before any array is built.
JUNK = st.sampled_from(
    [None, True, "x", "4", [], [1], {}, {"a": 1}, float("nan"), float("inf"), -1, 0]
)


def mostly(valid, junk=JUNK):
    """``valid`` nine times in ten, else ``junk``, so that most examples
    get past the first field."""
    return st.integers(0, 9).flatmap(lambda k: junk if k == 0 else valid)


NUMBER = mostly(st.one_of(st.floats(-3.0, 6.0), st.integers(-3, 6)))
SIZE = mostly(
    st.integers(2, 6),
    st.one_of(JUNK, st.sampled_from([-1, 1, 2.5, "3", 1e300, float("-inf")])),
)
NUMBERS = mostly(
    st.lists(NUMBER, min_size=4, max_size=4),
    st.one_of(JUNK, st.lists(NUMBER, max_size=5)),
)
AXIS = st.fixed_dictionaries(
    {},
    optional={
        "values": mostly(st.lists(NUMBER, max_size=3)),
        "start": NUMBER,
        "stop": NUMBER,
        "count": mostly(st.integers(-1, 3)),
        "spacing": st.sampled_from(["linear", "log", 3]),
    },
)
CONFIGS = st.fixed_dictionaries(
    {
        "task": mostly(st.sampled_from(cli.TASKS)),
        "model": mostly(
            st.fixed_dictionaries({"n": SIZE}, optional={"gamma": NUMBER, "h": NUMBER})
        ),
        # always present: the default gap_scaling sizes reach n = 96
        "sizes": mostly(st.lists(SIZE, min_size=3, max_size=6)),
        "sweep": mostly(
            st.one_of(
                st.fixed_dictionaries(
                    {
                        "parameter": mostly(st.sampled_from(cli.SWEEPABLE)),
                        "values": mostly(st.lists(NUMBER, max_size=3)),
                    }
                ),
                st.fixed_dictionaries(
                    {
                        "parameter": mostly(
                            st.lists(st.sampled_from(cli.SWEEPABLE), max_size=3)
                        ),
                        "axis1": AXIS,
                        "axis2": AXIS,
                    }
                ),
            )
        ),
        "dynamics": mostly(
            st.fixed_dictionaries(
                {},
                optional={
                    "pairs": mostly(st.lists(st.lists(SIZE, max_size=3), max_size=3)),
                    "t_max": NUMBER,
                    "num_times": mostly(st.integers(-1, 20)),
                },
            )
        ),
    },
    optional={
        "bath": mostly(
            st.fixed_dictionaries(
                {},
                optional={
                    "type": mostly(st.sampled_from(["redfield", "lindblad"])),
                    "beta_L": NUMBER,
                    "beta_R": NUMBER,
                    "lambda": NUMBER,
                    "kappa": NUMBERS,
                    "theta": NUMBERS,
                    "rates": NUMBERS,
                },
            )
        ),
        "output": mostly(
            st.fixed_dictionaries(
                {}, optional={"format": mostly(st.sampled_from(["csv", "json"]))}
            )
        ),
    },
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(raw=CONFIGS)
def test_fuzzed_configs_never_crash(raw):
    # any config exits 0, 2 (config error) or 3 (numerical failure) with a
    # message, never with an uncaught exception
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--output-dir", str(Path(tmp) / "out")])
    assert code in (0, 2, 3), (raw, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()
    if code:
        assert err.getvalue().strip()


# ----------------------------------------------------------------- writer


def reference_fmt(value) -> str:
    """The per-cell formatting of the row-list writer, kept as the byte
    reference of the block writer."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return "nan"
    return format(v, ".17g")


def reference_table(header, rows, fmt) -> bytes:
    """The row-list writer: one formatted cell at a time, one joined file."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(reference_fmt(v) for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    # JSON has no token for a NaN or an infinity: such a cell is null
    payload = [{key: None if isinstance(v, float) and not np.isfinite(v) else v
                for key, v in zip(header, row)} for row in rows]
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def reference_ness_rows(rep):
    """The ness table as the row-list writer's task built it."""
    n, C = len(rep.s_z), rep.correlations
    rows = [["s_z", m, "", v] for m, v in enumerate(rep.s_z, start=1)]
    rows += [["C", l + 1, m + 1, C[l, m]] for l in range(n) for m in range(n)]
    rows += [["C_r", r, "", v] for r, v in enumerate(rep.correlation_decay)]
    rows.append(["C_res", "", "", rep.residual_correlator])
    for name, profile in (("Q", rep.heat_current), ("H_m", rep.energy_density),
                          ("f", rep.energy_fluctuation)):
        rows += [[name, m, "", v] for m, v in enumerate(profile, start=1)]
    for name in ("entropy_left", "entropy_right", "entropy_total"):
        rows.append([name, "", "", getattr(rep, name)])
    rows.append(["qmi", "", "", rep.mutual_information])
    rows.append(["positivity_excess", "", "", rep.positivity_excess])
    rows.append(["spectral_gap", "", "", rep.spectral_gap])
    return rows


def written(tmp_path, header, blocks, fmt) -> bytes:
    path = tmp_path / f"table.{fmt}"
    cli.write_table(path, header, blocks, fmt)
    return path.read_bytes()


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, 1.0, -2.5e-17]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_writer_matches_the_row_writer_on_special_values(tmp_path, fmt):
    header = ["name", "i", "j", "value"]
    ints = [3, -4, 0, 2**40] + ([np.int64(-7)] if fmt == "csv" else [])  # json has no numpy ints
    rows = [[None, "", "a%d,b", np.float64(0.5)]]
    rows += [["int", v, "", float(k)] for k, v in enumerate(ints)]
    rows += [["f", k, "", v] for k, v in enumerate(SPECIAL)]
    rows += [["np", k, "", np.float64(v)] for k, v in enumerate(SPECIAL)]
    rows += [["x", None, v, "%s"] for v in SPECIAL[:3]]
    # the same table as one-row blocks and as blocks of sequence columns
    blocks = [rows[0], ("int", ints, "", np.arange(len(ints), dtype=float))]
    blocks += [("f", range(len(SPECIAL)), "", SPECIAL)]
    blocks += [("np", np.arange(len(SPECIAL)), "", np.array(SPECIAL))]
    blocks += [("x", None, tuple(SPECIAL[:3]), "%s"), ("empty", [], "", np.array([]))]
    expected = reference_table(header, rows, fmt)
    assert written(tmp_path, header, rows, fmt) == expected
    assert written(tmp_path, header, blocks, fmt) == expected


def test_block_columns_must_be_flat_numbers_of_one_length(tmp_path):
    with pytest.raises(TypeError):
        cli.write_table(tmp_path / "t.csv", ["a"], [(np.ones((2, 2)),)], "csv")
    with pytest.raises(TypeError):
        cli.write_table(tmp_path / "t.csv", ["a"], [(["x", "y"],)], "csv")
    with pytest.raises(ValueError):
        cli.write_table(tmp_path / "t.csv", ["a", "b"], [([1, 2], [1.0])], "csv")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_writer_matches_the_row_writer_on_ness_and_sweep(tmp_path, fmt):
    model = xy_redfield_model(ChainParams(12, 0.5, 0.9))
    state = steady_state(model)
    rep = observable_report(state.two_point, model.params, gap=spectral_gap(state))
    header = ["quantity", "i", "j", "value"]
    assert written(tmp_path, header, cli._ness_blocks(rep), fmt) == reference_table(
        header, reference_ness_rows(rep), fmt
    )

    cfg = cli.ExperimentConfig.from_dict({
        "task": "sweep", "model": {"n": 4},
        "sweep": {"parameter": "lambda", "values": [0.2, 0.0, 0.1]},
    })
    header, rows = cli._task_sweep(cfg, workers=1)
    assert any(row[-1] for row in rows)  # lambda = 0 is an error row
    assert written(tmp_path, header, rows, fmt) == reference_table(header, rows, fmt)


def test_ness_table_is_written_without_a_row_list(tmp_path):
    # the row list of a 400-site table and its joined file peak at 44 MB
    n, rng = 400, np.random.default_rng(7)
    rep = SimpleNamespace(
        s_z=rng.normal(size=n), correlations=rng.normal(size=(n, n)),
        correlation_decay=rng.normal(size=n // 2), residual_correlator=0.1,
        heat_current=rng.normal(size=n - 1), energy_density=rng.normal(size=n - 1),
        energy_fluctuation=rng.normal(size=n - 1), entropy_left=1.0,
        entropy_right=2.0, entropy_total=3.0, mutual_information=None,
        positivity_excess=0.0, spectral_gap=1e-3,
    )
    tracemalloc.start()
    try:
        cli.write_table(tmp_path / "ness.csv", ["quantity", "i", "j", "value"],
                        cli._ness_blocks(rep), "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20
    lines = (tmp_path / "ness.csv").read_text().splitlines()
    assert len(lines) == 1 + n + n * n + n // 2 + 1 + 3 * (n - 1) + 6


# ------------------------------------------------------------------ tasks


def test_ness_task_and_determinism(tmp_path):
    payload = {
        "task": "ness",
        "model": {"n": 10, "gamma": 0.5, "h": 0.9},
        "output": {"directory": str(tmp_path / "a")},
    }
    cfg = write_config(tmp_path, payload)
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 0, proc.stderr
    first = (tmp_path / "a" / "ness.csv").read_bytes()
    meta = json.loads((tmp_path / "a" / "ness.meta.json").read_text())
    assert meta["config"] == payload
    assert "wall_time_s" in meta and "version" in meta
    assert meta["write_time_s"] >= 0
    libraries = meta["libraries"]
    assert libraries["numpy"]["version"] == np.__version__
    assert libraries["scipy"]["version"] == scipy.__version__
    for lib in ("numpy", "scipy"):
        assert set(libraries[lib]["blas"]) == {"name", "version"}
        assert libraries[lib]["blas"]["name"]

    payload["output"]["directory"] = str(tmp_path / "b")
    cfg = write_config(tmp_path, payload, "config2.json")
    assert run_cli("run", str(cfg)).returncode == 0
    second = (tmp_path / "b" / "ness.csv").read_bytes()
    assert first == second  # byte-identical reruns

    lines = first.decode().splitlines()
    assert lines[0] == "quantity,i,j,value"
    quantities = {line.split(",")[0] for line in lines[1:]}
    assert {"s_z", "C", "C_res", "Q", "H_m", "entropy_total", "qmi"} <= quantities


def test_model_is_released_before_the_report(monkeypatch):
    # the model's complex 2n x 2n H must not be alive while the report runs
    refs, alive = [], []
    build, report = cli.build_model, cli.observable_report

    def recording_build(cfg, **overrides):
        model = build(cfg, **overrides)
        refs.append(weakref.ref(model))
        return model

    def checking_report(*args, **kwargs):
        alive.append(refs[-1]() is not None)
        return report(*args, **kwargs)

    monkeypatch.setattr(cli, "build_model", recording_build)
    monkeypatch.setattr(cli, "observable_report", checking_report)
    cfg = cli.ExperimentConfig.from_dict({"task": "ness", "model": {"n": 8}})
    header, blocks = cli._task_ness(cfg)
    list(blocks)
    assert isinstance(cli._sweep_point((cfg, {"h": 0.5})), dict)
    assert alive == [False, False]


def test_sweep_ordering_error_rows_and_workers(tmp_path):
    payload = {
        "task": "sweep",
        "model": {"n": 8, "gamma": 0.5, "h": 0.5},
        "sweep": {"parameter": "lambda", "values": [0.2, 0.0, 0.1]},
        "output": {"directory": str(tmp_path / "w1")},
    }
    cfg = write_config(tmp_path, payload)
    assert run_cli("run", str(cfg)).returncode == 0
    rows = (tmp_path / "w1" / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[0] == "lambda" and header[-1] == "error"
    values = [float(r.split(",")[0]) for r in rows[1:]]
    assert values == sorted(values)  # ascending regardless of input order
    # the lambda = 0 point fails but the sweep continues
    err_row = rows[1]
    assert "NonUniqueNESS" in err_row

    payload["output"]["directory"] = str(tmp_path / "w4")
    cfg = write_config(tmp_path, payload, "c4.json")
    assert run_cli("run", str(cfg), "--workers", "3").returncode == 0
    assert (tmp_path / "w1" / "sweep.csv").read_text().splitlines()[1:] == (
        tmp_path / "w4" / "sweep.csv"
    ).read_text().splitlines()[1:]


def test_workers_below_one_exit_2(tmp_path):
    payload = {"task": "sweep", "model": {"n": 6},
               "sweep": {"parameter": "h", "values": [0.5, 0.9]}}
    cfg = write_config(tmp_path, payload)
    for workers in ("0", "-3"):
        proc = run_cli("run", str(cfg), "--output-dir", str(tmp_path), "--workers", workers)
        assert proc.returncode == 2, proc.stderr
        assert "workers" in proc.stderr
    with pytest.raises(cli.ConfigError):
        cli.run(payload, output_dir=str(tmp_path), workers=0)


@pytest.mark.parametrize(
    "workers, cpus, expected",
    [(64, 3, 3), (64, 8, 5), (2, 8, 2), (1, 8, None)],
    ids=["cpu_bound", "point_bound", "worker_bound", "serial"],
)
def test_sweep_pool_size_is_capped(tmp_path, monkeypatch, workers, cpus, expected):
    # the pool is a stand-in that maps serially: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, processes, initializer=None):
            sizes.append(processes)
            assert initializer is _blas.single_threaded

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(job) for job in jobs]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    payload = {"task": "sweep", "model": {"n": 4},
               "sweep": {"parameter": "h", "values": [0.3, 0.5, 0.7, 0.9, 1.1]}}
    out = cli.run(payload, output_dir=str(tmp_path), workers=workers)
    assert sizes == ([] if expected is None else [expected])
    assert len(out.read_text().splitlines()) == 6


def test_forked_sweep_matches_the_serial_one_at_n53(tmp_path):
    # forked workers run BLAS on one thread, so their rows may differ from
    # the serial run's in the last bits only
    payload = {"task": "sweep", "model": {"n": 53, "gamma": 0.5, "h": 0.9},
               "sweep": {"parameter": ["beta_L", "beta_R"],
                         "axis1": {"values": [0.2, 2.0]},
                         "axis2": {"values": [0.5, 5.0]}}}
    tables = []
    for workers in (1, 2):
        out = cli.run(payload, output_dir=str(tmp_path / f"w{workers}"), workers=workers)
        lines = out.read_text().splitlines()
        tables.append([line.split(",") for line in lines])
    serial, forked = tables
    assert serial[0] == forked[0] and len(serial) == len(forked) == 5
    for a, b in zip(serial[1:], forked[1:]):
        assert a[-1] == b[-1] == ""
        np.testing.assert_allclose(
            np.array(b[:-1], dtype=float), np.array(a[:-1], dtype=float), rtol=0, atol=1e-10
        )


def test_sweep_and_ness_tasks_agree(tmp_path):
    # both tasks read their values off one observable report, so a sweep
    # point writes the very bytes of the ness run at the same parameters
    model = {"n": 12, "gamma": 0.5, "h": 0.9}
    sweep = cli.run(
        {"task": "sweep", "model": model, "sweep": {"parameter": "h", "values": [0.5, 0.9]}},
        output_dir=str(tmp_path / "sweep"),
    )
    ness = cli.run({"task": "ness", "model": model}, output_dir=str(tmp_path / "ness"))
    lines = sweep.read_text().splitlines()
    point = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert point["h"] == "0.90000000000000002" and point["error"] == ""
    rows = {}
    for line in ness.read_text().splitlines()[1:]:
        quantity, i, _, value = line.split(",")
        rows[quantity, i] = value
    assert point["s_z_center"] == rows["s_z", "6"]
    assert point["gap"] == rows["spectral_gap", ""]
    for column in ("C_res", "qmi", "entropy_total", "positivity_excess"):
        assert point[column] == rows[column, ""], column


def test_sweep_2d_grid(tmp_path):
    payload = {
        "task": "sweep",
        "model": {"n": 6, "gamma": 0.5, "h": 0.9},
        "sweep": {
            "parameter": ["beta_L", "beta_R"],
            "axis1": {"values": [0.5, 0.25]},
            "axis2": {"start": 1.0, "stop": 4.0, "count": 2, "spacing": "log"},
        },
        "output": {"directory": str(tmp_path / "g")},
    }
    cfg = write_config(tmp_path, payload)
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "g" / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("beta_L,beta_R,")
    assert len(rows) == 5
    pts = [tuple(float(x) for x in r.split(",")[:2]) for r in rows[1:]]
    assert pts == sorted(pts)


def test_gap_scaling_task(tmp_path):
    payload = {
        "task": "gap_scaling",
        "model": {"n": 16, "gamma": 0.5, "h": 0.9},
        "sizes": [8, 12, 16, 20, 24],
        "output": {"directory": str(tmp_path / "gap"), "format": "json"},
    }
    cfg = write_config(tmp_path, payload)
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "gap" / "gap_scaling.json").read_text())
    assert [r["n"] for r in rows] == [8, 12, 16, 20, 24]
    assert all(r["gap"] > 0 for r in rows)
    assert rows[0]["fit_exponent"] == rows[-1]["fit_exponent"]


def test_gap_scaling_reads_eigenvalues_only(tmp_path, monkeypatch):
    # the gap scan reads eigenvalues only: a Schur form (with Schur vectors,
    # numpy's or scipy's) anywhere on its path would raise here
    def refuse(*args, **kwargs):
        raise AssertionError("the gap scan must not take a Schur form")

    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    monkeypatch.setattr(spectra, "real_schur", refuse)
    payload = {
        "task": "gap_scaling",
        "model": {"n": 16, "gamma": 0.5, "h": 0.9},
        "sizes": [8, 12, 16, 20],
        "output": {"directory": str(tmp_path / "gap")},
    }
    assert cli.main(["run", str(write_config(tmp_path, payload))]) == 0
    assert (tmp_path / "gap" / "gap_scaling.csv").exists()


def test_runs_never_import_scipy_linalg(tmp_path):
    # every solver LAPACK call is numpy's (openquad._blas): importing the
    # package and the CLI, and running a ness, sweep, gap_scaling or
    # dynamics task, leaves scipy.linalg unloaded
    tasks = [
        {"task": "ness", "model": {"n": 6, "gamma": 0.5, "h": 0.9}},
        {"task": "sweep", "model": {"n": 4},
         "sweep": {"parameter": "h", "values": [0.5, 0.9]}},
        {"task": "gap_scaling", "model": {"n": 8, "gamma": 0.5, "h": 0.9}, "sizes": [4, 5, 6, 8]},
        {"task": "dynamics", "model": {"n": 3, "gamma": 0.5, "h": 0.9},
         "dynamics": {"pairs": [[1, 2], [3, 4]], "t_max": 5.0, "num_times": 11}},
    ]
    script = (
        "import json, sys\n"
        "import openquad, openquad.cli\n"
        "loaded = ['import'] if 'scipy.linalg' in sys.modules else []\n"
        "for i, payload in enumerate(json.loads(sys.argv[1])):\n"
        "    openquad.cli.run(payload, output_dir=f'{sys.argv[2]}/{i}')\n"
        "    if 'scipy.linalg' in sys.modules and not loaded:\n"
        "        loaded.append(payload['task'])\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(tasks), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_dynamics_task(tmp_path):
    payload = {
        "task": "dynamics",
        "model": {"n": 3, "gamma": 0.5, "h": 0.9},
        "dynamics": {"pairs": [[1, 2], [1, 2]], "t_max": 5.0, "num_times": 11},
        "output": {"directory": str(tmp_path / "dyn")},
    }
    cfg = write_config(tmp_path, payload)
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "dyn" / "dynamics.csv").read_text().splitlines()
    assert rows[0] == "t,re,im"
    assert len(rows) == 12


def test_oracle_check_task(tmp_path):
    for bath in ("redfield", "lindblad"):
        payload = {
            "task": "oracle_check",
            "model": {"n": 2, "gamma": 0.5, "h": 0.9},
            "bath": {"type": bath},
            "output": {"directory": str(tmp_path / f"oc_{bath}")},
        }
        cfg = write_config(tmp_path, payload, f"{bath}.json")
        proc = run_cli("run", str(cfg))
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / f"oc_{bath}" / "oracle_check.csv").read_text().splitlines()
        assert rows[0] == "check,n,model,max_abs_deviation"
        devs = [float(r.split(",")[-1]) for r in rows[1:]]
        assert max(devs) <= 1e-8


def test_seed_flag_accepted(tmp_path):
    payload = {
        "task": "ness",
        "model": {"n": 6, "gamma": 0.5, "h": 0.9},
        "output": {"directory": str(tmp_path / "s")},
    }
    cfg = write_config(tmp_path, payload)
    assert run_cli("run", str(cfg), "--seed", "42").returncode == 0


# ------------------------------------------- one bath eigh per Hamiltonian

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def count_eigh(monkeypatch):
    """Record each eigh of K^T K the bath makes (``_blas.gram_eigh``)."""
    calls = []
    eigh = spectra.gram_eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectra, "gram_eigh", counting_eigh)
    return calls


def tok_entropy_sweep(values):
    """fig_tok_entropy (Redfield n = 53) on a grid of the given inverse
    temperatures on both axes."""
    raw = json.loads((CONFIG_DIR / "fig_tok_entropy.json").read_text())
    raw["sweep"] = {"parameter": ["beta_L", "beta_R"],
                    "axis1": {"values": values}, "axis2": {"values": values}}
    return raw


def test_a_temperature_sweep_does_one_bath_eigh(tmp_path, monkeypatch):
    calls = count_eigh(monkeypatch)
    out = cli.run(tok_entropy_sweep([0.02, 0.2, 1.0, 5.2, 50.0]), output_dir=str(tmp_path))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 25 and not any(row[-1] for row in rows)
    assert len(calls) == 1


def test_a_field_sweep_does_one_bath_eigh_per_point(tmp_path, monkeypatch):
    calls = count_eigh(monkeypatch)
    payload = {"task": "sweep", "model": {"n": 53, "gamma": 0.5},
               "sweep": {"parameter": "h", "values": [0.5, 0.7, 0.9, 1.1]}}
    cli.run(payload, output_dir=str(tmp_path))
    assert len(calls) == 4


def test_nothing_is_kept_after_a_sweep(tmp_path, monkeypatch):
    cli.run(tok_entropy_sweep([0.5, 5.0]), output_dir=str(tmp_path))
    assert spectra._GRAM_EIGH_MEMO is None
    model = xy_redfield_model(ChainParams(53, 0.5, 0.9))
    calls = count_eigh(monkeypatch)
    spectra.bath_vectors(model)
    spectra.bath_vectors(model)
    assert len(calls) == 2


@contextlib.contextmanager
def blas_pool(threads):
    """numpy's OpenBLAS pool, the one a solve uses, on ``threads`` threads
    (one: as in a forked sweep worker)."""
    controls = _blas.thread_controls()
    if controls is None:
        pytest.skip("no OpenBLAS thread controls")
    get, set_ = controls
    previous = get()
    try:
        set_(threads)
        yield
    finally:
        set_(previous)


def test_forked_temperature_sweep_writes_the_bytes_of_a_serial_one(tmp_path):
    # each worker does its own eigh of K^T K and keeps it for its points;
    # with BLAS on one thread on both sides the CSVs are the same bytes
    raw = json.loads((CONFIG_DIR / "fig_deltabeta.json").read_text())
    raw["sweep"]["values"] = [0.05, 0.3, 0.8, 1.6]
    forked = cli.run(raw, output_dir=str(tmp_path / "w2"), workers=2)
    with blas_pool(1):
        serial = cli.run(raw, output_dir=str(tmp_path / "w1"), workers=1)
    assert forked.read_bytes() == serial.read_bytes()


# ------------------------------------------------ gap scans side by side


def spy_on_eigensolves(monkeypatch, failing_orders=()):
    """Record the thread of each eigensolve of X (``_blas.real_eigenvalues``);
    those of the given orders raise LinAlgError naming the order."""
    threads = []
    solve = _blas.real_eigenvalues

    def spy(X):
        threads.append(threading.get_ident())
        if len(X) in failing_orders:
            raise np.linalg.LinAlgError(f"eigensolve of order {len(X)} failed")
        return solve(X)

    monkeypatch.setattr(_blas, "real_eigenvalues", spy)
    return threads


def scan(raw, directory, threads):
    """``cli.main`` on the config ``raw`` with numpy's pool on ``threads``
    threads: its exit code and stderr.  The pool count and the number of
    Python threads after the run are those before it."""
    config = directory / "config.json"
    directory.mkdir()
    config.write_text(json.dumps(raw))
    active = threading.active_count()
    err = io.StringIO()
    with blas_pool(threads):
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", str(config), "--output-dir", str(directory)])
        assert _blas.thread_controls()[0]() == threads
    assert threading.active_count() == active
    return code, err.getvalue()


@pytest.mark.parametrize("h", ["0.3", "0.75", "0.8"])
def test_side_by_side_gap_scan_writes_the_rows_of_a_serial_one(tmp_path, monkeypatch, h):
    # the sizes solved side by side, each on one thread, give the bytes of a
    # scan that solves them one after another with the pool on one thread
    raw = json.loads((CONFIG_DIR / f"fig_gap_h{h}.json").read_text())
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    threads = spy_on_eigensolves(monkeypatch)
    assert scan(raw, tmp_path / "side_by_side", 2)[0] == 0
    assert set(threads) - {threading.get_ident()}, "no eigensolve ran on a helper"
    threads.clear()
    assert scan(raw, tmp_path / "serial", 1)[0] == 0
    assert set(threads) == {threading.get_ident()}
    side_by_side, serial = (tmp_path / side / "gap_scaling.csv" for side in ("side_by_side", "serial"))
    assert side_by_side.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize(
    "h, failing, message",
    [(0.9, {24}, "order 24 failed"),
     (0.9, {40, 96}, "order 40 failed"),
     (0.9, {16, 24, 40, 96}, "order 16 failed"),
     (1e160, (), "overflows")],
    ids=["one", "two", "all", "overflow"],
)
def test_a_failed_size_is_reported_as_a_serial_scan_reports_it(
    tmp_path, monkeypatch, h, failing, message
):
    # the first failure in ascending order of the sizes, whether its
    # eigensolve ran on a helper or its X failed to build on this thread
    raw = {"task": "gap_scaling", "model": {"n": 8, "gamma": 0.5, "h": h},
           "sizes": [8, 12, 20, 48]}
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    spy_on_eigensolves(monkeypatch, failing)
    side_by_side = scan(raw, tmp_path / "side_by_side", 2)
    serial = scan(raw, tmp_path / "serial", 1)
    assert side_by_side == serial
    code, err = serial
    assert code == 3 and len(err.splitlines()) == 1, err
    assert message in err
    assert not (tmp_path / "serial" / "gap_scaling.csv").exists()


def test_gap_scan_builds_and_reads_every_size_on_the_calling_thread(tmp_path, monkeypatch):
    # the bath memo, build_model and the spans of the traced benchmark are
    # single-threaded: the helpers run the eigensolve alone
    seen = {"build_model": [], "spectral_gap": []}
    for name in seen:
        def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
            seen[_name].append(threading.get_ident())
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    threads = spy_on_eigensolves(monkeypatch)
    raw = json.loads((CONFIG_DIR / "fig_gap_h0.8.json").read_text())
    assert scan(raw, tmp_path / "gap", 2)[0] == 0
    sizes = len(raw["sizes"])
    assert len(threads) == sizes and set(threads) - {threading.get_ident()}
    for calls in seen.values():
        assert calls == [threading.get_ident()] * sizes


@pytest.mark.parametrize("task", ["ness", "gap_scaling"])
def test_hamiltonian_beyond_float_range_exit_3(tmp_path, task):
    # |K|_1 |K|_inf of the bath overflows: refused, not an OverflowError
    cfg = write_config(tmp_path, {"task": task, "model": {"n": 8, "gamma": 0.5, "h": 1e160},
                                  "output": {"directory": str(tmp_path / "out")}})
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "numerical failure (ValueError): Ohmic bath: |H|_1 |H|_inf of the Hamiltonian overflows"
    ]
