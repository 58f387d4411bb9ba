"""Config-driven experiment runner.

Reads a JSON experiment description, builds the model, runs one task
(ness / sweep / gap_scaling / dynamics / oracle_check) and writes one
primary data file (CSV or JSON) plus a metadata sidecar.  Outputs are
deterministic: identical config, code version and --workers give
identical bytes (forked sweep workers run BLAS on one thread, so their
rows may differ from a serial run's in the last bits).  A gap scan
solves its sizes side by side on helper threads, as many as numpy's
BLAS pool has threads and the CPUs allow, and writes the bytes of a
scan that solves them one after another; --workers does not apply to
it.

    openquad run config.json [--output-dir DIR] [--workers N]
                             [--format csv|json] [--seed S]

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, product, repeat
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._blas import _real_eigenvalues_side_by_side, single_threaded
from .model import (
    DEFAULT_BETA_L,
    DEFAULT_BETA_R,
    DEFAULT_KAPPAS,
    DEFAULT_LAMBDA,
    DEFAULT_LINDBLAD_RATES,
    DEFAULT_THETAS,
    ChainParams,
    xy_lindblad_model,
    xy_redfield_model,
)
from .ness import NonUniqueNESSError, observable_report, steady_state
from .spectra import (
    NonDiagonalizableError,
    ZeroRapidityWarning,
    _gram_eigh_memo,
    _x_matrix,
    normal_modes,
    spectral_gap,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "fit_power_law",
    "fit_exponential",
    "fit_karevski",
    "run",
    "main",
]

TASKS = ("ness", "sweep", "gap_scaling", "dynamics", "oracle_check")
# delta_beta sweeps the two temperatures symmetrically about their
# configured mean: beta_{L,R} = mean -+ value/2
SWEEPABLE = ("n", "gamma", "h", "beta_L", "beta_R", "lambda", "delta_beta")
# largest chain a config may ask for: 10x the n = 1000 laptop target, whose
# dense 2n x 2n real matrices take 3.2 GB each
MAX_SITES = 10_000
# most times a dynamics config may ask for: each time costs the correlator
# one 16-byte complex entry of its output and the CSV one row of up to
# about 65 bytes, so 16 MB and about 65 MB at this bound
MAX_TIMES = 1_000_000


class ConfigError(Exception):
    """Invalid experiment configuration; message names the offending field."""


# ---------------------------------------------------------------------------
# fits


def fit_power_law(xs, ys):
    """Least-squares fit y = prefactor * x^exponent on log-log data.

    Returns (exponent, prefactor, residual) with residual the RMS of the
    log-space misfit.  Needs >= 4 strictly positive points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4:
        raise ValueError("power-law fit needs at least 4 points")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("power-law fit needs positive data")
    slope, icpt = np.polyfit(np.log(xs), np.log(ys), 1)
    resid = np.sqrt(np.mean((np.log(ys) - (slope * np.log(xs) + icpt)) ** 2))
    return float(slope), float(np.exp(icpt)), float(resid)


def fit_exponential(ns, ys):
    """Least-squares fit y = prefactor * exp(-rate * n) on semilog data.

    Returns (rate, prefactor, residual); residual is the RMS log misfit.
    """
    ns = np.asarray(ns, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(ns) < 4:
        raise ValueError("exponential fit needs at least 4 points")
    if (ys <= 0).any():
        raise ValueError("exponential fit needs positive data")
    slope, icpt = np.polyfit(ns, np.log(ys), 1)
    resid = np.sqrt(np.mean((np.log(ys) - (slope * ns + icpt)) ** 2))
    return float(-slope), float(np.exp(icpt)), float(resid)


def fit_karevski(lambdas, currents, max_iter: int = 200):
    """Fit Q(lambda) = a lambda^2 / (b + lambda^4).

    Deterministic: a coarse grid over b (with the optimal a given b in
    closed form) seeds a Gauss-Newton refinement of (a, b).  Returns
    (a, b, residual) with residual the RMS misfit in linear space.
    Needs >= 5 points spanning the maximum of the curve.
    """
    lam = np.asarray(lambdas, dtype=float)
    qs = np.asarray(currents, dtype=float)
    if len(lam) < 5:
        raise ValueError("karevski fit needs at least 5 points")
    k = int(np.argmax(qs))
    if k == 0 or k == len(qs) - 1:
        raise ValueError("karevski fit needs data spanning the maximum")
    best = None
    for b in np.logspace(-6, 1, 500):
        g = lam**2 / (b + lam**4)
        a = float(g @ qs / (g @ g))
        r = float(np.sum((qs - a * g) ** 2))
        if best is None or r < best[2]:
            best = (a, b, r)
    a, b, _ = best
    converged = False
    for _ in range(max_iter):
        g = lam**2 / (b + lam**4)
        J = np.stack([g, -a * lam**2 / (b + lam**4) ** 2], axis=1)
        step = np.linalg.lstsq(J, qs - a * g, rcond=None)[0]
        a += step[0]
        b += step[1]
        if np.abs(step).max() < 1e-13 * max(abs(a), abs(b), 1e-300):
            converged = True
            break
    if not converged:
        raise RuntimeError("karevski fit did not converge")
    resid = float(np.sqrt(np.mean((qs - a * lam**2 / (b + lam**4)) ** 2)))
    return float(a), float(b), resid


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    task: str
    n: int
    gamma: float
    h: float
    bath_type: str = "redfield"
    beta_L: float = DEFAULT_BETA_L
    beta_R: float = DEFAULT_BETA_R
    lam: float = DEFAULT_LAMBDA
    kappa: tuple = DEFAULT_KAPPAS
    theta: tuple = DEFAULT_THETAS
    rates: tuple = DEFAULT_LINDBLAD_RATES
    sweep: dict | None = None
    sizes: tuple | None = None  # gap_scaling
    pairs: tuple = ((1, 2), (1, 2))  # dynamics
    t_max: float = 10.0
    num_times: int = 101
    directory: str = "."
    fmt: str = "csv"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        task = raw.get("task")
        if task not in TASKS:
            raise ConfigError(f"task: expected one of {TASKS}, got {task!r}")
        model = raw.get("model")
        if not isinstance(model, dict) or "n" not in model:
            raise ConfigError("model: object with at least field 'n' required")
        n = _number("model.n", model["n"], int)
        if not 2 <= n <= MAX_SITES:
            raise ConfigError(
                f"model.n: need 2 <= n <= {MAX_SITES}, got {model['n']!r}"
            )
        bath = _section(raw, "bath")
        btype = bath.get("type", "redfield")
        if btype not in ("redfield", "lindblad"):
            raise ConfigError(f"bath.type: expected redfield|lindblad, got {btype!r}")
        cfg = cls(
            task=task,
            n=n,
            gamma=_number("model.gamma", model.get("gamma", 0.5)),
            h=_number("model.h", model.get("h", 0.9)),
            bath_type=btype,
            beta_L=_number("bath.beta_L", bath.get("beta_L", DEFAULT_BETA_L)),
            beta_R=_number("bath.beta_R", bath.get("beta_R", DEFAULT_BETA_R)),
            lam=_number("bath.lambda", bath.get("lambda", DEFAULT_LAMBDA)),
            kappa=_numbers("bath.kappa", bath.get("kappa", DEFAULT_KAPPAS)),
            theta=_numbers("bath.theta", bath.get("theta", DEFAULT_THETAS)),
            rates=_numbers("bath.rates", bath.get("rates", DEFAULT_LINDBLAD_RATES)),
        )
        if len(cfg.kappa) != 4 or len(cfg.theta) != 4 or len(cfg.rates) != 4:
            raise ConfigError("bath.kappa/theta/rates: expected 4 entries each")
        if cfg.bath_type == "redfield" and (cfg.beta_L <= 0 or cfg.beta_R <= 0):
            raise ConfigError("bath.beta_L/beta_R: inverse temperatures must be > 0")
        if cfg.lam < 0:
            raise ConfigError(f"bath.lambda: coupling must be >= 0, got {cfg.lam!r}")
        if min(cfg.rates) < 0:
            raise ConfigError(
                f"bath.rates: Lindblad rates must be >= 0, got {cfg.rates!r}"
            )
        out = _section(raw, "output")
        cfg.directory = str(out.get("directory", "."))
        cfg.fmt = str(out.get("format", "csv"))
        if cfg.fmt not in ("csv", "json"):
            raise ConfigError(f"output.format: expected csv|json, got {cfg.fmt!r}")
        if task == "sweep":
            cfg.sweep = _parse_sweep(raw.get("sweep"), btype)
        if task == "gap_scaling":
            cfg.sizes = _numbers("sizes", raw.get("sizes", list(range(16, 97, 8))), int)
            if len(cfg.sizes) < 4 or not all(2 <= s <= MAX_SITES for s in cfg.sizes):
                raise ConfigError(f"sizes: need >= 4 sizes, each in 2..{MAX_SITES}")
        if task == "dynamics":
            dyn = _section(raw, "dynamics")
            pairs = dyn.get("pairs", [[1, 2], [1, 2]])
            if not isinstance(pairs, (list, tuple)):
                raise ConfigError("dynamics.pairs: expected two index pairs")
            cfg.pairs = tuple(_numbers("dynamics.pairs", p, int) for p in pairs)
            if len(cfg.pairs) != 2 or any(len(p) != 2 for p in cfg.pairs):
                raise ConfigError("dynamics.pairs: expected two index pairs")
            if not all(1 <= i <= 2 * n for p in cfg.pairs for i in p):
                raise ConfigError(
                    f"dynamics.pairs: Majorana indices must lie in 1..{2 * n}"
                )
            cfg.t_max = _number("dynamics.t_max", dyn.get("t_max", 10.0))
            if cfg.t_max < 0:
                raise ConfigError(
                    f"dynamics.t_max: need t_max >= 0, got {cfg.t_max!r}"
                )
            num_times = dyn.get("num_times", 101)
            cfg.num_times = _number("dynamics.num_times", num_times, int)
            if not 1 <= cfg.num_times <= MAX_TIMES:
                raise ConfigError(
                    f"dynamics.num_times: need 1..{MAX_TIMES} times, got {num_times!r}"
                )
        if task == "oracle_check" and n > 3:
            raise ConfigError("oracle_check: n must be <= 3")
        return cfg


def _section(raw: dict, key: str) -> dict:
    """The JSON object under ``key`` of the config root ({} when absent)."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected a JSON object, got {section!r}")
    return section


def _number(field: str, value, kind=float):
    """``kind(value)``; a value that does not convert, is not finite or
    that ``kind`` would change (4.7 for an int) is a config error naming
    ``field``."""
    try:
        out = kind(value)
        finite = math.isfinite(out)  # an int beyond float range overflows here
        exact = out == float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: expected a number, got {value!r}") from exc
    if not finite:
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    if not exact:
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return out


def _numbers(field: str, values, kind=float) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{field}: expected a list of numbers, got {values!r}")
    return tuple(_number(field, v, kind) for v in values)


def _parse_sweep(raw, bath_type: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("sweep: object required for task 'sweep'")
    par = raw.get("parameter")
    pars = list(par) if isinstance(par, (list, tuple)) else [par]
    if not 1 <= len(pars) <= 2:
        raise ConfigError("sweep.parameter: one name or a pair of names")
    for p in pars:
        if p not in SWEEPABLE:
            raise ConfigError(
                f"sweep.parameter: {p!r} is not a sweepable field {SWEEPABLE}"
            )
        if bath_type == "lindblad" and p in ("beta_L", "beta_R", "lambda", "delta_beta"):
            raise ConfigError(
                f"sweep.parameter: {p!r} is a Redfield bath field; a lindblad bath ignores it"
            )
    if len(set(pars)) < len(pars):
        raise ConfigError(f"sweep.parameter: {pars[0]!r} is named twice")
    if "delta_beta" in pars and {"beta_L", "beta_R"} & set(pars):
        raise ConfigError("sweep.parameter: delta_beta already sets beta_L and beta_R")
    axes = []
    specs = [raw] if len(pars) == 1 else [raw.get("axis1", raw), raw.get("axis2")]
    if len(pars) == 2 and specs[1] is None:
        raise ConfigError("sweep.axis2: required for 2D sweeps")
    for spec in specs:
        if not isinstance(spec, dict):
            raise ConfigError(f"sweep: expected a JSON object per axis, got {spec!r}")
        if "values" in spec:
            vals = list(_numbers("sweep.values", spec["values"]))
        else:
            if not {"start", "stop", "count"} <= spec.keys():
                raise ConfigError("sweep: give 'values' or 'start'/'stop'/'count'")
            start = _number("sweep.start", spec["start"])
            stop = _number("sweep.stop", spec["stop"])
            count = _number("sweep.count", spec["count"], int)
            if count < 2:
                raise ConfigError("sweep.count: need at least 2 grid points")
            if spec.get("spacing", "linear") == "log":
                if start <= 0 or stop <= 0:
                    raise ConfigError("sweep: log spacing needs positive bounds")
                vals = list(np.geomspace(start, stop, count))
            else:
                vals = list(np.linspace(start, stop, count))
        if len(vals) < 2:
            raise ConfigError("sweep: grid size must be >= 2")
        axes.append(sorted(vals))
    for p, vals in zip(pars, axes):
        if p == "n" and not all(v == int(v) and 2 <= v <= MAX_SITES for v in vals):
            raise ConfigError(
                f"sweep: values of 'n' must be integers in 2..{MAX_SITES}, got {vals!r}"
            )
    return {"parameters": pars, "axes": axes}


def build_model(cfg: ExperimentConfig, **overrides):
    """Model for the config, with optional {parameter: value} overrides."""
    get = lambda key, base: overrides.get(key, base)
    params = ChainParams(
        int(get("n", cfg.n)), float(get("gamma", cfg.gamma)), float(get("h", cfg.h))
    )
    if cfg.bath_type == "lindblad":
        return xy_lindblad_model(params, cfg.rates)
    beta_L = float(get("beta_L", cfg.beta_L))
    beta_R = float(get("beta_R", cfg.beta_R))
    if "delta_beta" in overrides:
        mean = 0.5 * (cfg.beta_L + cfg.beta_R)
        db = float(overrides["delta_beta"])
        beta_L, beta_R = mean - db / 2, mean + db / 2
    return xy_redfield_model(
        params,
        beta_L=beta_L,
        beta_R=beta_R,
        lam=float(get("lambda", cfg.lam)),
        kappas=cfg.kappa,
        thetas=cfg.theta,
    )


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    """The CSV text of one scalar cell."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return format(v, ".17g")


# rows rendered by one % operation: bounds the temporaries of a long block
_CHUNK_ROWS = 4096


def _block(block) -> tuple[str, int, list]:
    """The row template, row count and columns of one block.

    A sequence column (1-D array, list, tuple or range) becomes a list of
    Python ints or floats and a ``%d`` or ``%.17g`` conversion, which
    writes what ``_fmt`` writes, nan included; any other column is a
    scalar repeated on every row and is written into the template as its
    ``_fmt`` text.  A block of scalars only is one row.
    """
    parts, columns, count = [], [], None
    for value in block:
        if isinstance(value, (list, tuple, range, np.ndarray)):
            values = np.asarray(value)
            if values.ndim != 1 or values.dtype.kind not in "iuf":
                raise TypeError(
                    "block column: expected a 1-D sequence of ints or floats, "
                    f"got {values.dtype} of shape {values.shape}"
                )
            if count is not None and len(values) != count:
                raise ValueError("block columns differ in length")
            count = len(values)
            parts.append("%d" if values.dtype.kind in "iu" else "%.17g")
            columns.append(values.tolist())
        else:
            parts.append(_fmt(value).replace("%", "%%"))
            columns.append(value)
    return ",".join(parts) + "\n", 1 if count is None else count, columns


@contextmanager
def _output_file(path: Path):
    """``path`` open for writing; an OSError opening or writing it is a
    ConfigError naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            yield out
    except OSError as exc:  # a directory in the way, no permission, disk full
        raise ConfigError(f"output file {str(path)!r}: {exc.strerror or exc}") from exc


def write_table(path: Path, header: list[str], blocks, fmt: str) -> None:
    """Write a table of ``header`` columns, given as an iterable of blocks.

    A block is a sequence with one entry per column: a scalar, the same on
    each of its rows, or a 1-D sequence of ints or floats, one per row (see
    ``_block``); a plain row of scalars is a one-row block.  CSV is
    rendered block by block, one ``%`` template per block, and written as
    it goes; JSON is the list of row objects, with null for a NaN or an
    infinity, which JSON has no token for.
    """
    with _output_file(path) as out:
        if fmt == "csv":
            out.write(",".join(header) + "\n")
            for block in blocks:
                template, count, columns = _block(block)
                sequences = [c for c in columns if isinstance(c, list)]
                cells = chain.from_iterable(zip(*sequences))
                for start in range(0, count, _CHUNK_ROWS):
                    rows = min(_CHUNK_ROWS, count - start)
                    out.write(template * rows % tuple(islice(cells, rows * len(sequences))))
        else:
            payload = []
            for block in blocks:
                _, count, columns = _block(block)
                columns = [c if isinstance(c, list) else repeat(c, count) for c in columns]
                payload += [{key: None if isinstance(v, float) and not math.isfinite(v) else v
                             for key, v in zip(header, row)} for row in zip(*columns)]
            out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _library_versions() -> dict:
    """numpy and scipy versions, and the name and version of the BLAS
    each was built against."""
    out = {}
    for lib in (np, scipy):
        try:
            blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # no mode="dicts" before numpy 1.26, scipy 1.11
            blas = {}
        out[lib.__name__] = {
            "version": lib.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")},
        }
    return out


def write_metadata(
    path: Path, raw_config: dict, wall_time: float, write_time: float
) -> None:
    meta = {
        "config": raw_config,
        "version": __version__,
        "wall_time_s": wall_time,
        "write_time_s": write_time,
        "libraries": _library_versions(),
    }
    with _output_file(path) as out:
        out.write(json.dumps(meta, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# tasks


def _ness_report(cfg: ExperimentConfig, **overrides):
    """Build, solve and report one model: its params and its
    ``ObservableReport``.  The model, with its complex 2n x 2n H, is
    released before the report, so the two are never alive together."""
    model = build_model(cfg, **overrides)
    params, state = model.params, steady_state(model)
    del model
    return params, observable_report(state.two_point, params, gap=spectral_gap(state))


def _task_ness(cfg: ExperimentConfig):
    _, rep = _ness_report(cfg)
    return ["quantity", "i", "j", "value"], _ness_blocks(rep)


def _ness_blocks(rep):
    """The ness table of one report, as blocks: one per profile, one per
    row of C and one row per scalar, so no n^2-row list is ever built."""
    sites = np.arange(1, len(rep.s_z) + 1)
    yield "s_z", sites, "", rep.s_z
    for l, row in enumerate(rep.correlations, start=1):
        yield "C", l, sites, row
    yield "C_r", np.arange(len(rep.correlation_decay)), "", rep.correlation_decay
    yield "C_res", "", "", rep.residual_correlator
    for name, profile in (
        ("Q", rep.heat_current),
        ("H_m", rep.energy_density),
        ("f", rep.energy_fluctuation),
    ):
        yield name, sites[: len(profile)], "", profile
    yield "entropy_left", "", "", rep.entropy_left
    yield "entropy_right", "", "", rep.entropy_right
    yield "entropy_total", "", "", rep.entropy_total
    yield "qmi", "", "", rep.mutual_information
    yield "positivity_excess", "", "", rep.positivity_excess
    yield "spectral_gap", "", "", rep.spectral_gap


_POINT_COLUMNS = [
    "C_res",
    "Q_mean",
    "s_z_center",
    "qmi",
    "entropy_total",
    "gap",
    "positivity_excess",
]


def _sweep_point(args):
    """One sweep point; returns observable dict or an error string (never raises)."""
    cfg, overrides = args
    try:
        params, rep = _ness_report(cfg, **overrides)
        n, qmi = params.n, rep.mutual_information
        return {
            "C_res": rep.residual_correlator,
            "Q_mean": float(rep.heat_current[2:-2].mean()) if n >= 7 else float("nan"),
            "s_z_center": float(rep.s_z[n // 2 - 1]),
            "qmi": float("nan") if qmi is None else qmi,
            "entropy_total": rep.entropy_total,
            "gap": rep.spectral_gap,
            "positivity_excess": rep.positivity_excess,
        }
    except Exception as exc:  # error rows keep the sweep going
        return f"{type(exc).__name__}: {exc}"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _task_sweep(cfg: ExperimentConfig, workers: int):
    """The sweep table: one row per grid point, in grid order.

    The points run inside ``spectra._gram_eigh_memo``, entered before the
    pool forks, so each process does the bath's eigh of K^T K once per
    Hamiltonian: once in all for a sweep over temperatures or the
    coupling, at every point for one over n, gamma or h.  The memo ends
    with the sweep.
    """
    pars = cfg.sweep["parameters"]
    points = list(product(*cfg.sweep["axes"]))
    jobs = [(cfg, dict(zip(pars, pt))) for pt in points]
    processes = min(workers, _usable_cpus(), len(jobs))
    with _gram_eigh_memo():
        if processes > 1:
            import multiprocessing

            # the workers share the CPUs, so none of them runs BLAS threads
            with multiprocessing.get_context("fork").Pool(
                processes, initializer=single_threaded
            ) as pool:
                results = pool.map(_sweep_point, jobs)
        else:
            results = [_sweep_point(j) for j in jobs]
    header = list(pars) + _POINT_COLUMNS + ["error"]
    rows = []
    for pt, res in zip(points, results):
        row = [*pt]
        if isinstance(res, str):
            row += [""] * len(_POINT_COLUMNS) + [res]
        else:
            row += [res[c] for c in _POINT_COLUMNS] + [""]
        rows.append(row)
    return header, rows


def _task_gap_scaling(cfg: ExperimentConfig):
    """The gap of each size and the power law fitted to them.

    The gap needs only the eigenvalues of X (``spectra.rapidities``): no
    Schur vectors, no Lyapunov solve and no uniqueness refusal.  This
    thread builds each size's X, largest first, while the eigensolves of
    the sizes already built run side by side, each on one thread and one
    core (``_blas._real_eigenvalues_side_by_side``); it reads every gap
    itself.  A failure is raised as the first one in ascending order of
    the sizes, as a scan one size after another would raise it.
    """
    sizes = sorted(cfg.sizes)

    def matrices():
        for n in reversed(sizes):
            try:
                yield _x_matrix(build_model(cfg, n=n))
            except Exception as exc:  # raised below, in the order of the sizes
                yield exc

    eigenvalues = _real_eigenvalues_side_by_side(
        matrices(), 2 * sizes[-1], min(_usable_cpus(), len(sizes))
    )
    gaps = []
    for entry in reversed(eigenvalues):
        if isinstance(entry, Exception):
            raise entry
        gaps.append(spectral_gap(0.5 * entry))
    expo, pref, resid = fit_power_law(sizes, gaps)
    rows = [[n, g, expo, pref, resid] for n, g in zip(sizes, gaps)]
    return ["n", "gap", "fit_exponent", "fit_prefactor", "fit_residual"], rows


def _task_dynamics(cfg: ExperimentConfig):
    from .dynamics import dynamic_correlator

    # X and Y from the model's coupling rows, with no 4n x 4n matrix; the
    # model, with its complex 2n x 2n H, is released before the correlator,
    # which refuses (one stderr line) every state that normal_modes warns for
    model = build_model(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroRapidityWarning)
        modes = normal_modes(model)
    del model
    times = np.linspace(0.0, cfg.t_max, cfg.num_times)
    vals = dynamic_correlator(modes, cfg.pairs[0], cfg.pairs[1], times)
    return ["t", "re", "im"], [(times, vals.real, vals.imag)]


def _task_oracle_check(cfg: ExperimentConfig):
    from .validation import oracle_check_table

    model = build_model(cfg)
    table = oracle_check_table(model)
    rows = [[name, cfg.n, cfg.bath_type, dev] for name, dev in table]
    return ["check", "n", "model", "max_abs_deviation"], rows


def run(
    raw_config: dict,
    output_dir: str | None = None,
    workers: int = 1,
    fmt: str | None = None,
) -> Path:
    """Execute one experiment; returns the path of the primary data file.
    A sweep forks min(workers, usable CPUs, points) processes."""
    if workers < 1:
        raise ConfigError(f"workers: expected a positive count, got {workers}")
    cfg = ExperimentConfig.from_dict(raw_config)
    if output_dir is not None:
        cfg.directory = output_dir
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format: expected csv|json, got {fmt!r}")
        cfg.fmt = fmt
    out_dir = Path(cfg.directory)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"output directory {str(out_dir)!r}: {exc.strerror}") from exc
    t0 = time.perf_counter()
    if cfg.task == "ness":
        header, blocks = _task_ness(cfg)
    elif cfg.task == "sweep":
        header, blocks = _task_sweep(cfg, workers)
    elif cfg.task == "gap_scaling":
        header, blocks = _task_gap_scaling(cfg)
    elif cfg.task == "dynamics":
        header, blocks = _task_dynamics(cfg)
    else:
        header, blocks = _task_oracle_check(cfg)
    t1 = time.perf_counter()
    primary = out_dir / f"{cfg.task}.{cfg.fmt}"
    write_table(primary, header, blocks, cfg.fmt)
    t2 = time.perf_counter()
    write_metadata(out_dir / f"{cfg.task}.meta.json", raw_config, t1 - t0, t2 - t1)
    return primary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="openquad", description="Open quadratic fermi systems experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment described by a JSON config")
    runp.add_argument("config", help="path to the JSON experiment config")
    runp.add_argument("--output-dir", default=None, help="override output directory")
    runp.add_argument("--workers", type=int, default=1, help="sweep worker count")
    runp.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default=None,
        help="override output format",
    )
    runp.add_argument(
        "--seed", type=int, default=None,
        help="reserved; all computations are deterministic",
    )
    args = parser.parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    from .oracle import DegenerateKernelError

    try:
        primary = run(raw, args.output_dir, args.workers, args.fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        NonUniqueNESSError,
        NonDiagonalizableError,
        DegenerateKernelError,
        np.linalg.LinAlgError,
        RuntimeError,
        ValueError,
    ) as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    print(primary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
