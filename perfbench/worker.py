"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
    python3 perfbench/worker.py --workload NAME --reference

Set-up is timed from the top of this file: importing numpy, scipy and
openquad (from ``src/`` of the checkout) and loading the workload's
inputs.  A pass then runs the workload's whole task once, cold, as a
command-line user would, and the outputs are checked against the stored
references in ``reference/`` outside the timed region.  The last line of
standard output is one JSON object with the timings, peak RSS, operation
counts, failures, the machine facts and, with --trace, the per-layer
metrics of spans.py.

--reference runs the full input set of a workload (the whole 40 x 40
sweep grid) and rewrites ``reference/NAME.json`` from it.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401

import openquad  # noqa: E402
from openquad import cli  # noqa: E402

# (absolute, relative) tolerance per output quantity.  Values derived from
# the two-point matrix T get about 1e-9 and gaps 1e-8 relative: room for
# the Lyapunov and eigenvector-free routes, which agree with the
# eigenvector route to 6e-10 in T and 5e-9 in the gap, and far too tight
# for wrong physics.  Entropies sum n terms whose slope diverges as a
# correlation eigenvalue nears 1: on the cold corner of the sweep a 1e-10
# perturbation of T moves them by 2e-7, so they get 1e-6.
TOLERANCES = {
    "gap": (0.0, 1e-8),
    "spectral_gap": (0.0, 1e-8),
    "fit_exponent": (1e-7, 0.0),
    "fit_prefactor": (0.0, 1e-6),
    "fit_residual": (1e-7, 0.0),
    "n": (0.0, 0.0),
    "entropy_left": (1e-6, 1e-9),
    "entropy_right": (1e-6, 1e-9),
    "entropy_total": (1e-6, 1e-9),
    "qmi": (1e-6, 1e-9),
}
T_DERIVED = (2e-9, 1e-9)
IDENTITY_TOL = 1e-9


def load_input(name):
    return json.loads((HERE / "inputs" / name).read_text(encoding="utf-8"))


def num(text):
    """A CSV field as a float; the CLI writes an absent value as ''."""
    return float(text) if text else math.nan


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class Workload:
    """A workload's inputs (loaded in __init__), its timed task (run), the
    per-operation digest of its outputs that the references store, and
    any identity its outputs must satisfy.  ``ops`` names the operations
    of one pass."""

    def identities(self, outputs):
        return {}


class Sweep(Workload):
    """A K x K sub-grid of the shipped 40 x 40 (beta_L, beta_R) sweep at
    n = 53, through cli.run with one worker; one operation per point."""

    name = "sweep_n53"
    points_per_axis = 5

    def __init__(self, seed):
        raw = load_input("fig_tok_entropy.json")
        spec = raw["sweep"]
        axes = [
            [float(v) for v in np.geomspace(float(a["start"]), float(a["stop"]),
                                            int(a["count"]))]
            for a in (spec["axis1"], spec["axis2"])
        ]
        self.index = [{v: i for i, v in enumerate(axis)} for axis in axes]
        if seed is None:
            picks = [range(len(axes[0])), range(len(axes[1]))]
            self.config = raw
        else:
            rng = random.Random(seed)
            picks = [sorted(rng.sample(range(len(axis)), self.points_per_axis))
                     for axis in axes]
            self.config = dict(raw, sweep={
                "parameter": spec["parameter"],
                "axis1": {"values": [axes[0][i] for i in picks[0]]},
                "axis2": {"values": [axes[1][i] for i in picks[1]]},
            })
        self.ops = [f"{i},{j}" for i in picks[0] for j in picks[1]]

    def run(self, out_dir):
        return cli.run(self.config, output_dir=str(out_dir), workers=1)

    def digest(self, path):
        header, rows = read_csv(path)
        out = {}
        for row in rows:
            key = f"{self.index[0][float(row[0])]},{self.index[1][float(row[1])]}"
            if row[-1]:
                out[key] = f"sweep error row: {row[-1]}"
            else:
                out[key] = {c: [num(v)] for c, v in zip(header[2:-1], row[2:-1])}
        return out


class CliConfigs(Workload):
    """Shipped configs run one after another through cli.run; one
    operation per config."""

    def __init__(self, seed):
        self.configs = {op: load_input(f"{op}.json") for op in self.ops}

    def run(self, out_dir):
        out = {}
        for op, raw in self.configs.items():
            try:
                out[op] = cli.run(raw, output_dir=str(out_dir / op), workers=1)
            except Exception as exc:  # one failed config must not hide the others
                out[op] = f"{type(exc).__name__}: {exc}"
        return out

    def digest(self, outputs):
        return {op: res if isinstance(res, str) else self.digest_file(res)
                for op, res in outputs.items()}


class NessLarge(CliConfigs):
    """Two large steady states with the full observable report and their
    n^2-row CSVs: Redfield n = 253 and Lindblad n = 200."""

    name = "ness_large"
    ops = ["fig_density_h0.7", "fig_profilwrld_lindblad"]
    stride = 8  # the stored C sample: every 8th site on both axes

    def digest_file(self, path):
        _, rows = read_csv(path)
        out = {}
        C = {}
        for quantity, i, j, value in rows:
            if quantity == "C":
                C[int(i) - 1, int(j) - 1] = num(value)
            else:
                out.setdefault(quantity, []).append(num(value))
        n = max(C)[0] + 1
        C = np.array([[C[l, m] for m in range(n)] for l in range(n)])
        out["C_rowsum"] = C.sum(axis=1).tolist()
        out["C_sample"] = C[::self.stride, ::self.stride].ravel().tolist()
        return out


class GapScan(CliConfigs):
    """Three gap_scaling configs: 33 spectra at n <= 96 and their fits."""

    name = "gap_scan"
    ops = ["fig_gap_h0.3", "fig_gap_h0.75", "fig_gap_h0.8"]

    def digest_file(self, path):
        header, rows = read_csv(path)
        return {c: [num(row[k]) for row in rows] for k, c in enumerate(header)}


class Dynamics(Workload):
    """Library calls into openquad.dynamics, the layer no CLI workload
    reaches: a steady-state correlator and a quench at n = 100 (Redfield),
    and a driven Lindblad chain at n = 24 from the T0 = 1 state."""

    name = "dynamics"
    correlator_times = np.linspace(0.0, 20.0, 1001)
    propagate_times = np.linspace(0.0, 20.0, 20)
    driven_n = 24

    def __init__(self, seed):
        self.ops = (["correlator"]
                    + [f"propagate_t{k:02d}" for k in range(len(self.propagate_times))]
                    + ["schedule"])

    def run(self, out_dir):
        # imported at call time, so that a traced pass calls the span wrappers
        from openquad import (ChainParams, DriveSchedule, TwoPointMatrix,
                              assemble_structure_matrix, bath_matrix_from_jumps,
                              build_xy_hamiltonian, dynamic_correlator,
                              lindblad_jump_vectors, ness_two_point, normal_modes,
                              propagate_schedule, propagate_two_point,
                              structure_matrix, xy_redfield_model)

        out = {}
        static = normal_modes(structure_matrix(
            xy_redfield_model(ChainParams(100, 0.5, 0.9))))
        out["correlator"] = attempt(dynamic_correlator, static, (1, 2), (3, 4),
                                    self.correlator_times)
        initial = ness_two_point(normal_modes(structure_matrix(
            xy_redfield_model(ChainParams(100, 0.5, 0.5)))))
        for k, t in enumerate(self.propagate_times):
            out[f"propagate_t{k:02d}"] = attempt(propagate_two_point, static,
                                                 initial, float(t))
        n = self.driven_n
        M = bath_matrix_from_jumps(lindblad_jump_vectors(n, (0.5, 0.3, 0.5, 0.1)))

        def sampler(t):
            h = 0.9 + 0.4 * np.sin(1.3 * t)
            st = assemble_structure_matrix(build_xy_hamiltonian(ChainParams(n, 0.5, h)), M)
            return st.A, st.A0

        # t_final = 0.75 raises BranchAmbiguityError at this size
        out["schedule"] = attempt(propagate_schedule, DriveSchedule(sampler, 0.5, 2.5e-3),
                                  TwoPointMatrix(np.eye(2 * n)))
        self.static, self.initial = static, initial
        return out

    def digest(self, outputs):
        from openquad import magnetization_profile

        out = {}
        for op, res in outputs.items():
            if isinstance(res, str):
                out[op] = res
            elif op == "correlator":
                out[op] = {"re": res.real.tolist(), "im": res.imag.tolist()}
            else:
                out[op] = {"s_z": magnetization_profile(res).tolist(),
                           "B_rowsum": res.B.sum(axis=1).tolist()}
        return out

    def identities(self, outputs):
        """C(t = 0) is the Wick four-point function of the steady state, and
        propagating for t = 0 returns the initial state."""
        from openquad import ness_two_point, wick_four_point

        bad = {}
        corr = outputs["correlator"]
        if not isinstance(corr, str):
            wick = wick_four_point(ness_two_point(self.static), 0, 1, 2, 3)
            if abs(corr[0] - wick) > IDENTITY_TOL * max(1.0, abs(wick)):
                bad["correlator"] = f"C(0) = {corr[0]} but Wick gives {wick}"
        start = outputs["propagate_t00"]
        if not isinstance(start, str):
            dev = np.abs(start.T - self.initial.T).max()
            if dev > IDENTITY_TOL:
                bad["propagate_t00"] = f"T(t = 0) deviates from T0 by {dev:.3g}"
        return bad


WORKLOADS = {w.name: w for w in (Sweep, NessLarge, GapScan, Dynamics)}


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation
        return f"{type(exc).__name__}: {exc}"


def compare(got, want):
    """None if every quantity of ``want`` is matched within tolerance."""
    for quantity, ref in want.items():
        values = got.get(quantity)
        if values is None or len(values) != len(ref):
            return f"{quantity}: missing or of the wrong length"
        atol, rtol = TOLERANCES.get(quantity, T_DERIVED)
        for k, (a, b) in enumerate(zip(values, ref)):
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= atol + rtol * abs(b):
                return f"{quantity}[{k}] = {a!r}, reference {b!r}"
    return None


def check(workload, outputs, reference):
    """{operation: failure message} over every operation of the pass."""
    if isinstance(outputs, str):
        return {op: outputs for op in workload.ops}
    try:
        digest = workload.digest(outputs)
        broken = workload.identities(outputs)
    except Exception as exc:  # outputs that cannot be read fail every operation
        return {op: f"unreadable output: {type(exc).__name__}: {exc}"
                for op in workload.ops}
    failures = {}
    for op in workload.ops:
        got = digest.get(op, "no output")
        if isinstance(got, str):
            failures[op] = got
        elif op not in reference:
            failures[op] = "no reference"
        else:
            msg = compare(got, reference[op])
            if msg:
                failures[op] = msg
    for op, msg in broken.items():
        failures.setdefault(op, msg)
    return failures


def blas_facts():
    """Vendor, configuration and effective thread count of every OpenBLAS
    loaded into this process (numpy and scipy each ship their own)."""
    import ctypes

    facts = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        entry = {}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry = {"config": config().decode(), "threads": threads()}
        facts[Path(lib_path).name] = entry
    return facts


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openquad": openquad.__version__,
        "blas": blas_facts(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


def write_reference(workload):
    out_dir = ROOT / ".perfbench_out" / f"reference-{workload.name}"
    try:
        outputs = workload.run(out_dir)
        digest = workload.digest(outputs)
        bad = {op: d for op, d in digest.items() if isinstance(d, str)}
        bad.update(workload.identities(outputs))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if bad:
        raise SystemExit(f"reference run failed: {bad}")
    lines = [f"{json.dumps(op)}: {json.dumps(d)}" for op, d in sorted(digest.items())]
    path = HERE / "reference" / f"{workload.name}.json"
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)} ({len(lines)} operations)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    cls = WORKLOADS[args.workload]
    if args.reference:
        write_reference(cls(None))
        return 0
    workload = cls(args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = ROOT / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
    t0 = time.perf_counter()
    try:
        outputs = workload.run(out_dir)
    except Exception as exc:  # every operation of the pass failed
        outputs = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    reference = json.loads((HERE / "reference" / f"{workload.name}.json").read_text())
    try:
        failures = check(workload, outputs, reference)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": dict(list(failures.items())[:5]),
        "machine": machine_facts(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
