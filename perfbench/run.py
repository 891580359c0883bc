"""Closed-loop benchmark of the arcdesign command line.

Run from the repository root:

    python3 perfbench/run.py --workload plate384 --seed 1 --seconds 30 --trace 0

One process is a single closed-loop client: it calls
``arcdesign.cli.main([...], standalone_mode=False)`` in-process and sends the
next request only after the previous one returned.  Request seeds and input
files derive from ``--seed``.  Every request is checked by ``gate.py``
outside the timed interval.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see NOTES.md).  The line before it is the
full record: machine facts, sample counts, check results.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process;
# the set-up subprocesses inherit the same environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import importlib.metadata
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Requests whose designs make up ``design_e_aug.*``: a fixed count, so the
#: value depends on the seed alone and not on how many requests fit the run.
DESIGN_REQUESTS = 8
#: Fresh interpreters timed for ``setup_s`` (after one untimed bytecode warm-up).
SETUP_SAMPLES = 9
#: Minimum untraced/traced request pairs in a traced run.
TRACE_MIN_PAIRS = 3
#: States probed with ``neighbor_moves`` (the first requests' designs, topped
#: up with random starts) and seeds probed with ``random_contraction``.
PROBE_STATES = 8
RANDOM_PROBES = 4
#: Evaluations of the anneal probe that gives ``search.evals_per_s`` on
#: workloads whose own requests do not anneal.
ANNEAL_PROBE_ITERS = 2000
#: Random swaps that turn the bundled reference into one ``verify384`` input.
INPUT_SWAPS = 40
#: Host-speed calibration: a block is ``CAL_EVALS`` oracle evaluations of a
#: fixed (24,16,5) contraction, run again after every ``CAL_EVERY_S`` seconds
#: of requests.  A stretch of requests is scaled by the mean of the two blocks
#: before it and the two after it.  ``CAL_REF_S`` is a block's time at the
#: reference speed; the timing metrics are wall times scaled to that speed
#: (see NOTES.md).
CAL_EVALS = 100
CAL_EVERY_S = 0.25
CAL_REF_S = 0.025


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload at a single stated size.

    The search fields are the ``generate`` options of a generate workload;
    for ``verify384`` they configure the traced run's search probes.
    """

    name: str
    command: str
    v: int
    s: int
    k: int
    strategy: str = "hillclimb"
    objective: str = "e_con"
    restarts: int = 2
    iters: int = 20000

    def search_options(self) -> list[str]:
        return ["--strategy", self.strategy, "--objective", self.objective,
                "--restarts", str(self.restarts), "--iters", str(self.iters)]


WORKLOADS = {
    w.name: w
    for w in (
        # The default generate command at the 384-well plate size: catalogue
        # rebuilds and e_con evaluations both matter.
        Workload("plate384", "generate", 24, 16, 5),
        # Field scale through the e_aug objective; anneal builds no catalogue
        # and runs exactly restarts x iters evaluations.
        Workload("field-anneal", "generate", 48, 32, 6, strategy="anneal",
                 objective="e_aug", restarts=1, iters=2000),
        # The read side: evaluate --direct on plate-size contractions, no search.
        Workload("verify384", "evaluate", 24, 16, 5),
    )
}


@dataclass
class Outcome:
    """One request: its timed seconds, gate problems, eAugFormula and outputs."""

    index: int
    seconds: float
    problems: list[str]
    e_aug: float | None = None
    artifacts: dict | None = None
    #: ``seconds`` scaled to the reference host speed, set by ``Client.loop``.
    ref_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS actually uses, asked of the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(arcdesign) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "python": platform.python_version(),
        "arcdesign": arcdesign.__version__,
    }


# ---------------------------------------------------------------------------
# inputs


def random_swaps(cells: np.ndarray, v: int, swaps: int, seed: int) -> np.ndarray:
    """``cells`` after ``swaps`` random two-cell swaps within a row or a column.

    Every swap keeps all rows and columns binary, so replications and
    validity are preserved; a swap that would disconnect the design is undone.
    """
    rng = np.random.default_rng(seed)
    out = np.array(cells)
    k, s = out.shape
    done = 0
    while done < swaps:
        i1, j1 = int(rng.integers(k)), int(rng.integers(s))
        if rng.random() < 0.5:
            i2, j2 = int(rng.integers(k)), j1
        else:
            i2, j2 = i1, int(rng.integers(s))
        a, b = out[i1, j1], out[i2, j2]
        if a == b or (i1 != i2 and (b in out[i1] or a in out[i2])) \
                or (j1 != j2 and (b in out[:, j1] or a in out[:, j2])):
            continue
        out[i1, j1], out[i2, j2] = b, a
        try:
            connected = min(oracle.efficiencies(out, v)) > 1e-6
        except np.linalg.LinAlgError:
            connected = False
        if connected:
            done += 1
        else:
            out[i1, j1], out[i2, j2] = a, b
    return out


# ---------------------------------------------------------------------------
# host speed


class Calibration:
    """Times a fixed piece of numpy-and-Python work to track the host's speed.

    The work is ``oracle.efficiencies`` on a cyclic (24,16,5) contraction
    built here, so no code of the program under test runs in it.  A block's
    wall time over ``CAL_REF_S`` is how much slower than the reference the
    host runs at that moment.
    """

    def __init__(self):
        v, s, k = 24, 16, 5
        self.v = v
        self.cells = np.array([[(k * j + i) % v + 1 for j in range(s)] for i in range(k)])
        self.blocks: list[float] = []
        self.block()  # warm-up, not kept
        self.blocks.clear()

    def block(self) -> int:
        """Times one block; returns the number of the stretch that follows it."""
        start = perf_counter()
        for _ in range(CAL_EVALS):
            oracle.efficiencies(self.cells, self.v)
        self.blocks.append(perf_counter() - start)
        return len(self.blocks) - 1

    def scale(self, stretch: int) -> float:
        """Reference seconds per wall second in the stretch after block ``stretch``."""
        return CAL_REF_S / statistics.fmean(self.blocks[max(0, stretch - 1):stretch + 3])


# ---------------------------------------------------------------------------
# the client


class Client:
    """Issues requests of one workload and checks their outputs."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        import arcdesign
        from arcdesign.cli import main

        import gate

        self.w = workload
        self.seed = seed
        self.work = work
        self.ad = arcdesign
        self.main = main
        self.gate = gate
        self._rng = random.Random(f"{workload.name}/{seed}")
        self._seeds: list[int] = []
        self.inputs: list[tuple[Path, float]] = []
        # One capture buffer for every request: click caches a text wrapper
        # per stream it writes to and never frees it, so a fresh buffer per
        # request would grow the client by one request's output each time.
        self._stdout = io.StringIO()

    def seed_at(self, i: int) -> int:
        # Low byte clear: restart r of a request runs on seed ^ r, so requests
        # must not share a high part or their restarts would coincide.
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.getrandbits(48) << 8)
        return self._seeds[i]

    def config(self, seed: int, **changes):
        w = self.w
        cfg = self.ad.SearchConfig(seed=seed, strategy=w.strategy, objective=w.objective,
                                   restarts=w.restarts, max_iters=w.iters)
        return replace(cfg, **changes)

    def prepare(self) -> None:
        """Write the input files of an evaluate workload (untimed).

        The batch is the bundled reference plus variants of it made by random
        binarity-preserving swaps, so the inputs depend on the seed and on
        no code of the program under test.
        """
        if self.w.command != "evaluate":
            return
        ad, w = self.ad, self.w
        reference = SRC / "arcdesign" / "data" / "reference_contraction_24x16_k5.txt"
        files = [reference]
        cells = ad.parse_design(reference.read_text()).cells
        for i in range(DESIGN_REQUESTS - 1):
            path = self.work / f"input{i}.txt"
            variant = random_swaps(cells, w.v, INPUT_SWAPS, self.seed_at(i))
            path.write_text(ad.format_design(ad.ContractionDesign.from_cells(variant, v=w.v)))
            files.append(path)
        for path in files:
            c = ad.parse_design(path.read_text())
            if (c.v, c.s, c.k) != (w.v, w.s, w.k):
                raise RuntimeError(f"{path} holds {c!r}, expected v={w.v} s={w.s} k={w.k}")
            self.inputs.append((path, oracle.efficiencies(c.cells, c.v)[1]))

    def argv(self, i: int, out: Path) -> list[str]:
        w = self.w
        if w.command == "evaluate":
            return ["evaluate", str(self.inputs[i % len(self.inputs)][0]), "--direct",
                    "--format", "json"]
        return ["generate", "--v", str(w.v), "--s", str(w.s), "--k", str(w.k),
                *w.search_options(), "--seed", str(self.seed_at(i)), "--out", str(out)]

    def request(self, i: int, tag: str, tracer=None) -> Outcome:
        """One timed request followed by its untimed correctness check."""
        out = self.work / f"{tag}{i}"
        argv = self.argv(i, out)
        buf = self._stdout
        buf.seek(0)
        buf.truncate()
        problems: list[str] = []
        unit = tracer.unit("request", str(i)) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            try:
                with unit:
                    self.main(argv, standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    problems.append(f"exit code {exc.code}")
            except Exception:  # a failed request is counted, the loop goes on
                problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            seconds = perf_counter() - start
        outcome = Outcome(i, seconds, problems)
        if not problems:
            self._check(outcome, out, buf.getvalue())
        shutil.rmtree(out, ignore_errors=True)
        for line in outcome.problems:
            print(f"request {i} ({' '.join(argv)}): {line}", file=sys.stderr)
        return outcome

    def _check(self, outcome: Outcome, out: Path, stdout: str) -> None:
        w, gate = self.w, self.gate
        try:
            if w.command == "evaluate":
                outcome.problems, outcome.e_aug = gate.check_evaluate(
                    stdout, self.inputs[outcome.index % len(self.inputs)][1])
                outcome.artifacts = {"stdout": stdout.encode()}
            else:
                outcome.problems, outcome.e_aug, outcome.artifacts = gate.check_generate(
                    out, stdout, w.v, w.s, w.k, w.objective)
        except Exception:  # an unreadable output is a failed request
            outcome.problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]

    def loop(self, seconds: float, min_requests: int, tag: str,
             cal: Calibration) -> list[Outcome]:
        """Closed loop until the timed total reaches ``seconds``.

        A calibration block runs before the first request, after every
        ``CAL_EVERY_S`` seconds of requests and twice at the end; each
        request's ``ref_seconds`` is its wall time scaled by the blocks
        around its stretch.
        """
        outcomes: list[Outcome] = []
        stretches: list[int] = []
        total = stretch_total = 0.0
        stretch = cal.block()
        while total < seconds or len(outcomes) < min_requests:
            outcomes.append(self.request(len(outcomes), tag))
            stretches.append(stretch)
            total += outcomes[-1].seconds
            stretch_total += outcomes[-1].seconds
            if len(outcomes) > min_requests:
                # Only the first requests' outputs are used again; dropping
                # the rest keeps the client's memory flat as the run grows.
                outcomes[-1].artifacts = None
            if stretch_total >= CAL_EVERY_S:
                stretch, stretch_total = cal.block(), 0.0
        cal.block()
        cal.block()
        for o, i in zip(outcomes, stretches):
            o.ref_seconds = o.seconds * cal.scale(i)
        return outcomes

    def designs(self, outcomes: list[Outcome], n: int):
        """Contractions produced by (generate) or fed to (evaluate) the first requests."""
        if self.w.command == "evaluate":
            return [self.ad.parse_design(p.read_text()) for p, _ in self.inputs[:n]]
        return [self.ad.parse_design(o.artifacts["contraction.txt"].decode())
                for o in outcomes[:n] if o.ok]


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(cal: Calibration) -> tuple[list[float], list[float]]:
    """Wall and reference-speed times of fresh interpreters that import the CLI."""
    cmd = [sys.executable, "-c", "import arcdesign.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = dict(env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
               stderr=subprocess.DEVNULL)
    subprocess.run(cmd, **run)
    walls, stretches = [], []
    for _ in range(SETUP_SAMPLES):
        stretches.append(cal.block())
        start = perf_counter()
        subprocess.run(cmd, **run)
        walls.append(perf_counter() - start)
    cal.block()
    cal.block()
    return walls, [wall * cal.scale(i) for wall, i in zip(walls, stretches)]


def rerun_check(first: Outcome, rerun: Outcome) -> list[str]:
    """Two runs of one request must give byte-identical artifacts."""
    if not (first.ok and rerun.ok):
        return [f"request {first.index} failed, so its two runs could not be compared"]
    return [f"{name} differs between two runs of request {first.index}"
            for name in first.artifacts if first.artifacts[name] != rerun.artifacts.get(name)]


def end_to_end(client: Client, seconds: float):
    cal = Calibration()
    setup_wall, setup = measure_setup(cal)
    client.prepare()
    first = client.request(0, "warmup")
    outcomes = client.loop(seconds, DESIGN_REQUESTS, "r", cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = {"rerun_identical": rerun_check(first, outcomes[0]),
              "references": client.gate.check_references()}
    if client.w.command == "generate" and first.ok:
        checks["direct_equals_formula"] = client.gate.check_direct(
            first.artifacts["contraction.txt"], first.e_aug)

    # Failed requests keep their time, so a run where every request fails
    # still reports, with ``correct: false``.
    times = [o.ref_seconds for o in outcomes]
    walls = [o.seconds for o in outcomes]
    completed = sum(o.ok for o in outcomes)
    design = [o.e_aug for o in outcomes[:DESIGN_REQUESTS] if o.e_aug is not None] or [0.0]
    attempted = len(outcomes) + len(checks)
    failed = len(outcomes) - completed + sum(bool(p) for p in checks.values())
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "request_s.p50": _metric(statistics.median(times), "s", len(times)),
        "request_s.p90": _metric(_p90(times), "s", len(times)),
        "requests_per_s": _metric(completed / sum(times), "1/s", completed),
        "design_e_aug.mean": _metric(statistics.fmean(design), "efficiency", len(design)),
        "design_e_aug.min": _metric(min(design), "efficiency", len(design)),
        "success_ratio": _metric((attempted - failed) / attempted, "ratio", attempted),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
    }
    extra = {
        "failed_ratio": failed / attempted,
        "requests": len(outcomes),
        "checks": checks,
        # The same timings as measured, before scaling to the reference speed.
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "request_s.p50": statistics.median(walls),
            "request_s.p90": _p90(walls),
            "requests_per_s": completed / sum(walls),
        },
        "calibration": {
            "blocks": len(cal.blocks),
            "block_s.p50": statistics.median(cal.blocks),
            "block_s.min": min(cal.blocks),
            "block_s.max": max(cal.blocks),
        },
    }
    return attempted, failed, metrics, extra


# ---------------------------------------------------------------------------
# traced run


def traced(client: Client, seconds: float):
    from tracing import Tracer, summarize

    tracer = Tracer(client.ad)
    client.prepare()
    client.request(0, "warmup")

    # Each request runs untraced, then traced, so both medians cover the same requests.
    plain: list[Outcome] = []
    outcomes: list[Outcome] = []
    checks = {"traced_equals_untraced": []}
    total = 0.0
    while total < seconds or len(outcomes) < TRACE_MIN_PAIRS:
        i = len(outcomes)
        tracer.uninstall()
        plain.append(client.request(i, "u"))
        tracer.install()
        outcomes.append(client.request(i, "t", tracer))
        total += plain[-1].seconds + outcomes[-1].seconds
        checks["traced_equals_untraced"] += rerun_check(plain[-1], outcomes[-1])
        plain[-1].artifacts = None
        if i >= TRACE_MIN_PAIRS:
            outcomes[-1].artifacts = None
    replays, sizes, checks["replay_identical"] = _probes(client, tracer, outcomes)
    tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{client.w.name}-{client.seed}.json")

    units = summarize(tracer)
    metrics = _layer_metrics(client.w, units, replays, sizes)
    if "workers" in client.ad.SearchConfig.__dataclass_fields__:
        metrics["search.workers2_speedup"] = _metric(_workers2_speedup(client), "ratio", 1)

    traced_p50 = statistics.median(u["wall"] for u in units if u["kind"] == "request")
    plain_p50 = statistics.median(o.seconds for o in plain)
    all_requests = plain + outcomes
    attempted = len(all_requests) + len(checks)
    failed = sum(not o.ok for o in all_requests) + sum(bool(p) for p in checks.values())
    extra = {
        "failed_ratio": failed / attempted,
        "requests": len(all_requests),
        "checks": checks,
        "trace_overhead_s": traced_p50 - plain_p50,
        "untraced_request_s.p50": plain_p50,
        "traced_request_s.p50": traced_p50,
        "spans": len(tracer.spans),
    }
    return attempted, failed, metrics, extra


def _probes(client: Client, tracer, outcomes: list[Outcome]):
    """Traced calls into each layer at the workload's size, one unit each.

    Returns the replayed restarts, the catalogue sizes and the problems of
    the replay identity check.
    """
    ad, w = client.ad, client.w
    v, s, k = w.v, w.s, w.k
    seed = client.seed_at(0)
    # Only requests every traced run makes, so the probes repeat exactly per seed.
    designs = client.designs(outcomes, TRACE_MIN_PAIRS)

    # The full search of the first request, then each of its restarts alone:
    # search_contraction seeds restart i with seed ^ i.
    with tracer.unit("search"):
        full = ad.search_contraction(v, s, k, client.config(seed))
    replays = []
    for i in range(w.restarts):
        with tracer.unit("replay", str(i)):
            replays.append(ad.search_contraction(v, s, k, client.config(seed ^ i, restarts=1)))
    problems = client.gate.check_replay(full, replays)
    if w.command == "generate" and outcomes[0].ok:
        if ad.format_design(full.best).encode() != outcomes[0].artifacts["contraction.txt"]:
            problems.append("the full search differs from request 0")

    if w.strategy != "anneal":
        with tracer.unit("anneal"):
            ad.search_contraction(v, s, k, client.config(
                seed, strategy="anneal", restarts=1, max_iters=ANNEAL_PROBE_ITERS))
    states = designs + [ad.random_contraction(v, s, k, seed=seed + i)
                        for i in range(PROBE_STATES - len(designs))]
    sizes = []
    for c in states:
        with tracer.unit("neighbor_moves"):
            sizes.append(len(ad.neighbor_moves(c)))
    for i in range(RANDOM_PROBES):
        with tracer.unit("random_contraction"):
            ad.random_contraction(v, s, k, seed=seed + i)
    for c in designs[:2]:
        with tracer.unit("direct"):
            ad.full_report(c, include_direct=True)
        with tracer.unit("textio"):
            ad.parse_design(ad.format_design(ad.augment(c)))
    return replays, sizes, problems


def _workers2_speedup(client: Client) -> float:
    """wall(workers=1) / wall(workers=2) of an untraced search with 2+ restarts."""
    walls = []
    for workers in (1, 2):
        cfg = client.config(client.seed_at(0), restarts=max(2, client.w.restarts),
                            workers=workers)
        start = perf_counter()
        client.ad.search_contraction(client.w.v, client.w.s, client.w.k, cfg)
        walls.append(perf_counter() - start)
    return walls[0] / walls[1]


def _layer_metrics(w: Workload, units: list[dict], replays, sizes) -> dict:
    requests = [u for u in units if u["kind"] == "request"]

    def per_unit(names, fallback, field="time"):
        """Per unit, the time, self time or calls spent in ``names``: over the
        requests that reach them, else over the ``fallback`` probes."""
        for pool in (requests, [u for u in units if u["kind"] == fallback]):
            values = [sum(u["names"][n][field] for n in names if n in u["names"])
                      for u in pool if any(n in u["names"] for n in names)]
            if values:
                return values
        raise RuntimeError(f"no traced unit reached {names}")

    search = "search.search_contraction"
    if w.strategy == "anneal":
        evals = [w.restarts * w.iters / t for t in per_unit([search], "anneal")]
    else:
        evals = [ANNEAL_PROBE_ITERS / u["names"][search]["time"]
                 for u in units if u["kind"] == "anneal"]
    replay_time = sum(u["names"][search]["time"] for u in units if u["kind"] == "replay")

    timed = {
        "search.search_contraction_s": per_unit([search], "search"),
        "search.neighbor_moves_s": per_unit(["search.neighbor_moves"], "neighbor_moves"),
        "search.random_contraction_s": per_unit(["search.random_contraction"],
                                                "random_contraction"),
        "efficiency.full_report_s": per_unit(["efficiency.full_report"], "direct"),
        "efficiency.e_con_s": per_unit(["efficiency.e_con"], "direct"),
        "efficiency.c_bar_v_s": per_unit(["efficiency.c_bar_v"], "direct"),
        "efficiency.c_bar_s_s": per_unit(["efficiency.c_bar_s"], "direct"),
        "efficiency.direct_s": per_unit(["efficiency.e_aug_direct", "efficiency.augmented_cefs"],
                                        "direct"),
        "efficiency.info_matrix_augmented_s": per_unit(["efficiency.info_matrix_augmented"],
                                                       "direct"),
        "spectra.eig_symmetric_s": per_unit(["spectra.eig_symmetric"], "direct", "self"),
        "designs.validate_s": per_unit(["designs.validate_contraction",
                                        "designs.validate_augmented"], "direct", "self"),
        "augmentor.augment_s": per_unit(["augmentor.augment"], "direct"),
        "textio.format_design_s": per_unit(["textio.format_design"], "textio"),
        "textio.parse_design_s": per_unit(["textio.parse_design"], "textio"),
        "cli.self_s": [u["self"] for u in requests],
    }
    counts = {
        "spectra.eig_symmetric.calls": per_unit(["spectra.eig_symmetric"], "direct", "calls"),
        "designs.validate_contraction.calls": per_unit(["designs.validate_contraction"],
                                                       "direct", "calls"),
    }
    metrics = {name: _metric(statistics.median(xs), "s", len(xs)) for name, xs in timed.items()}
    metrics.update({name: _metric(statistics.median(xs), "count", len(xs))
                    for name, xs in counts.items()})
    metrics["search.restarts_per_s"] = _metric(len(replays) / replay_time, "1/s", len(replays))
    metrics["search.improvements"] = _metric(
        statistics.fmean(len(r.trace) - 1 for r in replays), "count", len(replays))
    metrics["search.neighbor_moves.size"] = _metric(statistics.fmean(sizes), "count", len(sizes))
    metrics["search.evals_per_s"] = _metric(statistics.median(evals), "1/s", len(evals))
    return metrics


# ---------------------------------------------------------------------------


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


def _load_program():
    if not (SRC / "arcdesign" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'arcdesign'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import arcdesign

    if Path(arcdesign.__file__).resolve().parent != (SRC / "arcdesign").resolve():
        sys.exit(f"error: imported arcdesign from {arcdesign.__file__}, not from {SRC}")
    return arcdesign


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    arcdesign = _load_program()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(WORKLOADS[args.workload], args.seed, work)
        run = traced if args.trace else end_to_end
        attempted, failed, metrics, extra = run(client, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(arcdesign),
        "attempted": attempted,
        "failed": failed,
        **extra,
        "metrics": metrics,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
