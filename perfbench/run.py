"""imteval benchmark: one workload per process, timed in-process.

    python3 perfbench/run.py --workload rma_full_buffer --seed 7 --seconds 20 --trace 0

Drives the calls ``simulate run`` makes (engine.run -> report.check_compliance
-> report.emit, or engine.density_search for the non-full-buffer route) on a
preset whose master_seed is ``--seed``. With ``--trace 0`` it times whole
runs and prints the end-to-end metrics; with ``--trace 1`` it traces runs
and prints the per-layer metrics. Every run's output is checked; the last
stdout line is one JSON object. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
GOLDEN = HERE / "golden.json"

if not (ROOT / "src" / "imteval" / "__init__.py").is_file():
    sys.exit(f"imteval sources not found under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from imteval import engine, geometry, report  # noqa: E402
from imteval.scenario import TestEnvironment, builtin_requirements, preset  # noqa: E402

import spans  # noqa: E402

# the presets' own master_seed; golden digests are recorded at this seed
DEFAULT_SEED = 20200101
MIN_RUNS = 3  # timed runs per process, whatever --seconds says
SETUP_SLOT_S = 0.3  # set-ups before each timed run repeat until this much time passed
TRACE_MIN_DROPS = 20
# reference_kernel's time on a quiet host; timed figures are scaled to it
REFERENCE_NOMINAL_S = 0.04


@dataclass(frozen=True)
class Workload:
    environment: TestEnvironment
    drops: int = 0  # drops per engine.run; 0 selects the density search
    sinr_only: bool = False
    search: tuple = ()  # engine.density_search keyword arguments

    def config(self, seed: int):
        base = preset(self.environment, "A")
        return replace(base, master_seed=seed, drops=self.drops or base.drops)


# Each workload loads a different layer; BENCHMARK.json and NOTES.md say which.
# Run lengths keep one run to a few seconds, so that a process fits several.
WORKLOADS = {
    "rma_full_buffer": Workload(TestEnvironment.RURAL_EMBB, drops=8),
    "urllc_sinr_only": Workload(TestEnvironment.URBAN_MACRO_URLLC, drops=300, sinr_only=True),
    "mmtc_density_search": Workload(TestEnvironment.URBAN_MACRO_MMTC,
                                    search=(("steps", 3), ("n_drops", 1))),
}


@dataclass
class Outcome:
    """One evaluation from config to bundle (or density result)."""

    wall_s: float  # config to bundle written / density result
    engine_s: float  # engine.run or engine.density_search alone
    drops: int  # drops the timed call executed outside calibration
    digest: str  # SHA-256 of the bundle files or of the search evaluations
    values: tuple  # every KPI value, or every density probe delay


def evaluate(workload: Workload, config, out_dir: Path, workers: int = 1) -> Outcome:
    """Run the workload once, the way ``simulate run`` would."""
    if workload.search:
        t0 = time.perf_counter()
        result, _ = engine.density_search(config, **dict(workload.search))
        t1 = time.perf_counter()
        digest = hashlib.sha256(repr(result.evaluations).encode("ascii")).hexdigest()
        n_drops = dict(workload.search)["n_drops"]
        return Outcome(t1 - t0, t1 - t0, len(result.evaluations) * n_drops, digest,
                       tuple(delay for _, delay in result.evaluations))
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    result = engine.run(config, workers=workers, sinr_only=workload.sinr_only)
    t1 = time.perf_counter()
    compliance = report.check_compliance(result, builtin_requirements())
    files = report.emit(result, compliance, out_dir)
    t2 = time.perf_counter()
    return Outcome(t2 - t0, t1 - t0, result.drops_executed, bundle_digest(files),
                   tuple(k.value for k in result.kpis))


def bundle_digest(files) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.basename(path).encode("utf-8") + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def problems(outcome: Outcome, reference: str | None, golden: str | None) -> list:
    """Reasons one run counts as failed; empty when its output is correct."""
    found = []
    bad = [v for v in outcome.values if not math.isfinite(v)]
    if bad:
        found.append(f"non-finite KPI or probe delay: {bad}")
    if reference is not None and outcome.digest != reference:
        found.append(f"digest {outcome.digest[:12]} differs from this process's "
                     f"first run {reference[:12]}")
    if golden is not None and outcome.digest != golden:
        found.append(f"digest {outcome.digest[:12]} differs from golden {golden[:12]}")
    return found


def golden_digest(workload_name: str, seed: int):
    """(digest or None, note): golden digests hold only at the seed and the
    Python and numpy versions they were recorded with."""
    record = json.loads(GOLDEN.read_text())
    here = (platform.python_version(), np.__version__)
    if seed != record["seed"]:
        return None, f"golden: not checked at seed {seed} (recorded at {record['seed']})"
    if here != (record["python"], record["numpy"]):
        return None, (f"golden: not checked on python {here[0]} / numpy {here[1]} "
                      f"(recorded on {record['python']} / {record['numpy']})")
    return record["digests"][workload_name], "golden: checked"


def measure_setup(config) -> float:
    """geometry.build_layout plus engine.calibrate_ul_power on ``config``.

    Set-up is timed on the preset at DEFAULT_SEED, whatever the run's seed:
    the number of calibration iterations depends on the seed (three or four
    on the density search), and a set-up time that moved with the seed
    would hide what the program does.
    """
    config = replace(config, master_seed=DEFAULT_SEED)
    t0 = time.perf_counter()
    layout = geometry.build_layout(config)
    engine.calibrate_ul_power(config, layout)
    return time.perf_counter() - t0


class Ledger:
    """Counts attempted and failed runs and says why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, run, reference=None, golden=None):
        """Call ``run()``; return its Outcome, or None when it failed."""
        self.attempted += 1
        try:
            outcome = run()
        except Exception:  # a raising run is a failed run; keep measuring
            self.failed += 1
            print(f"FAIL {label}: raised", file=sys.stderr)
            traceback.print_exc()
            return None
        found = problems(outcome, reference, golden)
        if found:
            self.failed += 1
            print(f"FAIL {label}: {'; '.join(found)}", file=sys.stderr)
            return None
        return outcome


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def reference_kernel(data) -> float:
    """Seconds a fixed piece of work takes on this host now: an interpreter
    loop, vector maths on 512 KB, and many numpy calls on tiny arrays, as in
    the drop loop and the PF scheduler. It does not touch imteval."""
    t0 = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i
    for _ in range(16):
        np.exp(data) * 2.0 + np.sort(data)
    rates, idx, avg = data[:12], np.arange(12), np.zeros(12)
    for _ in range(1250):
        metric = np.where(avg > 0.0, rates / np.where(avg > 0.0, avg, 1.0), np.inf)
        np.lexsort((idx, -metric))
        avg = 0.99 * avg + 0.01 * (rates > 0.0)
    return time.perf_counter() - t0


def timed(workload: Workload, config, seconds: float, ledger: Ledger, golden, out_dir):
    """End-to-end metrics from slots of set-up and one whole run, repeated
    until ``seconds`` have passed and MIN_RUNS runs are done.

    The first run of a process pays one-off page faults; medians over at
    least three runs leave it out.

    The host's speed drifts by up to 2x within seconds to minutes, because
    other tenants share its cores, and the drift moves every timing alike.
    So the reference kernel runs before and after every set-up slot and
    every run, and each time is scaled by REFERENCE_NOMINAL_S over the mean
    of the two kernel times around it: the figures then follow the program,
    not the host. Raw figures are printed beside them.
    """
    start = time.perf_counter()
    data = np.random.default_rng(0).standard_normal(1 << 16)
    setups, runs = [], []  # (raw seconds, scale), (Outcome, scale)
    reference = None
    probe = reference_kernel(data)
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        slot, slot_setups = time.perf_counter(), []
        while not slot_setups or time.perf_counter() - slot < SETUP_SLOT_S:
            slot_setups.append(measure_setup(config))
        mid = reference_kernel(data)
        setups.extend((t, REFERENCE_NOMINAL_S * 2.0 / (probe + mid)) for t in slot_setups)
        outcome = ledger.check(f"run {ledger.attempted}",
                               lambda: evaluate(workload, config, out_dir), reference, golden)
        probe = reference_kernel(data)
        scale = REFERENCE_NOMINAL_S * 2.0 / (mid + probe)
        if outcome is not None:
            reference = reference or outcome.digest
            runs.append((outcome, scale))
            print(f"run {len(runs)}: wall_s {outcome.wall_s:.4f} engine_s {outcome.engine_s:.4f} "
                  f"set-up s {statistics.median(slot_setups):.4f} scale {scale:.4f}")
        elif ledger.failed > MIN_RUNS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not runs:
        return None

    setup_s = statistics.median(t * k for t, k in setups)
    walls = [o.wall_s * k for o, k in runs]
    rates = [o.drops / (o.engine_s * k - setup_s) for o, k in runs]
    q1, q3 = quartiles(walls)
    raw_setup = statistics.median(t for t, _ in setups)
    print(f"{len(runs)} runs of {runs[0][0].drops} drops, {len(setups)} set-ups; "
          f"raw wall_s median {statistics.median(o.wall_s for o, _ in runs):.4f}, "
          f"raw setup_s median {raw_setup:.4f}")
    print(f"scaled wall_s q1 {q1:.4f} median {statistics.median(walls):.4f} q3 {q3:.4f}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "drops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def bracketed(ledger: Ledger, label: str, run, data, reference):
    """``ledger.check`` one run between two reference kernels; returns
    (Outcome or None, host scale), the scale as in ``timed``."""
    before = reference_kernel(data)
    outcome = ledger.check(label, run, reference=reference)
    return outcome, REFERENCE_NOMINAL_S * 2.0 / (before + reference_kernel(data))


def traced(workload: Workload, config, ledger: Ledger, golden, out_dir, spans_path):
    """Per-layer metrics from traced runs. Every run is checked byte for
    byte against the untraced one-worker warm-up run.

    A warm-up run goes first, so that no timed run is the process's first.
    Then untraced, traced and (for engine.run workloads) workers=2 runs
    alternate, at least MIN_RUNS rounds and until TRACE_MIN_DROPS drops were
    traced, which the tail percentile needs. Each run is scaled to the
    host as in ``timed``; the tracing overhead and pool scaling are medians
    of the ratios within a round, the message rate a median over runs.
    """
    warm = ledger.check("warm-up run", lambda: evaluate(workload, config, out_dir), golden=golden)
    if warm is None:
        return None
    data = np.random.default_rng(0).standard_normal(1 << 16)
    tracer = spans.Tracer()
    plain, trace_runs, pooled = [], [], []  # (Outcome, scale)

    def run_once(workers=1):
        return evaluate(workload, config, out_dir, workers)

    while len(trace_runs) < MIN_RUNS or sum(o.drops for o, _ in trace_runs) < TRACE_MIN_DROPS:
        runs = [bracketed(ledger, "untraced run", run_once, data, warm.digest)]
        with tracer.installed():
            runs.append(bracketed(ledger, "traced run", run_once, data, warm.digest))
        if not workload.search:  # the density search has no worker pool
            runs.append(bracketed(ledger, "workers=2 run", lambda: run_once(workers=2),
                                  data, warm.digest))
        if any(outcome is None for outcome, _ in runs):
            return None
        plain.append(runs[0])
        trace_runs.append(runs[1])
        pooled.extend(runs[2:])
    tracer.write(spans_path)
    metrics = spans.layer_metrics(tracer.spans)

    def ratio(runs, others, field):
        """Median over rounds of one run's scaled time over the other's."""
        return statistics.median(getattr(a, field) * ka / (getattr(b, field) * kb)
                                 for (a, ka), (b, kb) in zip(runs, others))

    scaling, identical = 0.0, 0.0
    if pooled:  # every workers=2 bundle equalled the workers=1 bundle
        scaling, identical = ratio(plain, pooled, "engine_s") / 2.0, 1.0
    plain_engine = statistics.median(o.engine_s * k for o, k in plain)
    messages = metrics["traffic.serve_fifo.messages"][0]
    metrics.update({
        "engine.pool.scaling_eff": (scaling, "ratio"),
        "engine.pool.identical": (identical, "bool"),
        "trace.overhead_frac": (ratio(trace_runs, plain, "wall_s") - 1.0, "ratio"),
        "messages_per_s": (messages / plain_engine, "1/s"),
    })
    print(f"{len(plain)} rounds; scaled wall_s median untraced "
          f"{statistics.median(o.wall_s * k for o, k in plain):.4f}, traced "
          f"{statistics.median(o.wall_s * k for o, k in trace_runs):.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    golden, note = golden_digest(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed} trace {args.trace}; {note}")
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / str(os.getpid())  # bundles of this process; removed at the end
    ledger = Ledger()
    try:
        if args.trace:
            metrics = traced(workload, config, ledger, golden, out_dir,
                             OUT / f"spans_{args.workload}_{args.seed}.json")
        else:
            metrics = timed(workload, config, args.seconds, ledger, golden, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if metrics is None:
        print("no run completed; no metrics", file=sys.stderr)
        return 1
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:.6g} {unit}")
    print(f"failed_frac {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} runs)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
