"""eventcast pipeline benchmark.

    python3 perfbench/run.py --workload traffic_wide --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The benchmark works in rounds, and starts no round that the
previous round's duration says would end after ``--seconds``. A round builds
the workload's inputs from the seed (timed, at least once and for at least
the workload's ``setup_seconds``), then runs ``run_pipeline`` on the last
inputs built in a fresh process and a fresh output directory, and checks the
outputs against the planted ground truth. A fixed reference work
(``calibrate.py``) is timed around every set-up and pipeline run; ``run_s``
and ``setup_s`` count CPU time at the reference speed that this gives, plus
time spent waiting. The last line of standard output is one JSON object with the
medians over set-ups and rounds: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread (<= nproc) for the benchmark and every process it
# starts, set before numpy is imported anywhere.
THREAD_CAP = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import urllib.request  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "eventcast" / "__init__.py").is_file():
    sys.exit(f"perfbench: no eventcast sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from eventcast.synth import default_scenario  # noqa: E402

import calibrate  # noqa: E402
from checks import check_events, check_traffic  # noqa: E402
from tracing import Tracer, install_setup_tracing, layer_metrics  # noqa: E402
from workloads import ScaleSpec, plan_gaps, scaled_scenario, write_inputs  # noqa: E402

SAMPLES_AFTER_RUN = 2  # reference samples after each pipeline run (and one before each set-up)
WORKER_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    build: Callable  # seed -> (scenario, missing-sample runs)
    check_traffic: bool  # check spikes against planted intervals and a reference fit
    remote: bool = False  # backends served by the emulator
    setup_seconds: float = 0.0  # set-ups per round: at least one, and for this long


def _scaled(spec: ScaleSpec) -> Callable:
    def build(seed):
        scenario = scaled_scenario(spec, seed)
        return scenario, plan_gaps(scenario, spec, seed)
    return build


WORKLOADS = {
    "traffic_wide": Workload(_scaled(ScaleSpec(
        networks=20, weeks=9, events=36, twice_share=0.1, spontaneous_share=0.1,
        gap_networks=4, gaps_per_network=6)), check_traffic=True),
    # A round here holds a ~21 s pipeline run, so a 60 s run makes two rounds;
    # set-ups take ~0.25 s, and 3 s of them per round give setup_s ~12 samples.
    "remote_services": Workload(lambda seed: (default_scenario(seed), []),
                                check_traffic=False, remote=True, setup_seconds=3.0),
    # Runnable but not declared in BENCHMARK.json: its run time follows the
    # disk's fsync latency, which swings it by up to 2x between runs here.
    "events_dense": Workload(_scaled(ScaleSpec(
        networks=3, weeks=5, events=500, twice_share=0.1, spontaneous_share=0.02)),
        check_traffic=False),
}


class Emulator:
    """The service emulator as a child process, stopped by ``close``."""

    def __init__(self, inputs_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "emulator.py"), "--inputs", str(inputs_dir)],
            stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("service emulator did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_worker(config_path: Path, out_dir: Path, traced: bool, service_url: Optional[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(config_path), str(out_dir),
           "1" if traced else "0"]
    if service_url:
        cmd.append(service_url)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def settle(directory: Path) -> None:
    """Make earlier writes and deletions under ``directory`` durable.

    Called outside the timed spans, so that the pipeline's own fsyncs do not
    also pay for flushing set-up files or a previous round's deletions.
    """
    for path in [directory, *directory.rglob("*")]:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def at_reference_speed(wall_s: float, cpu_s: float, speed: float) -> float:
    """Wall time with its CPU part rescaled by ``speed`` (reference / now).

    CPU time beyond wall time (threads running in parallel) is not counted
    twice: at most the wall time is rescaled.
    """
    busy_s = min(cpu_s, wall_s)
    return wall_s - busy_s + busy_s * speed


def set_up(workload: Workload, seed: int, directory: Path, tracer: Optional[Tracer]):
    """Build the scenario and write its inputs.

    Returns (inputs, wall seconds, CPU seconds, synth layers).
    """
    if tracer:
        tracer.spans.clear()
    start, start_cpu = time.perf_counter(), time.process_time()
    scenario, gaps = workload.build(seed)
    inputs = write_inputs(scenario, gaps, directory)
    wall_s, cpu_s = time.perf_counter() - start, time.process_time() - start_cpu
    synth_layers = {k: v for k, v in layer_metrics(tracer).items()
                    if k.startswith("synth.")} if tracer else {}
    return inputs, wall_s, cpu_s, synth_layers


def one_round(workload: Workload, inputs, traced: bool, out_dir: Path) -> dict:
    """Run the pipeline once and check its outputs; returns metrics and failures."""
    emulator = Emulator(inputs.config_path.parent) if workload.remote else None
    stats = None
    try:
        result = run_worker(inputs.config_path, out_dir, traced,
                            emulator.url if emulator else None)
        if emulator:
            stats = emulator.stats()
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return {"failed": True, "failures": [f"pipeline process failed: {exc}"]}
    finally:
        if emulator:
            emulator.close()
    if result["status"] != "ok":
        return {"failed": True, "failures": [f"run_pipeline status: {result['status']}"]}

    metrics = {"peak_rss_mb": result["peak_rss_mb"], "llm_calls": result["stub_llm_calls"]}
    failures: List[str] = []
    requests = {"llm": 0, "search": 0, "embed": 0}
    max_inflight = 0
    if stats:
        requests, max_inflight = stats["requests"], stats["max_inflight"]
        metrics["llm_calls"] = requests["llm"]
        if stats["misses"]:
            failures.append(f"emulator served {stats['misses']} LLM requests with no fixture")
    with open(inputs.config_path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if workload.check_traffic:
        failures += check_traffic(inputs, out_dir, config)
    failures += check_events(inputs, out_dir, config, spontaneous_unmatched=workload.remote)

    if traced:
        layers = dict(result["layers"])
        layers.update({f"pipeline.{stage}_s": seconds
                       for stage, seconds in result["timings_seconds"].items()})
        layers["remote.requests"] = sum(requests.values())
        layers["remote.max_inflight"] = max_inflight
        if stats:
            for layer, kind in (("inference.llm_calls", "llm"),
                                ("inference.retriever_calls", "search"),
                                ("semantics.embed_calls", "embed")):
                if layers[layer] != requests[kind]:
                    failures.append(f"traced {layer}={layers[layer]} but the emulator "
                                    f"logged {requests[kind]} {kind} requests")
        if result["negative_self_time"]:
            failures.append(f"spans with negative self time: {result['negative_self_time']}")
        metrics = layers
    return {"metrics": metrics, "run_s": result["run_s"], "run_cpu_s": result["run_cpu_s"],
            "failed": False, "failures": failures}


def _median(values: list):
    value = statistics.median(values)
    return int(value) if all(isinstance(v, int) for v in values) and value == int(value) else value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tracer = None
    if traced:
        tracer = Tracer()
        install_setup_tracing(tracer)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    calibrate.reference_work()  # warm-up, not timed
    setups, rounds, samples = [], [], []
    try:
        start = time.perf_counter()
        last_round_s = 0.0
        while not rounds or time.perf_counter() - start + last_round_s <= args.seconds:
            began = time.perf_counter()
            inputs = None
            while inputs is None or time.perf_counter() - began < workload.setup_seconds:
                if inputs:
                    shutil.rmtree(inputs.config_path.parent)
                samples.append(calibrate.sample())
                setups.append(set_up(workload, args.seed, work / "inputs", tracer))
                inputs = setups[-1][0]
            settle(work)
            rounds.append(one_round(workload, inputs, traced, work / "out"))
            samples += [calibrate.sample() for _ in range(SAMPLES_AFTER_RUN)]
            print(f"round {len(rounds)}: " + json.dumps(rounds[-1]), file=sys.stderr)
            for child in work.iterdir():
                shutil.rmtree(child)
            settle(work)
            last_round_s = time.perf_counter() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in rounds if not r["failed"]]
    reference_s = statistics.median(samples)
    speed = calibrate.REFERENCE_S / reference_s
    per_setup = [dict(synth, setup_s=at_reference_speed(wall, cpu, speed))
                 for _, wall, cpu, synth in setups]
    per_round = [dict(r["metrics"], run_s=at_reference_speed(r["run_s"], r["run_cpu_s"], speed),
                      **{"calibration.reference_s": reference_s})
                 for r in ok]
    print(f"reference work: median {reference_s:.4f} s over {len(samples)} "
          f"samples; run wall {[round(r['run_s'], 3) for r in ok]}, "
          f"cpu {[round(r['run_cpu_s'], 3) for r in ok]}; set-up wall median "
          f"{statistics.median(wall for _, wall, _, _ in setups):.4f}", file=sys.stderr)
    metrics = {}
    for m in declared["per_layer" if traced else "end_to_end"] if per_round else ():
        pool = per_setup if m["name"] in per_setup[0] else per_round
        metrics[m["name"]] = {"value": _median([s[m["name"]] for s in pool]), "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(ok) and not any(r["failures"] for r in ok),
        "attempted": len(rounds),
        "failed": len(rounds) - len(ok),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
