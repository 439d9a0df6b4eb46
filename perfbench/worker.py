"""Run ``run_pipeline`` once in a process of its own and report its cost.

    python3 perfbench/worker.py <pipeline.json> <out_dir> <trace: 0|1> [<service url>]

With a service URL, the LLM, embedder and retriever are the HTTP backends
pointed at the service emulator there instead of the config's local ones.

A fresh process per run keeps set-up memory out of ``peak_rss_mb``. Prints
one JSON object with the run's wall and CPU time, peak RSS, the completions asked
of a stub LLM backend (counted at ``send``), the run report's status and
stage timings and, when tracing, the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eventcast.inference.backends import StubLlmBackend  # noqa: E402
from eventcast.pipeline import PipelineConfig, run_pipeline  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    config_path, out_dir, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    config = PipelineConfig.load(config_path)
    config.out_dir = out_dir
    if len(sys.argv) > 4:
        url = sys.argv[4]
        config.llm = {"kind": "http", "endpoint_url": f"{url}/llm", "model_name": "emulated"}
        config.embedder = {"kind": "http", "endpoint_url": f"{url}/embed",
                           "model_name": "emulated"}
        config.retriever = {"kind": "http", "base_url": f"{url}/search"}

    llm_calls = 0
    tracer = tracing.Tracer()
    if traced:
        tracing.install_pipeline_tracing(tracer)
    else:
        stub_send = StubLlmBackend.send

        def counted_send(self, prompt, salt=""):
            nonlocal llm_calls
            llm_calls += 1
            return stub_send(self, prompt, salt)

        StubLlmBackend.send = counted_send

    start, start_cpu = time.perf_counter(), time.process_time()
    report = run_pipeline(config)
    run_s, run_cpu_s = time.perf_counter() - start, time.process_time() - start_cpu

    result = {
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": tracing.peak_rss_mb(),
        "stub_llm_calls": llm_calls,
        "status": report["status"],
        "timings_seconds": report["timings_seconds"],
    }
    if traced:
        result["layers"] = tracing.layer_metrics(tracer)
        result["negative_self_time"] = sorted(
            {name for name, seconds in tracer.span_self_times() if seconds < -1e-9})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
