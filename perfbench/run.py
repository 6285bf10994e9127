"""qblock benchmark: three seeded graph workloads, checked against an oracle.

Run from the repository root:

    python3 perfbench/run.py --workload forest-block-large --seed 1 --seconds 30 --trace 0

Each run starts fresh processes, one after another: a few that only time
``import qblock`` (``setup_s`` is their median) and one worker that runs the
workload's closed loop (see worker.py). Every completed op's classical
shadow order is then checked against an independent |Aut| oracle
(oracle.py), outside the timed region. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. The line before it is a JSON report with the details (failure
classes, tail percentile and sample count, render digests, ratio bases); it
is also written, with the spans of a traced run, under perfbench/out/.
The exit code is 1 if any result disagrees with the oracle, and 2, with no
result printed, if the run cannot finish: no qblock sources under ./src, a
worker that fails, or a run past the deadline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import oracle
import tracer
from worker import CAL_REF_S
from workloads import WORKLOADS, make_deep_spine, make_input

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES = 7
DEADLINE_S = 170
TAIL_BLOCKS = 10
TAIL_BLOCK_MIN = 1000
# ops covered by the fixed-prefix digest of rendered outputs
DIGEST_OPS = {"forest-block-large": 10, "outerplanar-large": 20, "small-sweep": 2000}


class BenchError(Exception):
    pass


def _call(cmd: list[str], deadline: float) -> str:
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[2:])} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tail(latencies: list[float]) -> dict:
    """Tail latency: the highest percentile with >= 10 samples above it.

    The latencies, in run order, are cut into up to TAIL_BLOCKS blocks of at
    least TAIL_BLOCK_MIN samples (one block for a short run). The value is
    the median over the blocks of each block's tail. A stall of the shared
    host slows a few ops in a row; this way it moves one block's tail only,
    not the result.
    """
    n = len(latencies)
    blocks = max(1, min(TAIL_BLOCKS, n // TAIL_BLOCK_MIN))
    tails = []
    for b in range(blocks):
        lat = sorted(latencies[b * n // blocks : (b + 1) * n // blocks])
        above = min(10, len(lat) - 1)
        tails.append(lat[len(lat) - 1 - above])
    size = n // blocks
    return {
        "value": statistics.median(tails),
        "percentile": 100.0 * (size - min(10, size - 1)) / size,
        "samples": n,
        "blocks": blocks,
        "above": min(10, size - 1),
    }


def _digest(entries: list[str]) -> dict:
    return {
        "ops": len(entries),
        "sha256": hashlib.sha256("\n".join(entries).encode()).hexdigest(),
    }


def _per_layer(res: dict, inputs: list) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus the bases of its ratios."""
    tr = res["trace"]
    calls, self_s, fn_calls = tr["calls"], tr["self_s"], tr["fn_calls"]
    total = sum(self_s.values())
    bases = {
        "ops": len(inputs),
        "vertices": sum(inp.n for inp in inputs),
        "outer_blocks": sum(inp.outer_blocks for inp in inputs),
        "stable_colorings": fn_calls["qblock.engine.stable_coloring"],
        "untraced_s": tr["untraced_busy_s"],
    }

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    m = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.calls"] = _metric(calls[layer], "count")
        m[f"{layer}.self_pct"] = _metric(100.0 * self_s[layer] / total, "%")
    m["canon.rooted_code.calls_per_vertex"] = _metric(
        ratio(calls["canon.rooted_code"], bases["vertices"]), "ratio"
    )
    m["blocks.decompose.calls_per_vertex"] = _metric(
        ratio(calls["blocks.decompose"], bases["vertices"]), "ratio"
    )
    m["classrec.hamiltonian_cycle.calls_per_block"] = _metric(
        ratio(calls["classrec.hamiltonian_cycle"], bases["outer_blocks"]), "ratio"
    )
    m["wl.refine.calls_per_stable_coloring"] = _metric(
        ratio(calls["wl.refine"], bases["stable_colorings"]), "ratio"
    )
    m["trace.overhead_ratio"] = _metric(tr["busy_s"] / tr["untraced_busy_s"], "ratio")
    m["trace.op_s"] = _metric(total, "s")
    m["trace.ops"] = _metric(bases["ops"], "count")
    m["trace.vertices"] = _metric(bases["vertices"], "count")
    m["trace.outer_blocks"] = _metric(bases["outer_blocks"], "count")
    deep = res["deep_spine"]
    m["deep_spine.fail_ratio"] = _metric(
        sum(outcome.startswith("!") for _, _, outcome in deep) / len(deep), "ratio"
    )
    return m, bases


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qblock", "__init__.py")):
        raise FileNotFoundError("no qblock sources at ./src/qblock")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-trace{int(trace)}"
    worker = os.path.join(HERE, "worker.py")

    probes = [
        [float(x) for x in _call([sys.executable, worker, "--probe", src], deadline).split()]
        for _ in range(PROBES)
    ]
    res = json.loads(
        _call(
            [sys.executable, worker, src, workload, str(seed), str(seconds),
             str(int(trace)), out_dir],
            deadline,
        )
    )
    probes.append([res["setup_s"], res["setup_cal_s"]])
    setups = [t * CAL_REF_S / cal for t, cal in probes]
    cals = res["cal_s"]

    ops = []
    with open(os.path.join(out_dir, f"ops-{workload}.txt")) as f:
        for line in f:
            seconds_s, cal, *outcome = line.split()
            op = {"s": float(seconds_s), "cal": int(cal)}
            if outcome[0].startswith("!"):
                op["error"] = outcome[0][1:]
            else:
                op["shadow"], op["sha256"] = outcome
            ops.append(op)

    def scaled(op: dict) -> float:
        return op["s"] * 2 * CAL_REF_S / (cals[op["cal"]] + cals[op["cal"] + 1])

    # check every completed op against the oracle, outside the timed loop
    inputs = [make_input(workload, seed, i) for i in range(len(ops))]
    failures: dict[str, int] = {}
    latencies: list[float] = []
    raw: list[float] = []
    wrong = 0
    entries = []
    for inp, op in zip(inputs, ops):
        if "error" in op:
            failures[op["error"]] = failures.get(op["error"], 0) + 1
            entries.append("error:" + op["error"])
            continue
        latencies.append(scaled(op))
        raw.append(op["s"])
        entries.append(op["sha256"])
        if time.monotonic() > deadline:
            raise BenchError("oracle checks ran past the deadline")
        if hex(oracle.aut_order(inp.text, inp.oracle)) != op["shadow"]:
            wrong += 1
    if not latencies:
        raise BenchError("no op completed")

    attempted, failed = len(ops), len(ops) - len(latencies)
    tail = _tail(latencies)
    e2e = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "graphs_per_s": _metric(len(latencies) / sum(map(scaled, ops)), "1/s"),
        "latency_p50_ms": _metric(1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": _metric(1000.0 * tail["value"], "ms"),
        "peak_rss_mb": _metric(res["peak_rss_kb"] / 1024.0, "MB"),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "attempted": attempted,
        "completed": len(latencies),
        "fail_ratio": failed / attempted,
        "failures_by_class": failures,
        "checked": len(latencies),
        "wrong": wrong,
        "wrong_ratio": wrong / len(latencies),
        "latency_tail": {**tail, "value_ms": 1000.0 * tail["value"]},
        "setup_samples_s": setups,
        "raw": {
            "setup_s": statistics.median(t for t, _ in probes),
            "graphs_per_s": len(raw) / sum(op["s"] for op in ops),
            "latency_p50_ms": 1000.0 * statistics.median(raw),
            "latency_tail_ms": 1000.0 * _tail(raw)["value"],
            "calibration_s": statistics.median(cals),
        },
        "digest_prefix": _digest(entries[: DIGEST_OPS[workload]]),
        "digest_all": _digest(entries),
        "end_to_end": e2e,
    }
    if trace:
        per_layer, bases = _per_layer(res, inputs)
        report["per_layer"] = per_layer
        report["ratio_bases"] = bases
        report["trace_failed"] = res["trace"]["failed"]
        report["deep_spine"] = []
        for spine, secs, outcome in res["deep_spine"]:
            entry = {"spine": spine, "s": secs}
            if outcome.startswith("!"):
                entry["error"] = outcome[1:]
            else:
                inp = make_deep_spine(seed, spine)
                entry["correct"] = hex(oracle.aut_order(inp.text, inp.oracle)) == outcome
                wrong += not entry["correct"]
            report["deep_spine"].append(entry)
        report["spans"] = {"count": res["trace"]["spans"], "path": res["trace"]["spans_path"]}
    with open(os.path.join(out_dir, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["per_layer"] if trace else e2e,
    }
    return report, result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
