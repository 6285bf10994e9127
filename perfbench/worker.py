"""One fresh process per workload run: imports qblock and runs the closed loop.

    python3 perfbench/worker.py --probe SRC
    python3 perfbench/worker.py SRC WORKLOAD SEED SECONDS TRACE OUT_DIR

``--probe`` only times ``import qblock`` and prints the seconds and the
calibration around the import (see ``calibrate``). Otherwise the
worker runs ops ``parse_graph(text) -> qut(g) -> render(expr, "json")`` one
after another (one client, closed loop) until the ops' own time reaches the
budget, counted at the reference speed (see ``CAL_REF_S``). It writes one
record per op to OUT_DIR/ops-<workload>.txt and
prints one JSON summary. Making the next input, and reading the
classical shadow order and digest of a result, happen between ops and are
not timed. With TRACE=1 that first pass gets a third of the budget; its
inputs are then replayed twice, untraced and traced, so that the tracing
overhead compares two warm passes over the same inputs. Last, untraced and
untimed by the loop, it makes one op on each deep spine of ``DEEP_SPINES``.
Started by run.py.
"""

import sys
from time import perf_counter


# On a shared host the CPU speed can drift by a third over minutes as other
# tenants load it. Each op is therefore timed next to a fixed loop, and
# times are scaled to the reference speed at which that loop takes
# CAL_REF_S (a 2.1 GHz Xeon core under load). The loop budget is counted in
# scaled time too, so a run does the same amount of work on a fast or a slow
# host. The loop allocates no container objects, so the cyclic GC never runs
# inside it and the program's heap cannot slow it.
CAL_REF_S = 0.004
CALIBRATE_EVERY_S = 0.1


def calibrate() -> float:
    start = perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i & 0xFFFF
    return perf_counter() - start


def _import_qblock(src: str):
    """(module, seconds to import it, calibration around the import)."""
    sys.path.insert(0, src)
    before = calibrate()
    start = perf_counter()
    import qblock

    setup = perf_counter() - start
    return qblock, setup, (before + calibrate()) / 2


def _op(api, text: str):
    expr = api.qut(api.parse_graph(text)).expr
    return expr, api.render(expr, "json")


def _replay(api, texts: list[str], t) -> tuple[float, int]:
    """Run the inputs again, under tracer `t` if given: (busy seconds, failures)."""
    busy = 0.0
    failed = 0
    for i, text in enumerate(texts):
        start = perf_counter()
        try:
            if t is None:
                _op(api, text)
            else:
                t.op(i, _op, api, text)
        except Exception:
            failed += 1
        busy += perf_counter() - start
    return busy, failed


def main(argv: list[str]) -> int:
    if argv[0] == "--probe":
        _, setup, cal = _import_qblock(argv[1])
        print(setup, cal)
        return 0
    src, workload, seed, seconds, trace, out_dir = argv
    api, setup, setup_cal = _import_qblock(src)

    import hashlib
    import json
    import os
    import resource

    import tracer
    from workloads import DEEP_SPINES, make_deep_spine, make_input

    traced = trace == "1"
    budget = float(seconds) / (3 if traced else 1)
    texts: list[str] = []
    attempted = 0
    busy = 0.0
    cals = [calibrate()]
    last_cal = perf_counter()
    # One line per op, written as it ends, so that the records do not grow
    # the heap the program's garbage collector walks: seconds, index of the
    # calibration before the op (the next one follows it), then either the
    # classical shadow order in hex and the sha256 of the render, or
    # "!<exception class>".
    with open(os.path.join(out_dir, f"ops-{workload}.txt"), "w") as records:
        while busy < budget:
            if perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                cals.append(calibrate())
                last_cal = perf_counter()
            text = make_input(workload, int(seed), attempted).text
            start = perf_counter()
            try:
                expr, rendered = _op(api, text)
            except Exception as exc:  # a failed op is counted, never fatal
                elapsed = perf_counter() - start
                outcome = "!" + type(exc).__name__
            else:
                elapsed = perf_counter() - start
                shadow = hex(api.classical_shadow_order(expr))
                outcome = f"{shadow} {hashlib.sha256(rendered.encode()).hexdigest()}"
            records.write(f"{elapsed!r} {len(cals) - 1} {outcome}\n")
            busy += elapsed * CAL_REF_S / cals[-1]
            attempted += 1
            if traced:
                texts.append(text)
    cals.append(calibrate())
    result = {
        "setup_s": setup,
        "setup_cal_s": setup_cal,
        "cal_s": cals,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        untraced_busy, _ = _replay(api, texts, None)
        t = tracer.Tracer()
        t.install()
        try:
            traced_busy, failed = _replay(api, texts, t)
        finally:
            t.uninstall()
        spans_path = os.path.join(out_dir, f"spans-{workload}.jsonl.gz")
        t.write(spans_path)
        result["trace"] = {
            "busy_s": traced_busy,
            "untraced_busy_s": untraced_busy,
            "failed": failed,
            "calls": t.calls,
            "self_s": t.self_s,
            "fn_calls": t.fn_calls,
            "spans": len(t.spans),
            "spans_path": spans_path,
        }
        # one record per spine: seconds, then the outcome as in the ops file
        result["deep_spine"] = []
        for spine in DEEP_SPINES:
            text = make_deep_spine(int(seed), spine).text
            start = perf_counter()
            try:
                expr, _ = _op(api, text)
            except Exception as exc:
                outcome = "!" + type(exc).__name__
            else:
                outcome = hex(api.classical_shadow_order(expr))
            result["deep_spine"].append([spine, perf_counter() - start, outcome])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
