"""The repository's benchmark: one command, two workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-family --seed 1 --seconds 40 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  Every metric is printed as
``name = value unit``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The command exits 1 when a correctness check failed, 2 when the
analyzer's sources are missing.

``--determinism`` runs every workload's traced run twice under two
``PYTHONHASHSEED`` values and writes ``perfbench/determinism.json``:
the per-layer counts that repeat exactly.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from common import (OUT, ROOT, SRC, TMP, Tally, host_fingerprint,
                    load_spec, log)

WORKLOADS = ("cold-family", "edit-loop")
#: Planted faults, for the benchmark's own tests: each makes one
#: correctness check fail.
FAULTS = ("tamper-certificate", "narrow-ranges", "tamper-widening",
          "corrupt-traced-digest", "corrupt-hit-digest",
          "corrupt-bypass-digest")
#: Smoke scale (tests, determinism check): small programs, fixed work.
SMOKE_SIZES = (0.08, 0.16, 0.32)
SMOKE_PER_KIND = 10
SMOKE_BASE_KLOC = 0.12
HERE = os.path.dirname(os.path.abspath(__file__))
DETERMINISM = os.path.join(HERE, "determinism.json")
TIME_UNITS = ("s", "ms")


def run_workload(args, tally: Tally):
    """(metrics, info) of one run; metrics not measured are absent."""
    import coldfamily
    import serveloop

    if args.workload == "edit-loop":
        kw = ({"per_kind": SMOKE_PER_KIND, "base_kloc": SMOKE_BASE_KLOC}
              if args.smoke else {})
        return serveloop.run(args.seed, 0 if args.smoke else args.seconds,
                             args.trace,
                             args.fault, args.hash_seed, tally, **kw)
    sizes = SMOKE_SIZES if args.smoke else coldfamily.SIZES
    if args.trace:
        return coldfamily.run_traced(args.seed, args.fault, args.hash_seed,
                                     tally, sizes=sizes)
    return coldfamily.run_untraced(
        args.seed, args.seconds, args.fault, args.hash_seed, tally,
        sizes=sizes, max_programs=len(sizes) if args.smoke else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=FAULTS, default=None,
                    help="plant a fault that one correctness check must "
                         "catch (the benchmark's own tests)")
    ap.add_argument("--hash-seed", type=int, default=None,
                    help="PYTHONHASHSEED of every analyzer process")
    ap.add_argument("--smoke", action="store_true",
                    help="small programs and fixed work (tests)")
    ap.add_argument("--determinism", action="store_true",
                    help="check which per-layer counts repeat under two "
                         "hash seeds; writes perfbench/determinism.json")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the analyzer's sources are missing "
              f"(no {os.path.relpath(SRC, ROOT)}/repro next to "
              f"perfbench/)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # A termination request unwinds normally, so the daemons and
    # children this run started are stopped by their cleanup code.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.determinism:
        return determinism(args)
    if args.workload is None:
        ap.error("--workload is required")

    spec = load_spec()
    host = host_fingerprint(args.seed)
    print("# host " + json.dumps(host, sort_keys=True), flush=True)
    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace}", flush=True)
    tally = Tally()
    try:
        measured, info = run_workload(args, tally)
    except Exception as e:  # the run is reported, never left half-printed
        tally.check(False, f"workload crashed: {type(e).__name__}: {e}")
        measured, info = {}, {}
    finally:
        _remove_empty(TMP)

    section = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        measured["ok_ratio"] = 1.0 - tally.failed / max(tally.attempted, 1)
    metrics = {}
    for m in spec[section]:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                tally.check(False, f"metric {m['name']} not measured")
            value = 0.0  # a layer this workload does not exercise
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    _print_report(args, metrics, info, tally)
    if args.trace:
        _write_trace(args, host, metrics, info)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _print_report(args, metrics, info, tally: Tally) -> None:
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # The raw figures behind proved_ratio and ok_ratio, and the
        # edit-loop latencies (also per-layer serve.* metrics).
        print(f"alarms = {info.get('alarms', 0)} count")
        print(f"fail_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
              f"ratio")
        for key in ("warm_ms_p50", "warm_ms_p90", "hit_ms_p50"):
            if key in info:
                print(f"{key} = {info[key]:.6g} ms")
    print("# run " + json.dumps({k: v for k, v in info.items()
                                 if k != "spans"}, sort_keys=True))
    for failure in tally.failures:
        print(f"# FAILED: {failure}")


def _write_trace(args, host, metrics, info) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"host": host, "workload": args.workload,
                   "seed": args.seed, "metrics": metrics,
                   "spans": info.get("spans", [])}, f)
    print(f"# trace written to {os.path.relpath(path, ROOT)}")


def _remove_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


def determinism(args) -> int:
    """Run each workload's traced run under two hash seeds and record
    which per-layer counts (every metric not in seconds) repeat."""
    spec = load_spec()
    names = [m["name"] for m in spec["per_layer"]
             if m["unit"] not in TIME_UNITS]
    report = {"seed": args.seed, "host": host_fingerprint(args.seed),
              "hash_seeds": [1, 2], "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = []
        for hash_seed in (1, 2):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--trace", "1", "--hash-seed", str(hash_seed)]
            if args.smoke:
                cmd.append("--smoke")
            log(f"determinism: {workload} under PYTHONHASHSEED={hash_seed}")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:]
            res = json.loads(last[0]) if last else {}
            ok = ok and proc.returncode == 0
            runs.append(res.get("metrics", {}))
        same, differ = [], {}
        for name in names:
            a = runs[0].get(name, {}).get("value")
            b = runs[1].get(name, {}).get("value")
            if a is not None and a == b:
                same.append(name)
            else:
                differ[name] = [a, b]
        report["workloads"][workload] = {"repeat_exactly": same,
                                         "differ": differ}
    with open(DETERMINISM, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.relpath(DETERMINISM, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
