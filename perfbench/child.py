"""One family program, verified in a fresh interpreter.

Usage (started by ``coldfamily.py``, not by hand)::

    python3 perfbench/child.py '<job json>'

The child imports ``repro``, prints ``ready`` (the parent times spawn to
``ready`` as the interpreter set-up), then generates the program named
by the job, analyzes it, optionally certifies it, checks it against the
concrete-interpreter oracle and re-analyzes it at ``jobs=1`` as a
reference, and prints one JSON line with everything it measured.
"""

import json
import sys
import time

NARROW_FRACTION = 8  # planted fault: input ranges shrunk to 1/8th


def _alarm_keys(payload):
    return [[a["kind"], a["line"], a["col"]] for a in payload["alarms"]]


def run_job(job):
    from contextlib import nullcontext

    from repro import analyze
    from repro.certify import certify_result
    from repro.errors import CertificateError
    from repro.fuzz.oracle import run_oracle
    from repro.serve.fingerprints import result_digest, result_payload
    from repro.synth import FamilySpec, generate_program

    from common import calibrate
    from tracer import Tracer

    fault = job.get("fault")
    gp = generate_program(FamilySpec(target_kloc=job["kloc"],
                                     seed=job["family_seed"]))
    # Default semantics; certificate and invariant recording on, so the
    # result can be certified and checked by the oracle.
    cfg = gp.analyzer_config(certify=True, collect_invariants=True)
    if fault == "narrow-ranges":
        cfg = cfg.with_overrides(input_ranges={
            k: (lo, lo + (hi - lo) / NARROW_FRACTION)
            for k, (lo, hi) in gp.input_ranges.items()})
    tracer = Tracer(job["trace_id"]) if job["trace"] else None
    if tracer is not None:
        tracer.install()

    def span(name, profile=False):
        return nullcontext() if tracer is None else tracer.span(name, profile)

    out = {"lines": gp.loc}
    cal_before = calibrate()
    t0 = time.perf_counter()
    with span("analyze"):
        result = analyze(gp.source, "fam.c", config=cfg, jobs=job["jobs"])
    out["analyze_s"] = time.perf_counter() - t0

    if job["certify"]:
        if fault == "tamper-certificate":
            result.cert_invariants = result.cert_invariants[:-1]
        t0 = time.perf_counter()
        try:
            with span("certify", profile=True):
                summary = certify_result(result, gp.source, "fam.c")
        except CertificateError as e:
            out["certify_error"] = str(e)
        else:
            out["certify"] = {"stmt_records": summary.stmt_records,
                              "loop_records": summary.loop_records,
                              "substitutions": summary.substitutions}
        out["certify_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    # Host speed around the measured work (see common.calibrate).
    out["cal_s"] = (cal_before + calibrate()) / 2

    payload = result_payload(result)
    out["digest"] = result_digest(payload)
    if fault == "corrupt-traced-digest":
        out["digest"] = out["digest"][::-1]
    out["alarm_keys"] = _alarm_keys(payload)
    out["widening_iterations"] = result.widening_iterations
    if fault == "tamper-widening":
        out["widening_iterations"] += 1
    out["counters"] = {
        "phase_times": dict(result.phase_times),
        "stmts_executed": result.stmts_executed,
        "stmts_skipped": result.stmts_skipped,
        "lattice_memo_hits": result.lattice_memo_hits,
        "lattice_memo_misses": result.lattice_memo_misses,
        "octagon_packs": result.octagon_pack_count,
        "octagon_pack_avg_size": result.octagon_pack_avg_size,
        "vector_batches": result.vector_batches,
        "parallel_tasks": result.parallel_tasks,
        "jobs_dispatched": result.dispatch_jobs_dispatched,
        "bytes_shipped": result.dispatch_bytes_shipped,
    }
    out["rss_kib"] = result.fleet_peak_rss_kib

    if job.get("oracle_seed") is not None:
        rep = run_oracle(result.ctx.prog, result, gp.input_ranges,
                         job["oracle_seed"])
        out["oracle"] = {"values_checked": rep.values_checked,
                         "violations": len(rep.violations),
                         "uncovered": rep.uncovered_error_kinds}
    if job.get("reference"):
        ref = analyze(gp.source, "fam.c", config=cfg, jobs=1)
        ref_payload = result_payload(ref)
        out["reference"] = {"alarm_keys": _alarm_keys(ref_payload),
                            "widening_iterations": ref.widening_iterations}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["profile"] = tracer.profile_by_module()
    return out


def main() -> int:
    import repro  # noqa: F401  (the set-up boundary the parent times)

    print("ready", flush=True)
    job = json.loads(sys.argv[1])
    try:
        out = run_job(job)
    except Exception as e:  # reported to the parent as a failed operation
        import traceback

        out = {"error": f"{type(e).__name__}: {e}",
               "traceback": traceback.format_exc()[-2000:]}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
