"""The ``cold-family`` workload.

The programs are pinned members of the generated family: five per
size, generated afresh by every run.  The seed orders them and seeds
the oracle's input streams.  Members differ in cost per line by tens of
percent, so a run over a seed-chosen subset would move with the subset.

Every program runs in its own fresh interpreter (``child.py``), so no
intern pool, memo or warm import carries from one program to the next.
Untraced runs keep starting programs until ``--seconds`` have passed.
Traced runs verify a fixed set, so their counts compare across commits:
one program per size at ``jobs=1``, plus the largest one at ``jobs=2``
for the parallel layer.  Each program of the set runs once untraced
and once traced, in separate interpreters.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (CAL_NOMINAL_S, CHILD, ROOT, Tally, child_env, log, p50,
                    ratio)
from tracer import span_totals

#: Fig. 2 slice: family sizes (target kLOC) spanning 4x.
SIZES = (0.25, 0.5, 1.0)
MEMBERS_PER_SIZE = 5
FAMILY_SEED = 2003
CHILD_TIMEOUT_S = 150.0


def program_order(seed: int, sizes=SIZES) -> List[Tuple[float, int]]:
    """The run's programs as (target kLOC, generator seed), in the
    seed's order; a run cycles through them."""
    pool = [(kloc, FAMILY_SEED + k) for kloc in sizes
            for k in range(MEMBERS_PER_SIZE)]
    random.Random(seed).shuffle(pool)
    return pool


def spawn_child(job: Dict, hash_seed: Optional[int]) -> Tuple[float, Dict]:
    """Run one job in a fresh interpreter.  Returns (set-up seconds from
    spawn until ``import repro`` returned, the child's result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(job)], cwd=ROOT,
        env=child_env(hash_seed), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or not lines:
        return setup_s, {"error": f"child exited {proc.returncode}: "
                                  f"{err.strip()[-500:]}"}
    try:
        return setup_s, json.loads(lines[-1])
    except json.JSONDecodeError:
        return setup_s, {"error": f"garbled child output: {lines[-1][:200]}"}


def _job(seed: int, index: int, order, **kw) -> Dict:
    kloc, generator_seed = order[index % len(order)]
    job = {"kloc": kloc, "family_seed": generator_seed, "jobs": 1,
           "certify": True,
           "oracle_seed": (seed * 1_000_003 + index) % (2 ** 31),
           "reference": False, "trace": False,
           "trace_id": f"program/{index}", "fault": None}
    job.update(kw)
    return job


def _check_program(tally: Tally, job: Dict, out: Dict) -> bool:
    name = f"{job['trace_id']} (jobs={job['jobs']})"
    if not tally.check("error" not in out,
                       f"{name}: {out.get('error')}"):
        return False
    if job["certify"]:
        tally.check("certify_error" not in out,
                    f"{name}: result does not certify: "
                    f"{out.get('certify_error')}")
    if job["oracle_seed"] is not None:
        o = out["oracle"]
        tally.check(o["values_checked"] > 0 and o["violations"] == 0
                    and not o["uncovered"],
                    f"{name}: oracle: {o['violations']} containment "
                    f"violation(s) over {o['values_checked']} values, "
                    f"uncovered error kinds {o['uncovered']}")
    if job["reference"]:
        ref = out["reference"]
        tally.check(ref["alarm_keys"] == out["alarm_keys"]
                    and ref["widening_iterations"]
                    == out["widening_iterations"],
                    f"{name}: verdict differs from jobs=1 (widening "
                    f"{out['widening_iterations']} vs "
                    f"{ref['widening_iterations']})")
    return True


def run_untraced(seed: int, seconds: float, fault: Optional[str],
                 hash_seed: Optional[int], tally: Tally, sizes=SIZES,
                 max_programs: Optional[int] = None
                 ) -> Tuple[Dict[str, float], Dict]:
    """End-to-end metrics of one untraced run."""
    setups: List[float] = []
    done: List[Dict] = []
    start = time.perf_counter()
    order = program_order(seed, sizes)
    n = 0
    while True:
        job = _job(seed, n, order, fault=fault)
        setup_s, out = spawn_child(job, hash_seed)
        setups.append(setup_s)
        if _check_program(tally, job, out):
            out["kloc"] = job["kloc"]
            done.append(out)
            log(f"  {job['trace_id']}: {out['lines']} lines, analyze "
                f"{out['analyze_s']:.2f}s, certify {out['certify_s']:.2f}s")
        n += 1
        if max_programs is not None:
            if n >= max_programs:
                break
        elif n >= len(order) and time.perf_counter() - start >= seconds:
            break
    # Medians over programs, which ignore programs that ran through a
    # slow spell of the host; times and rates are scaled by the run's
    # host speed (see common.calibrate).
    analyze = p50([o["lines"] / 1000 / o["analyze_s"] for o in done])
    certify = p50([o["lines"] / 1000 / o["certify_s"] for o in done])
    cal = p50([o["cal_s"] for o in done])
    scale = cal / CAL_NOMINAL_S if cal else 1.0
    top = max((o["kloc"] for o in done), default=None)
    largest = [o["rss_kib"] for o in done if o["kloc"] == top]
    metrics = {
        "setup_s": p50(setups) / scale,
        "analyze_kloc_per_s": analyze * scale,
        "peak_rss_mib": p50(largest) / 1024,
        "proved_ratio": ratio(sum(1 for o in done if not o["alarm_keys"]),
                              n),
    }
    info = {
        "programs": n, "alarms": sum(len(o["alarm_keys"]) for o in done),
        "measured_setup_s": p50(setups),
        "measured_analyze_kloc_per_s": analyze,
        "measured_certify_kloc_per_s": certify,
        "calibration_s": cal,
        "per_program": [[o["lines"], round(o["analyze_s"], 4),
                         round(o["certify_s"], 4)] for o in done],
    }
    return metrics, info


def _traced_pair(tally: Tally, plain_job: Dict, traced_job: Dict,
                 hash_seed: Optional[int]) -> Optional[Tuple[Dict, Dict]]:
    """One program untraced, then traced, in two fresh interpreters;
    checks both and that they agree.  Returns (untraced, traced)
    results, or None when a run failed."""
    _, plain = spawn_child(plain_job, hash_seed)
    _, out = spawn_child(traced_job, hash_seed)
    if not (_check_program(tally, plain_job, plain)
            and _check_program(tally, traced_job, out)):
        return None
    tally.check(plain["digest"] == out["digest"]
                and plain["alarm_keys"] == out["alarm_keys"],
                f"{traced_job['trace_id']}: traced run's alarms or digest "
                f"differ from the untraced run's")
    log(f"  {traced_job['trace_id']} jobs={traced_job['jobs']}: analyze "
        f"{plain['analyze_s']:.2f}s untraced, {out['analyze_s']:.2f}s traced")
    return plain, out


def run_traced(seed: int, fault: Optional[str], hash_seed: Optional[int],
               tally: Tally, sizes=SIZES) -> Tuple[Dict[str, float], Dict]:
    """Per-layer metrics over the fixed traced set."""
    # The traced child alone gets the digest fault: the check compares
    # it with its untraced twin.
    plain_fault = None if fault == "corrupt-traced-digest" else fault
    order = program_order(seed, sizes)
    # The first program of each size, in the seed's order.
    first = {}
    for index, (kloc, _) in enumerate(order):
        first.setdefault(kloc, index)
    seq: List[Dict] = []
    overhead_s = 0.0
    for kloc in sizes:
        index = first[kloc]
        pair = _traced_pair(
            tally, _job(seed, index, order, certify=False, fault=plain_fault),
            _job(seed, index, order, trace=True, oracle_seed=None,
                 fault=fault), hash_seed)
        if pair is not None:
            overhead_s += pair[1]["analyze_s"] - pair[0]["analyze_s"]
            seq.append(pair[1])
    # The parallel layer: the largest program at jobs=2 with the default
    # pool dispatch, checked against a jobs=1 run of the same program.
    largest = first[max(sizes)]
    par = _traced_pair(
        tally, _job(seed, largest, order, jobs=2, certify=False,
                    oracle_seed=None, reference=True, fault=plain_fault),
        _job(seed, largest, order, jobs=2, trace=True, certify=False,
             oracle_seed=None, fault=fault), hash_seed)
    spans = [s for o in seq for s in o["spans"]]
    if par is not None:
        spans += par[1]["spans"]
    metrics = layer_metrics(seq, overhead_s)
    metrics.update(parallel_metrics(par))
    return metrics, {"spans": spans}


def layer_metrics(outs: List[Dict], overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics summed over the traced jobs=1 programs."""
    def total(key):
        return sum(o["counters"][key] for o in outs)

    def phase(key):
        return sum(o["counters"]["phase_times"].get(key, 0.0) for o in outs)

    in_analyze: Dict[str, float] = {}
    prof: Dict[str, Dict[str, float]] = {}
    for o in outs:
        for name, secs in span_totals(o["spans"], under="analyze").items():
            in_analyze[name] = in_analyze.get(name, 0.0) + secs
        for mod, agg in o["profile"].items():
            acc = prof.setdefault(mod, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += agg["self_s"]
            acc["calls"] += agg["calls"]

    def span_s(name):
        return in_analyze.get(name, 0.0)

    def self_s(mod):
        return prof.get(mod, {}).get("self_s", 0.0)

    def calls(mod):
        return prof.get(mod, {}).get("calls", 0)

    executed, skipped = total("stmts_executed"), total("stmts_skipped")
    packs = total("octagon_packs")
    memo = total("lattice_memo_hits") + total("lattice_memo_misses")
    return {
        "frontend.preprocess_s": span_s("frontend.preprocess"),
        "frontend.parse_s": span_s("frontend.parse"),
        "frontend.lower_s": span_s("frontend.lower"),
        "frontend.parser_calls": calls("frontend.parser"),
        "memory.cells_s": span_s("memory.cells"),
        "memory.fmap_calls": calls("memory.fmap"),
        "memory.fmap_self_s": self_s("memory.fmap"),
        "memory.environment_self_s": self_s("memory.environment"),
        "memory.interning_self_s": self_s("memory.interning"),
        "packing.octagon_s": span_s("packing.octagon"),
        "packing.bool_s": span_s("packing.bool"),
        "packing.filter_sites_s": span_s("packing.filter_sites"),
        "packing.octagon_packs": packs,
        "packing.octagon_pack_avg_size": ratio(
            sum(o["counters"]["octagon_pack_avg_size"]
                * o["counters"]["octagon_packs"] for o in outs), packs),
        "iterator.run_s": span_s("iterator.run"),
        "iterator.iteration_s": phase("iteration"),
        "iterator.lattice_s": phase("iteration-lattice"),
        "iterator.checking_s": phase("checking"),
        "iterator.stmts_executed": executed,
        "iterator.stmts_skipped": skipped,
        "iterator.skip_ratio": ratio(skipped, executed + skipped),
        "iterator.widening_iterations": sum(o["widening_iterations"]
                                            for o in outs),
        "iterator.lattice_memo_hit_ratio": ratio(total("lattice_memo_hits"),
                                                 memo),
        "iterator.transfer_self_s": self_s("iterator.transfer"),
        "iterator.guards_self_s": self_s("iterator.guards"),
        "iterator.state_self_s": self_s("iterator.state"),
        "iterator.incremental_self_s": self_s("iterator.incremental"),
        "domains.octagon_self_s": self_s("domains.octagon"),
        "domains.octagon_calls": calls("domains.octagon"),
        "domains.ellipsoid_self_s": self_s("domains.ellipsoid"),
        "domains.decision_tree_self_s": self_s("domains.decision_tree"),
        "domains.values_self_s": self_s("domains.values"),
        "numeric.float_utils_self_s": self_s("numeric.float_utils"),
        "numeric.float_utils_calls": calls("numeric.float_utils"),
        "numeric.intervals_self_s": self_s("numeric.intervals"),
        "numeric.linear_forms_self_s": self_s("numeric.linear_forms"),
        "numeric.interval_kernels_self_s": self_s("numeric.interval_kernels"),
        "numeric.vector_batches": total("vector_batches"),
        "certify.check_s": sum(o["certify_s"] for o in outs),
        "certify.stmt_records": sum(o["certify"]["stmt_records"]
                                    for o in outs),
        "certify.loop_records": sum(o["certify"]["loop_records"]
                                    for o in outs),
        "certify.substitutions": sum(o["certify"]["substitutions"]
                                     for o in outs),
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(len(o["spans"]) for o in outs),
    }


def parallel_metrics(pair: Optional[Tuple[Dict, Dict]]) -> Dict[str, float]:
    """The parallel layer, from the jobs=2 program (untraced, traced)."""
    if pair is None:
        return {}
    plain, out = pair
    c = out["counters"]
    return {
        "parallel.analyze_s": plain["analyze_s"],
        "parallel.stmts_executed": c["stmts_executed"],
        "parallel.stmts_skipped": c["stmts_skipped"],
        "parallel.tasks": c["parallel_tasks"],
        "parallel.jobs_dispatched": c["jobs_dispatched"],
        "parallel.bytes_shipped": c["bytes_shipped"],
        "parallel.serialize_s": c["phase_times"].get("dispatch-serialize",
                                                     0.0),
        "parallel.deserialize_s": c["phase_times"].get(
            "dispatch-deserialize", 0.0),
        "parallel.footprints_self_s": out["profile"].get(
            "parallel.footprints", {}).get("self_s", 0.0),
    }
