"""The ``edit-loop`` workload: one ``astree-repro serve`` daemon with
default flags (isolated worker, sampled certification), primed once
with a pinned base family program, then driven by one client in a
closed loop: each request is sent after the previous reply arrived.

Requests are a seeded mix of two kinds:

* **new**: a first sighting of a ``make_variant`` edit of the base
  program, answered by a journal-warmed run in the worker;
* **hit**: a resubmission of an earlier variant, answered from the
  exact-result store.

The base program is pinned, so runs differ only in which constants
are edited and in the order of the mix: warm-run cost depends on the
program far more than on the edit, and a per-seed base would make the
latency figures swing with the program.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (CAL_NOMINAL_S, ROOT, TMP, Tally, calibrate, child_env,
                    log, p50, p90, ratio, vm_hwm_kib)

BASE_KLOC = 0.25
BASE_SEED = 20080808
MIN_PER_KIND = 100     # p90 then has ten samples beyond it
BYPASS_SAMPLE = 5      # warm variants re-run with bypass_cache afterwards
SETUPS = 3             # daemon set-ups per run (setup_s is their median)
CAL_EVERY = 10         # requests between host-speed calibrations
HARD_CAP_S = 140.0     # stop the loop here whatever the quotas
BOOT_TIMEOUT_S = 30.0


def _base(kloc: float):
    from repro.serve.workload import base_program

    gp = base_program(kloc=kloc, seed=BASE_SEED)
    overrides = {"input_ranges": {k: list(v)
                                  for k, v in gp.input_ranges.items()},
                 "max_clock": gp.max_clock}
    return gp, overrides


class Daemon:
    """One daemon process with its own cache directory and socket.  Both
    paths are relative to the checkout (the working directory of the
    benchmark and the daemon), which keeps the socket path short."""

    def __init__(self, workdir: str, tag: str, hash_seed: Optional[int]):
        rel = os.path.relpath(workdir, ROOT)
        self.socket = os.path.join(rel, f"{tag}.sock")
        self.cache = os.path.join(rel, f"{tag}-cache")
        self.log = open(os.path.join(workdir, f"{tag}.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket, "--cache-dir", self.cache],
            cwd=ROOT, env=child_env(hash_seed), stdout=self.log,
            stderr=subprocess.STDOUT)
        self.worker_pid: Optional[int] = None

    def connect(self):
        """Wait until the ``health`` op answers; returns the client."""
        from repro.errors import ServeConnectionError
        from repro.serve.client import ServeClient

        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} "
                                   f"during boot")
            try:
                client = ServeClient(self.socket, timeout=120.0)
                health = client.health()
            except ServeConnectionError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon never answered health")
                time.sleep(0.01)
                continue
            self.worker_pid = health["health"]["worker"]["pid"]
            return client

    def peak_rss_kib(self) -> int:
        rss = vm_hwm_kib(self.proc.pid)
        if self.worker_pid:
            rss += vm_hwm_kib(self.worker_pid)
        return rss

    def stop(self, client=None) -> None:
        """Ask the daemon to shut down, then make sure it and its worker
        have ended."""
        try:
            if client is not None:
                client.shutdown()
                client.close()
        except Exception:  # noqa: BLE001 — fall through to signals
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.worker_pid:
            deadline = time.perf_counter() + 10
            while os.path.exists(f"/proc/{self.worker_pid}"):
                if time.perf_counter() > deadline:
                    try:
                        os.kill(self.worker_pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    break
                time.sleep(0.02)
        self.log.close()


def _setup(workdir: str, tag: str, hash_seed, gp, overrides, tally: Tally
           ) -> Tuple[float, Daemon, object]:
    """Spawn a daemon, wait for health, send the priming request."""
    t0 = time.perf_counter()
    daemon = Daemon(workdir, tag, hash_seed)
    client = None
    try:
        client = daemon.connect()
        reply = client.submit([("fam.c", gp.source)], config=overrides)
    except BaseException:
        daemon.stop(client)
        raise
    setup_s = time.perf_counter() - t0
    tally.check(bool(reply.get("ok")) and not reply.get("cached"),
                f"priming request failed: {reply.get('error')}")
    return setup_s, daemon, client


def _new_variant(rng: random.Random, source: str, seen: set
                 ) -> Optional[str]:
    """A variant not submitted yet; None once the edits run out."""
    from repro.serve.workload import make_variant

    for _ in range(1000):
        text = make_variant(source, rng.randrange(1, 2 ** 31))
        if text not in seen:
            return text
    return None


def run(seed: int, seconds: float, trace: bool, fault: Optional[str],
        hash_seed: Optional[int], tally: Tally,
        per_kind: int = MIN_PER_KIND, base_kloc: float = BASE_KLOC
        ) -> Tuple[Dict[str, float], Dict]:
    gp, overrides = _base(base_kloc)
    lines = gp.loc
    workdir = os.path.join(TMP, f"edit-loop-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    daemon = client = None
    try:
        setups = []
        for k in range(SETUPS):
            if daemon is not None:
                daemon.stop(client)
                daemon = client = None
            setup_s, daemon, client = _setup(
                workdir, f"d{k}", hash_seed, gp, overrides, tally)
            setups.append(setup_s)
        rows, spans, span_cost, cals = _loop(
            client, gp.source, overrides, seed, seconds, trace, per_kind,
            tally)
        firsts = [r for r in rows if r["kind"] == "new"]
        hits = [r for r in rows if r["kind"] == "hit"]
        if fault == "corrupt-hit-digest" and hits:
            first = hits[0]["first"]
            first["digest"] = first["digest"][::-1]
        _check_hits(rows, tally)
        _check_bypass(client, firsts, overrides, seed, fault, tally)
        stats = client.stats()["stats"]
        rss_kib = daemon.peak_rss_kib()
    finally:
        if daemon is not None:
            daemon.stop(client)
        shutil.rmtree(workdir, ignore_errors=True)

    warm = [r["rtt_s"] for r in firsts]
    hit_rtts = [r["rtt_s"] for r in hits]
    # Times and rates are scaled by the run's host speed (see
    # common.calibrate).
    scale = p50(cals) / CAL_NOMINAL_S
    kloc = lines / 1000.0 * scale
    info = {
        "requests": len(rows), "new": len(firsts), "hits": len(hits),
        "base_lines": lines,
        "alarms": sum(r["alarm_count"] for r in rows),
        "warm_ms_p50": 1000 * p50(warm), "warm_ms_p90": 1000 * p90(warm),
        "hit_ms_p50": 1000 * p50(hit_rtts),
        "certified_runs": stats["certify"]["certified"],
        "measured_setup_s": p50(setups),
        "measured_analyze_kloc_per_s": ratio(lines / 1000.0, p50(warm)),
        "calibration_s": p50(cals),
        "spans": spans,
    }
    metrics = {
        "setup_s": p50(setups) / scale,
        # The base program's kLOC over the median first-sighting round
        # trip.
        "analyze_kloc_per_s": ratio(kloc, p50(warm)),
        "peak_rss_mib": rss_kib / 1024,
        "proved_ratio": ratio(sum(1 for r in rows if r["ok"]
                                  and r["alarm_count"] == 0), len(rows)),
    }
    if trace:
        metrics = _layer_metrics(rows, stats, info, span_cost)
    return metrics, info


def _loop(client, source: str, overrides: Dict, seed: int, seconds: float,
          trace: bool, per_kind: int, tally: Tally):
    """The closed loop.  Untraced: at least ``per_kind`` requests of each
    kind, and on until ``seconds`` have passed.  Traced: exactly
    ``per_kind`` of each, so counts compare across commits."""
    rng = random.Random(seed)
    seen = {source}
    rows: List[Dict] = []
    spans: List[Dict] = []
    span_cost = 0.0
    counts = {"new": 0, "hit": 0}
    cals = [calibrate()]
    start = time.perf_counter()
    while True:
        if rows and len(rows) % CAL_EVERY == 0:
            cals.append(calibrate())
        elapsed = time.perf_counter() - start
        short = [k for k in ("new", "hit") if counts[k] < per_kind]
        if not short and (trace or elapsed >= seconds):
            break
        if elapsed > HARD_CAP_S:
            tally.check(False, f"edit-loop: quotas not met within "
                               f"{HARD_CAP_S:.0f}s ({counts})")
            break
        firsts = [r for r in rows if r["kind"] == "new"]
        if not firsts:
            kind = "new"
        elif len(short) == 1:
            kind = short[0]
        else:
            kind = "hit" if rng.random() < 0.5 else "new"
        text = _new_variant(rng, source, seen) if kind == "new" else None
        if text is not None:
            seen.add(text)
            first = None
        else:
            kind = "hit"
            first = rng.choice(firsts)
            text = first["text"]
        t0 = time.perf_counter()
        reply = client.submit([("fam.c", text)], config=overrides)
        rtt = time.perf_counter() - t0
        counts[kind] += 1
        row = {"kind": kind, "rtt_s": rtt, "ok": bool(reply.get("ok")),
               "cached": reply.get("cached"), "digest": reply.get("digest"),
               "first": first, "text": text}
        tally.check(row["ok"], f"edit-loop request failed: "
                               f"{reply.get('error')}")
        payload = reply.get("result") or {}
        row.update(
            server_s=reply.get("wall_s", 0.0),
            alarm_count=payload.get("alarm_count", 0),
            payload=payload,
            response_bytes=len(json.dumps(
                reply, separators=(",", ":")).encode()) + 1)
        if trace:
            s0 = time.perf_counter()
            spans.append({"id": len(rows), "parent": None,
                          "name": f"serve.{kind}", "trace": f"req/{len(rows)}",
                          "start": t0 - start, "end": t0 - start + rtt,
                          "server_s": row["server_s"]})
            span_cost += time.perf_counter() - s0
        rows.append(row)
    log(f"  edit-loop: {counts['new']} new, {counts['hit']} hits in "
        f"{time.perf_counter() - start:.1f}s")
    cals.append(calibrate())
    return rows, spans, span_cost, cals


def _check_hits(rows: List[Dict], tally: Tally) -> None:
    for r in rows:
        if r["kind"] == "hit" and r["ok"]:
            tally.check(r["digest"] == r["first"]["digest"],
                        "edit-loop: a resubmission's digest differs from "
                        "its first sighting's")


def _check_bypass(client, firsts: List[Dict], overrides: Dict, seed: int,
                  fault: Optional[str], tally: Tally) -> None:
    """Re-run a seeded sample of warm variants from scratch
    (``bypass_cache``): the digests must match the warm answers."""
    rng = random.Random(seed ^ 0x5EED)
    sample = rng.sample(firsts, min(BYPASS_SAMPLE, len(firsts)))
    for n, r in enumerate(sample):
        expect = r["digest"]
        if fault == "corrupt-bypass-digest" and n == 0:
            expect = expect[::-1]
        ref = client.submit([("fam.c", r["text"])], config=overrides,
                            bypass_cache=True)
        tally.check(bool(ref.get("ok")) and ref.get("digest") == expect,
                    "edit-loop: a bypass_cache re-run's digest differs "
                    "from the warm answer")


def _layer_metrics(rows: List[Dict], stats: Dict, info: Dict,
                   span_cost: float) -> Dict[str, float]:
    """Per-layer metrics of edit-loop.  The analysis runs in the
    supervised worker, so these come from the request payloads and the
    daemon's ``stats``; in-worker profiles are not available."""
    firsts = [r for r in rows if r["kind"] == "new"]
    pay = [r["payload"] for r in firsts]

    def total(key):
        return sum(p.get(key, 0) for p in pay)

    def phase(key):
        return sum(p.get("phase_times_s", {}).get(key, 0.0) for p in pay)

    executed, skipped = total("stmts_executed"), total("stmts_skipped")
    m = {
        "frontend.parse_s": phase("parse"),
        "packing.octagon_packs": total("octagon_packs"),
        "iterator.iteration_s": phase("iteration"),
        "iterator.lattice_s": phase("iteration-lattice"),
        "iterator.checking_s": phase("checking"),
        "iterator.stmts_executed": executed,
        "iterator.stmts_skipped": skipped,
        "iterator.skip_ratio": ratio(skipped, executed + skipped),
        "iterator.widening_iterations": total("widening_iterations"),
        "serve.warm_ms_p50": info["warm_ms_p50"],
        "serve.warm_ms_p90": info["warm_ms_p90"],
        "serve.hit_ms_p50": info["hit_ms_p50"],
        "serve.queue_wait_ms_p50": 1000 * p50(
            [r["rtt_s"] - r["server_s"] for r in rows]),
        "serve.worker_run_ms_p50": 1000 * p50([r["server_s"]
                                               for r in firsts]),
        "serve.exact_hit_ratio": ratio(
            sum(1 for r in rows if r["cached"]), len(rows)),
        "serve.cross_run_hits": total("cross_run_hits"),
        "serve.cross_run_spliced": total("cross_run_spliced"),
        "serve.warm_stmts_executed": executed,
        "serve.warm_skip_ratio": ratio(skipped, executed + skipped),
        "serve.certified_runs": stats["certify"]["certified"],
        "serve.certify_rejections": stats["certify"]["rejections"],
        "serve.frontend_cache_hits": stats["frontend_cache"].get("hits", 0),
        "serve.journal_entries": stats["journal_store"].get("disk_entries", 0),
        "serve.response_bytes": sum(r["response_bytes"] for r in rows),
        "trace.overhead_s": span_cost,
        "trace.spans": len(info["spans"]),
    }
    return m
