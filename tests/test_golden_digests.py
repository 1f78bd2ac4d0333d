"""Golden result digests of three small pinned family programs.

Every other determinism test compares engine paths with one another, so
a rewrite of a shared hot path (directed rounding, the octagon closure,
the persistent maps) that moves one bound by one ulp would pass them
all.  These digests were recorded from the analyzer before such a
rewrite and pin its results absolutely.

Two digests per program:

* ``default``: the default config (the family's input ranges and clock
  bound only).  It covers alarms, exit code, widening iterations and
  the invariant statistics.
* ``invariants``: the same analysis with loop-invariant recording on.
  Recording does not change the semantics, but it adds the invariant
  dump, which prints every interval and octagon bound with ``repr`` —
  so an ulp drift anywhere in a loop head changes this digest.

The digests hold for directed rounding without a fused multiply-add
(``math.fma`` exists from Python 3.13 on, and proves more products
exact, which tightens bounds), so the test turns it off.

A deliberate change of precision must update the values below, bump
``repro.config.SEMANTICS_VERSION`` (so no cache or checkpoint of the old
semantics is reused), and say why in its change log.

The ``VERDICTS`` pins are the other half of that rule: they must *not*
change with a precision change.  They hash what a user of the analyzer
acts on — alarms, exit code, widening iterations and the cell intervals
at every loop head — on the same three programs, once with the
family's full input ranges and once with only half of them (which
raises alarms).  Octagon bounds are deliberately left out.
"""

import hashlib
import json

import pytest

from repro import analyze
from repro.config import AnalyzerConfig
from repro.numeric import float_utils
from repro.serve.fingerprints import result_digest, result_payload
from repro.synth import FamilySpec, generate_program

GOLDEN = {
    # seed: (lines, default digest, invariant-recording digest)
    2003: (198,
           "81cd312999f4d0daeb38837733fa2bf6e9da87b1a1d110850be7c3c7e18d8fcb",
           "4df3c9f15e310ffc366f5db513978a0ac8494b11c9af29514645b5119e854e9d"),
    2004: (186,
           "1e8e7584b308679576624605555bf821b8ca38ece29fc762ae1d363318089f03",
           "baf035a4ef4626e7d3ad141abae3277643a2a529a6f35eae8a749d3e16dc7236"),
    2005: (192,
           "1e8e7584b308679576624605555bf821b8ca38ece29fc762ae1d363318089f03",
           "7e44a274bd8d112abab33e05f11ea9b7b5666331b594d988a4d014e3be9a3131"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_digest(seed, monkeypatch):
    monkeypatch.setattr(float_utils, "_fma", None)
    lines, default_digest, invariants_digest = GOLDEN[seed]
    gp = generate_program(FamilySpec(target_kloc=0.25, seed=seed))
    assert gp.loc == lines, "the generator changed; the pin no longer applies"
    plain = analyze(gp.source, "fam.c", config=gp.analyzer_config())
    assert result_digest(result_payload(plain)) == default_digest
    recorded = analyze(gp.source, "fam.c",
                       config=gp.analyzer_config(collect_invariants=True))
    payload = result_payload(recorded)
    assert payload["alarms"] == [] and payload["exit_code"] == 0
    assert result_digest(payload) == invariants_digest


VERDICTS = {
    # seed: (full input ranges, half of the input ranges)
    2003: ("29fa0f9737a3ee666d731f921fb5c5fdc4e46c8917f07db8ad9c00aa21fe9802",
           "be28d2e89d9d07870af62562c34965279b50b026232c1f1ccf74eb51ae862fcc"),
    2004: ("8860d2cd1275090f68ee0fba7824705bf3b296b72f31be4e43d308f697506aa1",
           "2df95252e3ffd514c1357deaa1bcfcc2a5f8130acbf4e90b379725c669636cfe"),
    2005: ("e2af828b7a965b0d5ed5a5567791476afc8bd5004ebae9cbf168434bd6569e1b",
           "aaccc395b82936873a330b3405d2fd2397914fa1d056710b6e6c45ee6fe762dd"),
}


def _verdict_pin(result) -> str:
    payload = result_payload(result)
    loop_heads = []
    for sid in sorted(result.loop_invariants):
        state = result.loop_invariants[sid]
        loop_heads.append("bottom" if state.is_bottom else [
            f"{result.ctx.table.cell(cid).name} in {v.itv!r}"
            for cid, v in state.env.cells.items()])
    pin = {"alarms": payload["alarms"], "exit_code": payload["exit_code"],
           "widening_iterations": payload["widening_iterations"],
           "loop_heads": loop_heads}
    return hashlib.sha256(json.dumps(
        pin, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(VERDICTS))
def test_verdicts_unchanged(seed, monkeypatch):
    monkeypatch.setattr(float_utils, "_fma", None)
    full_pin, half_pin = VERDICTS[seed]
    gp = generate_program(FamilySpec(target_kloc=0.25, seed=seed))
    full = analyze(gp.source, "fam.c",
                   config=gp.analyzer_config(collect_invariants=True))
    assert full.exit_code == 0
    assert _verdict_pin(full) == full_pin
    names = sorted(gp.input_ranges)
    half = AnalyzerConfig(
        input_ranges={k: gp.input_ranges[k] for k in names[:len(names) // 2]},
        max_clock=gp.max_clock, collect_invariants=True)
    result = analyze(gp.source, "fam.c", config=half)
    assert result.exit_code == 1 and result.alarms
    assert _verdict_pin(result) == half_pin
