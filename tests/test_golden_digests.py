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

A deliberate change of precision must update the values below, and say
why in its change log.
"""

import pytest

from repro import analyze
from repro.numeric import float_utils
from repro.serve.fingerprints import result_digest, result_payload
from repro.synth import FamilySpec, generate_program

GOLDEN = {
    # seed: (lines, default digest, invariant-recording digest)
    2003: (198,
           "81cd312999f4d0daeb38837733fa2bf6e9da87b1a1d110850be7c3c7e18d8fcb",
           "96292f461cea53032b2796fb624f31626565cc19984a1f80a1a5fa8909f8727c"),
    2004: (186,
           "1e8e7584b308679576624605555bf821b8ca38ece29fc762ae1d363318089f03",
           "97874d1f6b5c24ca0d0988706d1a74176bf73619fe676b57bfc69bcbbf3111cf"),
    2005: (192,
           "1e8e7584b308679576624605555bf821b8ca38ece29fc762ae1d363318089f03",
           "51d5e852b96c310ef963ed60302d1a5ea3776bca9e253bee4f60d61f8ded6f25"),
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
