"""Sensitivity of the catalog: break one layer, and see which claims notice.

Each mutation is applied by monkeypatch to the engine in this process (no
source copies), and the default catalog is swept with and without it. A
claim notices a mutation when one of its pass rows no longer passes. A
claim that reads the mutated layer and does not notice is blind to it: its
pass rows show only that the evaluator agrees with itself.
"""

import inspect

import pytest

from supercong import compsum
from supercong.verifier import CLAIMS, sweep


def _statuses():
    return {(rep.instance.claim_id, rep.instance.sort_key()): rep.status for rep in sweep(list(CLAIMS))}


@pytest.fixture(scope="module")
def baseline():
    return _statuses()


def _noticed(baseline, mutated):
    return {claim_id for (claim_id, key), status in baseline.items()
            if status == "pass" and mutated[(claim_id, key)] != "pass"}


# the claims that read composition sums
_COMPOSITION_CLAIMS = {claim_id for claim_id, claim in CLAIMS.items() if inspect.isgeneratorfunction(claim.evaluate)}


def test_every_composition_claim_has_a_pass_row(baseline):
    passing = {claim_id for (claim_id, _), status in baseline.items() if status == "pass"}
    assert len(_COMPOSITION_CLAIMS) == 18 and _COMPOSITION_CLAIMS <= passing


def test_a_wrong_reduction_weight_is_noticed(baseline, monkeypatch):
    weights = compsum._digit_weights

    def first_doubled(*args):
        out = weights(*args)
        first = next(iter(out))
        out[first] *= 2
        return out

    monkeypatch.setattr(compsum, "_digit_weights", first_doubled)
    noticed = _noticed(baseline, _statuses())
    # EQ-1.3, EQ-4.1 and LEM-2.3-ii would hold by algebra alone if both of
    # their sides were reduced: each keeps one side at its full target
    assert {"EQ-1.3", "EQ-4.1", "LEM-2.3-ii", "THM-1.1-ii", "PROP-4.1"} <= noticed
    assert noticed <= _COMPOSITION_CLAIMS


def test_a_wrong_ladder_inverse_at_multiples_of_p(baseline, monkeypatch):
    build = compsum._Ladder.__init__

    def doubled_at_multiples_of_p(self, *args):
        build(self, *args)
        for j in range(self.p, self.N + 1, self.p):
            self.inverses[j] = 2 * self.inverses[j] % self.mod

    monkeypatch.setattr(compsum._Ladder, "__init__", doubled_at_multiples_of_p)
    blind = _COMPOSITION_CLAIMS - _noticed(baseline, _statuses())
    # The first four equate sums that all come from the same ladder, so a
    # consistent ladder error passes them. CONJ-5.1-w10 passes only where both
    # sides vanish mod p (m = 1, and p = 23 at m = 4), which the error leaves
    # at 0; its other rows are findings already. This set may only shrink.
    assert blind == {"EQ-1.3", "EQ-4.1", "LEM-2.3-i", "LEM-2.3-ii", "CONJ-5.1-w10"}
