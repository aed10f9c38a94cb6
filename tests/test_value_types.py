"""The value types: CompSumSpec, PrimePowerModulus, ClaimInstance, GridSpec,
Claim and ClaimReport on the verify path, and the constant hunt's
ResidueObservation and ReconstructionResult.

Each is immutable, equal and hashed by its fields, printed as its fields,
and survives a pickle round trip (the process pool sends instances,
specs and reports between processes)."""

import pickle
from fractions import Fraction

import pytest

from supercong.compsum import CompSumSpec, r_spec, s_spec
from supercong.modring import PrimePowerModulus, prime_power
from supercong.ratrecon import ReconstructionResult, ResidueObservation
from supercong.verifier import CLAIMS, Claim, ClaimInstance, ClaimReport, GridSpec

INSTANCE = ClaimInstance("LEM-3.1", 11, n=3, extra=(("alphas", (1, 1, 2)),))


def _pairs():
    """Two equal but distinct objects of each type, built from the same fields."""
    claim = CLAIMS["EQ-1.1"]
    return [
        (s_spec(7, 2, 11, 2), CompSumSpec(n=7, m=2, p=11, r=2, upper_bound=121)),
        (r_spec(3, 1, 5), CompSumSpec(3, 1, 5, 1, None, 5)),
        (PrimePowerModulus(11, 3), PrimePowerModulus(p=11, r=3)),
        (INSTANCE, ClaimInstance("LEM-3.1", 11, None, None, 3, (("alphas", (1, 1, 2)),))),
        (GridSpec(primes=(5, 7)), GridSpec((5, 7), None, None)),
        (claim, Claim(*claim)),
        (ClaimReport(INSTANCE, "pass", 3, 3, 11, note="n", anchor="a"),
         ClaimReport(INSTANCE, "pass", lhs=3, rhs=3, modulus=11, note="n", anchor="a")),
        (ResidueObservation(11, 3), ResidueObservation(p=11, value=3)),
        (ReconstructionResult("found", Fraction(-1, 2), 143, 8, (ResidueObservation(11, 5),)),
         ReconstructionResult(status="found", candidate=Fraction(-1, 2), combined_modulus=143, bound=8,
                              observations=(ResidueObservation(11, 5),))),
    ]


@pytest.mark.parametrize("a, b", _pairs(), ids=lambda v: type(v).__name__)
def test_equal_fields_give_equal_objects_and_hashes(a, b):
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_a_field_changes_equality():
    assert s_spec(7, 2, 11, 2) != r_spec(7, 2, 11, 2)
    assert PrimePowerModulus(5, 2) != PrimePowerModulus(5, 3)
    assert INSTANCE != INSTANCE._replace(n=4)
    assert GridSpec() != GridSpec(rs=(2,))


def test_a_modulus_is_not_a_plain_pair():
    # moduli and (p, e) pairs meet as dictionary keys
    assert PrimePowerModulus(5, 2) != (5, 2) and (5, 2) != PrimePowerModulus(5, 2)
    assert {(5, 2): 0}.get(PrimePowerModulus(5, 2)) is None


@pytest.mark.parametrize("a, b", _pairs(), ids=lambda v: type(v).__name__)
def test_assigning_a_field_raises(a, b):
    field = "modulus" if isinstance(a, PrimePowerModulus) else type(a)._fields[1]
    with pytest.raises(AttributeError):
        setattr(a, field, 1)
    assert a == b


def test_a_modulus_takes_no_new_attribute():
    with pytest.raises(AttributeError):
        PrimePowerModulus(5, 2).e = 2
    with pytest.raises(AttributeError):
        del PrimePowerModulus(5, 2).p


# a claim holds lambdas, and stays in the process that built the catalog
@pytest.mark.parametrize("a", [a for a, _ in _pairs() if not isinstance(a, Claim)], ids=lambda v: type(v).__name__)
def test_pickle_round_trip(a):
    back = pickle.loads(pickle.dumps(a))
    assert back == a and type(back) is type(a) and hash(back) == hash(a)


def test_a_pickled_modulus_keeps_its_modulus():
    back = pickle.loads(pickle.dumps(prime_power(13, 4)))
    assert back.modulus == 13**4 and back == prime_power(13, 4)


def test_reprs():
    assert repr(s_spec(7, 2, 11, 2)) == (
        "CompSumSpec(n=7, m=2, p=11, r=2, upper_bound=121, target=242)")
    assert repr(PrimePowerModulus(11, 3)) == "PrimePowerModulus(11**3)"
    # the repr a missing extra parameter's KeyError quotes
    assert repr(INSTANCE) == (
        "ClaimInstance(claim_id='LEM-3.1', p=11, r=None, m=None, n=3, extra=(('alphas', (1, 1, 2)),))")
    assert repr(GridSpec(primes=(5, 7))) == "GridSpec(primes=(5, 7), rs=None, ms=None)"
    assert repr(ClaimReport(INSTANCE, "skip", note="requires p > 3")) == (
        f"ClaimReport(instance={INSTANCE!r}, status='skip', lhs=None, rhs=None, modulus=None, "
        "note='requires p > 3', anchor='')")
    assert repr(CLAIMS["EQ-1.1"]).startswith("Claim(claim_id='EQ-1.1', anchor='sum_{i+j+k=p")


def test_params_are_the_given_pairs():
    # p, the set r, m and n, then each extra as given: a repeated name or a field's name stays
    inst = ClaimInstance("LEM-2.1", 11, n=5, m=2, extra=(("a", 1), ("p", 5), ("a", (1, 2))))
    assert inst.params() == (("p", 11), ("m", 2), ("n", 5), ("a", 1), ("p", 5), ("a", (1, 2)))
    assert INSTANCE.params() == (("p", 11), ("n", 3), ("alphas", (1, 1, 2)))


def test_missing_extra_names_the_instance():
    with pytest.raises(KeyError, match=r"instance ClaimInstance\(claim_id='LEM-3.1', p=11, .* 'b'"):
        INSTANCE.get("b")


@pytest.mark.parametrize("fields, message", [
    (dict(n=0, m=1, p=5), "need at least one part"),
    (dict(n=1, m=0, p=5), "multiplier must be >= 1, got 0"),
    (dict(n=1, m=1, p=5, r=0), "exponent must be >= 1, got 0"),
    (dict(n=2, m=1, p=5, upper_bound=7), "the only supported part bound is p**r"),
    (dict(n=2, m=1, p=5, target=0), "target must be >= 1, got 0"),
])
def test_spec_validation_messages(fields, message):
    with pytest.raises(ValueError) as raised:
        CompSumSpec(**fields)
    assert str(raised.value) == message


@pytest.mark.parametrize("p, value", [(11, -1), (11, 11)])
def test_observation_validation_message(p, value):
    with pytest.raises(ValueError) as raised:
        ResidueObservation(p, value)
    assert str(raised.value) == f"observation {value} outside [0, {p})"


@pytest.mark.parametrize("p, r, message", [
    (10, 1, "10 is not prime"),
    (7, 0, "exponent must be >= 1, got 0"),
])
def test_modulus_validation_messages(p, r, message):
    with pytest.raises(ValueError) as raised:
        PrimePowerModulus(p, r)
    assert str(raised.value) == message
