"""Sensitivity of the catalog: break one layer, and see which claims notice.

Each mutation is applied by monkeypatch to the engine in this process (no
source files are copied; a mutation of one expression inside a function
recompiles that function from its own source, see _mutant), and the
default catalog is swept with and without it. A
claim notices a mutation when one of its pass rows no longer passes. A
claim is blind to it when it reads the mutated layer (a composition sum
that changed value, or a Bernoulli residue taken off the orbit walk) and
does not notice: its pass rows show only that the layer agrees with
itself.
"""

import __future__
import inspect
import sys

import pytest

from supercong import bernoulli, compsum, verifier
from supercong.verifier import CLAIMS, EvalContext, GridSpec, sweep

mhs_module = sys.modules["supercong.mhs"]  # the package's `mhs` attribute is the function


def _sweep():
    """Each row's status, and the value of each composition sum by cache key."""
    ctx = EvalContext()
    reports = sweep(list(CLAIMS), ctx=ctx)
    return {(rep.instance.claim_id, rep.instance.sort_key()): rep.status for rep in reports}, ctx.new_rows


@pytest.fixture(scope="module")
def baseline():
    return _sweep()


# the claims that read composition sums: all but the solution counts and the harmonic sums
_COMPOSITION_CLAIMS = set(CLAIMS) - {"LEM-2.1", "COR-2.2", "LEM-3.1", "COR-3.2", "LEM-3.4"}


@pytest.fixture(scope="module")
def reads():
    """Each claim's composition-sum cache keys over its default grid, for the claims that read any."""
    out: dict[str, set] = {}
    for claim_id, claim in CLAIMS.items():
        for instance in claim.grid(GridSpec()):
            _, run, terms = verifier._prepare(instance, {}, {})
            if inspect.isgenerator(run):
                run.close()
                keys = {key for term in terms if (key := EvalContext.cache_key(*term))[0] == "comp_sum"}
                if keys:
                    out.setdefault(claim_id, set()).update(keys)
    return out


def _noticed(baseline, mutated):
    statuses, _ = mutated
    return {claim_id for (claim_id, key), status in baseline[0].items()
            if status == "pass" and statuses[(claim_id, key)] != "pass"}


def _blind(baseline, mutated, reads):
    """The claims that read a changed value and do not notice."""
    values, changed_values = baseline[1], mutated[1]
    changed = {key for key, value in values.items() if changed_values[key] != value}
    assert changed and changed_values.keys() == values.keys()
    return {claim_id for claim_id, keys in reads.items() if keys & changed} - _noticed(baseline, mutated)


# These three equate sums that all come from the same ladder, so a
# consistent ladder error can pass them. This set may only shrink. Today the
# inverse and split-read mutations leave EQ-1.3, EQ-4.1 and LEM-2.3-ii blind.
# LEM-2.3-i left this set when its r = 1 rows came to compare the e = 1
# route with the ladder, and CONJ-5.1-w10 when its sums, all e = 1, left the
# ladder for the unit pass.
_BLIND_AT_MOST = {"EQ-1.3", "EQ-4.1", "LEM-2.3-ii"}


def _exponent(key) -> int:
    """The e of a composition sum's cache key."""
    return int(dict(field.split("=") for field in key[3].split(";"))["e"])


def test_every_composition_claim_has_a_pass_row(baseline, reads):
    passing = {claim_id for (claim_id, _), status in baseline[0].items() if status == "pass"}
    assert len(_COMPOSITION_CLAIMS) == 18 and _COMPOSITION_CLAIMS <= passing
    assert reads.keys() == _COMPOSITION_CLAIMS


def test_a_wrong_reduction_weight_is_noticed(baseline, monkeypatch):
    weights = compsum._digit_weights

    def first_doubled(*args):
        out = weights(*args)
        first = next(iter(out))
        out[first] *= 2
        return out

    monkeypatch.setattr(compsum, "_digit_weights", first_doubled)
    noticed = _noticed(baseline, _sweep())
    # EQ-1.3, EQ-4.1 and LEM-2.3-ii would hold by algebra alone if both of
    # their sides were reduced: each reads one side one digit deeper, on a
    # bounded ladder of its own
    assert {"EQ-1.3", "EQ-4.1", "LEM-2.3-ii", "THM-1.1-ii", "PROP-4.1"} <= noticed
    assert noticed <= _COMPOSITION_CLAIMS


def _mutant(module, name: str, old: str, new: str):
    """module.name recompiled from its own source with the one occurrence of
    old replaced by new, its globals a copy of the module's."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    code = compile(source.replace(old, new), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(vars(module))
    exec(code, namespace)
    return namespace[name]


# The reduction's binomials and the bounded family's shifted copies: today
# every claim that reads a changed value notices. Each set may only shrink.
_DIGIT_WEIGHT_BLIND_AT_MOST: set[str] = set()
_SHIFT_BLIND_AT_MOST: set[str] = set()


def test_an_off_by_one_digit_weight_binomial(baseline, reads, monkeypatch):
    # _digit_weights steps C(n*e - 1 + j, n*e - 1) to j + 1 by the exact ratio
    # (n*e + j)/(j + 1); here the numerator is one too large
    step, off_by_one = "binomial * (d + j) // (j + 1)", "binomial * (d + j + 1) // (j + 1)"
    monkeypatch.setattr(compsum, "_digit_weights", _mutant(compsum, "_digit_weights", step, off_by_one))
    mutated = _sweep()
    assert {"EQ-1.3", "EQ-4.1", "LEM-2.3-ii", "THM-1.1-ii", "PROP-4.1"} <= _noticed(baseline, mutated)
    assert _blind(baseline, mutated, reads) <= _DIGIT_WEIGHT_BLIND_AT_MOST


@pytest.mark.parametrize("old,new", [
    ("(-1) ** k * comb(n, k)", "comb(n, k)"),  # every shifted copy added
    ("N - k * p**spec.r", "N - k * p**(spec.r + 1)"),  # shifted by p**(R+1)
], ids=["sign", "shift"])
def test_a_wrong_bounded_shift(baseline, reads, monkeypatch, old, new):
    # _reading reads the bounded family through f_b == (1 - x**p**R) * f, that is
    # f_b**n == sum_k (-1)**k C(n, k) x**(k*p**R) f**n
    monkeypatch.setattr(compsum, "_reading", _mutant(compsum, "_reading", old, new))
    mutated = _sweep()
    # EQ-4.1 reads its bounded sums on their own ladders, with no shift
    assert {"EQ-5.1", "LEM-2.3-i", "LEM-2.3-ii", "COR-3.8"} <= _noticed(baseline, mutated)
    assert _blind(baseline, mutated, reads) <= _SHIFT_BLIND_AT_MOST


def test_a_wrong_ladder_inverse_at_multiples_of_p(baseline, reads, monkeypatch):
    # every e = 1 sum is read off the unit pass, so this mutation reaches only
    # the ladders, e >= 2, one side of LEM-2.3-i at r = 1 among them
    build = compsum._Ladder.__init__

    def doubled_at_multiples_of_p(self, *args):
        build(self, *args)
        for j in range(self.p, len(self.inverses), self.p):
            self.inverses[j] = 2 * self.inverses[j] % self.mod

    monkeypatch.setattr(compsum._Ladder, "__init__", doubled_at_multiples_of_p)
    mutated = _sweep()
    assert "LEM-2.3-i" in _noticed(baseline, mutated)
    blind = _blind(baseline, mutated, reads)
    assert blind <= _BLIND_AT_MOST
    # what the blind claims read changes only in its top digit, mod p**e but not
    # mod p**(e-1), and each drops that digit: EQ-1.3 and EQ-4.1 read their cross
    # sides mod p**r, LEM-2.3-ii its lower sums times multiples of p
    values, changed_values = baseline[1], mutated[1]
    changed = {key for claim_id in blind for key in reads[claim_id] if changed_values[key] != values[key]}
    assert changed
    for key in changed:
        assert (changed_values[key] - values[key]) % key[1] ** (_exponent(key) - 1) == 0, key


# The unit route's sign (-1)**(n+t) flipped negates every e = 1 sum. CONJ-5.1-w10
# passes only where both sides vanish mod p (m = 1, and p = 23 at m = 4), and 0
# negated is 0; its other rows are findings already. This set may only shrink.
_UNIT_SIGN_BLIND_AT_MOST = {"CONJ-5.1-w10"}


def test_a_flipped_sign_in_the_unit_route(baseline, reads, monkeypatch):
    # [x**t] g**n == (-1)**(n+t) p**-n (its signed binomial sum): here the sign is flipped
    monkeypatch.setattr(compsum, "_unit_pass", _mutant(compsum, "_unit_pass", "(-1) ** (n + t)", "(-1) ** (n + t + 1)"))
    mutated = _sweep()
    assert {"EQ-1.1", "THM-1.1-i", "EQ-5.1", "EQ-5.2", "LEM-3.3", "LEM-3.7", "COR-3.8",
            "CONJ-5.1-w8", "CONJ-5.1-w9", "LEM-2.3-i"} <= _noticed(baseline, mutated)
    assert _blind(baseline, mutated, reads) <= _UNIT_SIGN_BLIND_AT_MOST


def test_a_unit_skipped_in_the_running_product_is_refused(monkeypatch):
    # the pass skips the first unit of every block of p, so every U(x) past the
    # first block loses a factor: the binomials C(k*p, j) are then no longer
    # those of (1 - x)**(k*p), and the check that p**n divides their signed sum
    # fails at the first prime, before any report: nothing is blind
    units = _mutant(compsum, "_unit_factorials", "start = base + 1", "start = base + 2")
    monkeypatch.setattr(compsum, "_unit_factorials", units)
    refusal = r"p\*\*3 does not divide the sum of \[x\*\*5\] g\*\*3 mod p\*\*4 \(p=5\)"
    with pytest.raises(compsum.PrecisionError, match=refusal):
        _sweep()


def test_a_wrong_split_read(baseline, reads, monkeypatch):
    product = compsum._Ladder._product

    def lower_half_doubled_at_one_mod_p(self, low, high, t):
        low = [2 * c if i % self.p == 1 else c for i, c in enumerate(low)]
        return product(self, low, high, t)

    monkeypatch.setattr(compsum._Ladder, "_product", lower_half_doubled_at_one_mod_p)
    mutated = _sweep()
    assert _blind(baseline, mutated, reads) <= _BLIND_AT_MOST
    # every claim that reads a ladder, a sum mod p**e with e >= 2, notices or is allowed blind
    ladder_readers = {claim_id for claim_id, keys in reads.items() if any(_exponent(key) > 1 for key in keys)}
    assert {"THM-1.1-ii", "PROP-4.1", "LEM-2.3-i"} <= ladder_readers
    assert ladder_readers - _noticed(baseline, mutated) <= _BLIND_AT_MOST


def _callers(owner, name: str) -> set[str]:
    """The claims whose default grid calls owner.name. A sweep keeps no value once
    it is done (its Bernoulli residues and unordered-sum tables live in its
    per-prime contexts), so no value from an earlier sweep stands in for a call."""
    real, callers = getattr(owner, name), set()
    for claim_id in CLAIMS:
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
            sweep([claim_id])
        if calls:
            callers.add(claim_id)
    return callers


@pytest.fixture(scope="module")
def orbit_readers():
    """The claims whose default grid reads a B_k residue off the primitive root's orbit."""
    return _callers(bernoulli, "_orbit_residue")


# CONJ-5.1-w10 is blind to a wrong Bernoulli index for the reason it is blind
# to a wrong residue (below). This set may only shrink.
_BERNOULLI_INDEX_BLIND_AT_MOST = {"CONJ-5.1-w10"}


def test_a_bernoulli_index_off_by_two(baseline, monkeypatch):
    # every right-hand side reads B_k as B_(k-2), k >= 2
    readers = _callers(verifier, "bernoulli_mod_p")
    residue = verifier.bernoulli_mod_p
    monkeypatch.setattr(verifier, "bernoulli_mod_p", lambda k, p: residue(k - 2 if k >= 2 else k, p))
    noticed = _noticed(baseline, _sweep())
    assert {"EQ-1.1", "THM-1.1-i", "THM-1.1-ii", "PROP-4.1", "LEM-3.1", "LEM-3.4", "COR-3.2"} <= readers
    assert readers - noticed <= _BERNOULLI_INDEX_BLIND_AT_MOST


def test_a_walk_weight_off_at_a_band_boundary(baseline, orbit_readers, monkeypatch):
    # the walk adds y_i * W(x_i) over the orbit x_i = g**i, i < (p-1)/2, with weight
    # W(x) = 2*floor(g*x/p) - g + 1. Here the floor reads g*x + 1: one too high where
    # g*x == -1 (mod p), at the last step alone, x = g**((p-3)/2) == -1/g, so every
    # B_k moves by 2*k*y/(g - g**(1-k)) with y = (g**(k-1))**((p-3)/2), never 0
    off = _mutant(bernoulli, "_orbit_residue", "gx * a % gp // p", "(gx * a % gp + 1) // p")
    assert all(off(k, 13) != bernoulli.bernoulli_mod_p(k, 13) for k in range(2, 11, 2))
    monkeypatch.setattr(bernoulli, "_orbit_residue", off)
    noticed = _noticed(baseline, _sweep())
    assert {"EQ-1.1", "THM-1.1-i", "THM-1.1-ii", "PROP-4.1", "LEM-3.3",
            "CONJ-5.1-w8", "CONJ-5.1-w9", "CONJ-5.1-w10"} <= orbit_readers
    # CONJ-5.1-w10 passes only where both sides vanish mod p, and a B_k
    # multiple that vanishes still vanishes under the mutation. This set may only shrink
    assert orbit_readers - noticed <= {"CONJ-5.1-w10"}


# The harmonic sweeps: the unordered sums' collision recursion (LEM-3.1,
# LEM-3.4) and the nested chain sweep (COR-3.2). Today neither mutation leaves
# a claim blind. Each set may only shrink.
_UNORDERED_BLIND_AT_MOST: set[str] = set()
_CHAIN_BLIND_AT_MOST: set[str] = set()


def test_a_flipped_collision_term_in_the_unordered_sum(baseline, monkeypatch):
    # U(a_1, ..., a_n) = P_{a_1} U(a_2, ..., a_n) - sum_i U(a_2, ..., a_i + a_1, ..., a_n),
    # here with the collision terms added rather than subtracted
    def added(self, key):
        memo = self.memo
        if key not in memo:
            first, rest = key[0], key[1:]
            acc = self.power_sum(first) * self.u(rest)
            for i in range(len(rest)):
                acc += self.u(tuple(sorted(rest[:i] + (rest[i] + first,) + rest[i + 1:])))
            memo[key] = acc % self.mod
        return memo[key]

    readers = _callers(verifier, "unordered_sum")
    assert readers == {"LEM-3.1", "LEM-3.4"}
    monkeypatch.setattr(mhs_module._UnorderedTable, "u", added)
    assert readers - _noticed(baseline, _sweep()) <= _UNORDERED_BLIND_AT_MOST


def test_a_chain_sweep_that_skips_the_wrong_class(baseline, monkeypatch):
    # mhs._sweep with its restriction moved from the multiples of p to k == 1 (mod p)
    def skips_one_mod_p(N, parts, M):
        dp = [0] * len(parts) + [1]
        for k in range(1, N + 1):
            if k % M.p == 1:
                continue
            inverse = pow(k, -1, M.modulus)
            for j in range(len(parts)):
                dp[j] = (dp[j] + pow(inverse, parts[j], M.modulus) * dp[j + 1]) % M.modulus
        return dp[0] % M.modulus

    readers = _callers(mhs_module, "_sweep")
    assert readers == {"COR-3.2"}
    monkeypatch.setattr(mhs_module, "_sweep", skips_one_mod_p)
    assert readers - _noticed(baseline, _sweep()) <= _CHAIN_BLIND_AT_MOST
