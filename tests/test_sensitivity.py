"""Sensitivity of the catalog: break one layer, and see which claims notice.

Each mutation is applied by monkeypatch to the engine in this process (no
source files are copied; a mutation of one expression inside a function
recompiles that function from its own source, see _mutant), and the
default catalog is swept with and without it. A
claim notices a mutation when one of its pass rows no longer passes. A
claim is blind to it when it reads the mutated layer (a composition sum
that changed value, or a Bernoulli residue taken by the power sum) and
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


# the claims that read composition sums
_COMPOSITION_CLAIMS = {claim_id for claim_id, claim in CLAIMS.items() if inspect.isgeneratorfunction(claim.evaluate)}


@pytest.fixture(scope="module")
def reads():
    """Each composition claim's cache keys over its default grid."""
    out: dict[str, set] = {}
    for claim_id in _COMPOSITION_CLAIMS:
        for instance in CLAIMS[claim_id].grid(GridSpec()):
            _, run, terms = verifier._prepare(instance, {}, {})
            if inspect.isgenerator(run):
                run.close()
                out.setdefault(claim_id, set()).update(EvalContext.cache_key(spec, e) for spec, e in terms)
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


# The first three equate sums that all come from the same ladder, so a
# consistent ladder error can pass them. CONJ-5.1-w10 passes only where both
# sides vanish mod p (m = 1, and p = 23 at m = 4), which an error can leave
# at 0; its other rows are findings already. This set may only shrink.
# Today the inverse mutation leaves LEM-2.3-ii blind, the split-read
# mutation EQ-1.3, EQ-4.1 and LEM-2.3-ii, and the dot-product mutation
# CONJ-5.1-w10; the mirror mutation is refused. LEM-2.3-i left this set when
# its r = 1 rows came to compare the period key with the digit route.
_BLIND_AT_MOST = {"EQ-1.3", "EQ-4.1", "LEM-2.3-ii", "CONJ-5.1-w10"}


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
    # their sides were reduced: each keeps one side at its full target
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
    assert {"EQ-4.1", "LEM-2.3-i", "LEM-2.3-ii", "COR-3.8"} <= _noticed(baseline, mutated)
    assert _blind(baseline, mutated, reads) <= _SHIFT_BLIND_AT_MOST


def test_a_wrong_ladder_inverse_at_multiples_of_p(baseline, reads, monkeypatch):
    # the period key's table is the inverse period, with no multiple of p but 0,
    # so this mutation reaches only the digit route: the ladders with e >= 2 and
    # the full targets at e = 1, one side of LEM-2.3-i at r = 1 among them
    build = compsum._Ladder.__init__

    def doubled_at_multiples_of_p(self, *args):
        build(self, *args)
        for j in range(self.p, len(self.inverses), self.p):
            self.inverses[j] = 2 * self.inverses[j] % self.mod

    monkeypatch.setattr(compsum._Ladder, "__init__", doubled_at_multiples_of_p)
    mutated = _sweep()
    assert "LEM-2.3-i" in _noticed(baseline, mutated)
    assert _blind(baseline, mutated, reads) <= _BLIND_AT_MOST


def test_a_flipped_dot_product_at_multiples_of_p(baseline, reads, monkeypatch):
    # a half row of the period key reads its coefficients at p | j as one dot
    # product against the inverse period; here its sign is flipped. Under this
    # flip a sum of up to seven parts keeps its coefficients at the multiples
    # of p (seen for p = 11, 13, 17), which are all that EQ-1.1 and THM-1.1-i
    # read, so those two cannot notice
    climb = compsum._Ladder._half_row

    def flipped(self, prev, k):
        row = climb(self, prev, k)
        row[self.p :: self.p] = [-c % self.p for c in row[self.p :: self.p]]
        return row

    monkeypatch.setattr(compsum._Ladder, "_half_row", flipped)
    mutated = _sweep()
    assert {"LEM-2.3-i", "LEM-3.7", "COR-3.8", "CONJ-5.1-w8", "CONJ-5.1-w9"} <= _noticed(baseline, mutated)
    assert _blind(baseline, mutated, reads) <= _BLIND_AT_MOST


def test_a_flipped_mirror_at_odd_rows_is_refused(monkeypatch):
    # past its middle an odd row of the period key is minus its mirror image;
    # here that sign is flipped. The next row's climb reads the mirrored part
    # in its window at p | j, so the check that p divides it fails: the sweep
    # stops with PrecisionError before any report, and nothing is blind
    mirrored = compsum._Ladder._mirrored

    def flipped(self, row, k, top):
        out = mirrored(self, row, k, top)
        if k % 2:
            out = out[: len(row)] + [-c % self.p for c in out[len(row) :]]
        return out

    monkeypatch.setattr(compsum._Ladder, "_mirrored", flipped)
    with pytest.raises(compsum.PrecisionError, match="in row 4 mod p"):
        _sweep()
    # the same flip in a row read but never climbed from changes the value read
    spec = compsum.r_spec(5, 2, 11)
    monkeypatch.undo()
    clean = compsum.comp_sum(spec)
    monkeypatch.setattr(compsum._Ladder, "_mirrored", flipped)
    assert compsum.comp_sum(spec) != clean


def test_a_wrong_split_read(baseline, reads, monkeypatch):
    product = compsum._Ladder._product

    def lower_half_doubled_at_one_mod_p(self, low, high, t):
        low = [2 * c if i % self.p == 1 else c for i, c in enumerate(low)]
        return product(self, low, high, t)

    monkeypatch.setattr(compsum._Ladder, "_product", lower_half_doubled_at_one_mod_p)
    mutated = _sweep()
    assert _blind(baseline, mutated, reads) <= _BLIND_AT_MOST
    assert _COMPOSITION_CLAIMS - _noticed(baseline, mutated) <= _BLIND_AT_MOST


def _callers(owner, name: str) -> set[str]:
    """The claims whose default grid calls owner.name."""
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
def power_sum_readers():
    """The claims whose default grid reads a B_k residue through the power sum."""
    return _callers(bernoulli, "power_sum_residue")


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


def test_a_flipped_pair_correction_in_the_power_sum(baseline, power_sum_readers, monkeypatch):
    # power_sum_residue sums j**(k-1) * (2*j - k*p) over j < p/2. With the sign
    # of the correction k*p*j**(k-1) flipped, the sum grows by
    # 2*k*p*sum_{j<p/2} j**(k-1), so B_k mod p by 2*k*sum_{j<p/2} j**(k-1)
    residue = bernoulli.power_sum_residue

    def flipped(k, p):
        return (residue(k, p) + 2 * k * sum(pow(j, k - 1, p) for j in range(1, (p + 1) // 2))) % p

    assert flipped(4, 13) == sum(pow(j, 3, 169) * (2 * j + 4 * 13) for j in range(1, 7)) % 169 // 13
    monkeypatch.setattr(bernoulli, "power_sum_residue", flipped)
    noticed = _noticed(baseline, _sweep())
    assert {"EQ-1.1", "THM-1.1-i", "THM-1.1-ii", "PROP-4.1", "LEM-3.3",
            "CONJ-5.1-w8", "CONJ-5.1-w9", "CONJ-5.1-w10"} <= power_sum_readers
    # CONJ-5.1-w10 passes only where both sides vanish mod p, and a B_k
    # multiple that vanishes still vanishes under the mutation. This set may only shrink
    assert power_sum_readers - noticed <= {"CONJ-5.1-w10"}


# The harmonic sweeps: the unordered sums' collision recursion (LEM-3.1,
# LEM-3.4) and the nested chain sweep (COR-3.2). Their tables live for the
# whole process, so each mutation runs between two clears: it reads no clean
# value and leaves none of its own. Today neither mutation leaves a claim
# blind. Each set may only shrink.
_UNORDERED_BLIND_AT_MOST: set[str] = set()
_CHAIN_BLIND_AT_MOST: set[str] = set()


@pytest.fixture
def fresh_tables():
    mhs_module._inverse_power_sums.cache_clear()
    yield
    mhs_module._inverse_power_sums.cache_clear()


def test_a_flipped_collision_term_in_the_unordered_sum(baseline, fresh_tables, monkeypatch):
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
    mhs_module._inverse_power_sums.cache_clear()
    monkeypatch.setattr(mhs_module._UnorderedTable, "u", added)
    assert readers - _noticed(baseline, _sweep()) <= _UNORDERED_BLIND_AT_MOST


def test_a_chain_sweep_that_skips_the_wrong_class(baseline, fresh_tables, monkeypatch):
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
