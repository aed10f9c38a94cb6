"""Sums of reciprocal products over restricted compositions of m * p**r.

Every sum is one coefficient [x**N] f**n of the truncated unit series
f(x) = sum_{p not| l} x**l / l, or of its bounded variant f_b (parts below
p**R). Before anything is evaluated, a deep request is reduced by the
digit expansion. Writing each part as l = a + p*b with 0 < a < p,
1/l = sum_{j<e} (-p*b)**j / a**(j+1) (mod p**e), and summing over b with
the Eulerian sums sum_b b**j y**b = E_j(y) / (1 - y)**(j+1) gives
f == P(x) / (1 - x**p)**e (mod p**e) with deg P < p*e. So for
N >= L = n*p*e, [x**N] f**n is an exact integer combination of the
coefficients [x**t] f**n with t == N (mod p) and t < L (reduce). The
bounded family with R >= e gets no series of its own: f_b == (1 - x**p**R)
* f (mod p**e) turns [x**N] f_b**n into n + 1 shifted unbounded
coefficients, each read at its shifted target below L and reduced from L
on. Only a bounded request with R < e is read at its own target, on its
own bounded series. So a bounded sum asked one digit deeper than its part
bound, mod p**(R+1), is read with no weights, on a climb of its own: the
verifier reads one side of each identity that the weights would make hold
by algebra alone this way, and reduces it. Mod p (e = 1) the expansion
has one term: 1/(a + b*p) == 1/a, so f == g / (1 - x**p) with
g = sum_{0<a<p} x**a / a of degree p - 1, and f_b == (1 - x**p**R) * g /
(1 - x**p). So every e = 1 request, of either family and at any r, is
an exact integer combination of the coefficients [x**t] g**n with
n <= t <= n*(p-1) (_reading). A request's route is a function of
the request (spec, e) alone (_reading).

Two evaluators read the coefficients. Mod p each coefficient of g**n is
a signed sum of binomials C(k*p, j), k <= n, over p**n, read off one
running product of the units below n*p per prime (_unit_pass). Mod
p**e, e >= 2, a derivative ladder: (f**k)' = k * f**(k-1) * f', and f'
has 0/1 coefficients, so each row f**k costs one O(N) pass of prefix
sums followed by an exact p-adic division by the index; row 1 is f
itself, read off the table of inverses without a climb. The ladder meets
in the middle: for part counts up to K it climbs only rows 1..ceil(K/2),
and reads [x**t] f**n as one dot product of rows n//2 and n - n//2 up to
index t; its rows are streamed, two alive at a time. Evaluation is
planned: a caller declares the sums it will ask for (Plan) and passes
the plan to comp_sum; Plan.value, the one reader of a plan, looks up the
request's reading and combines the coefficients. Each (prime, part
bound, precision) key of the plan is evaluated once, for its largest
part count and target: a request plans its coefficients under the
unbounded key (p, None, e), read by one unit pass at e = 1 and by one
ladder at e >= 2, and a bounded request with R < e under its own ladder
key (p, p**R, e). A request the given plan did not plan raises KeyError;
one made without a plan is a plan of its own. A plan prices each key by
its work, before any is done, and refuses one too large to finish with
ScaleGuardError. One independent oracle checks the evaluators, here
because `supercong oracle` runs it: binary powering with one
Kronecker-substitution big-integer multiply per step
(comp_sum_kronecker). Both return a plain int, canonical in [0, p**e).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, islice, repeat, takewhile
from math import comb, perm
from operator import add, mul, sub
from typing import Iterable, Iterator, NamedTuple

from .modring import PrimePowerModulus, ScaleGuardError, figure, guard_table, prime_power, unit_inverses

__all__ = ["ScaleGuardError", "PrecisionError", "CompSumSpec", "s_spec", "r_spec", "comp_sum", "Plan",
           "comp_sum_kronecker", "count_solutions_exact"]

# comp_sum_kronecker refuses a packed operand wider than this many bits:
# R(7,3,11**4) mod 11**4 packs 2.1 Mbit and takes seconds, R(7,3,11**5) 27 Mbit and minutes
_KRONECKER_BITS = 1 << 22
# Plan refuses a key priced above this (Plan._price): LEM-2.3-ii at r = 5 prices
# 8.1e7 and takes 4 s and 225 MB, EQ-1.3 at p = 11, r = 6 1.8e8, and EQ-1.3 at
# r = 7 2.3e9, a ladder of 4 rows to 11**7 like the one that ran out of memory
# under a 1.5 GB cap
_MAX_LADDER_PRICE = 2e8


class PrecisionError(ArithmeticError):
    """An exact p-adic division failed: the working precision ran out."""


class _SpecFields(NamedTuple):
    n: int
    m: int
    p: int
    r: int
    upper_bound: int | None
    target: int


class CompSumSpec(_SpecFields):
    """One composition sum: n unit parts summing to target = m * p**r.

    With upper_bound = p**r each part stays strictly below p**r (the
    bounded family, nonempty only for m <= n - 1); with upper_bound = None
    parts are free (the family appearing at target m*p and in the lifted
    congruences). An explicit target decoupled from m * p**r is accepted
    for oracle-style evaluations at arbitrary sums. An immutable named
    tuple, validated on construction, whose repr writes a field past 10**100
    by its digit count (modring.figure).
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, p: int, r: int = 1, upper_bound: int | None = None,
                target: int | None = None) -> CompSumSpec:
        if n < 1:
            raise ValueError("need at least one part")
        if m < 1:
            raise ValueError(f"multiplier must be >= 1, got {m}")
        if r < 1:
            raise ValueError(f"exponent must be >= 1, got {r}")
        if upper_bound is not None and upper_bound != p**r:
            raise ValueError("the only supported part bound is p**r")
        if target is None:
            target = m * p**r
        elif target < 1:
            raise ValueError(f"target must be >= 1, got {target}")
        return super().__new__(cls, n, m, p, r, upper_bound, target)

    def __repr__(self) -> str:
        return f"CompSumSpec({', '.join(f'{k}={v if v is None else figure(v)}' for k, v in zip(self._fields, self))})"


def s_spec(n: int, m: int, p: int, r: int = 1) -> CompSumSpec:
    """Spec with every part strictly below p**r."""
    return CompSumSpec(n=n, m=m, p=p, r=r, upper_bound=p**r)


def r_spec(n: int, m: int, p: int, r: int = 1) -> CompSumSpec:
    """Spec with unbounded parts."""
    return CompSumSpec(n=n, m=m, p=p, r=r)


def _eval_modulus(spec: CompSumSpec, modulus: PrimePowerModulus | None) -> PrimePowerModulus:
    M = modulus if modulus is not None else prime_power(spec.p, spec.r)
    if M.p != spec.p:
        raise ValueError(f"evaluation modulus prime {M.p} != spec prime {spec.p}")
    return M


def _shifted(values: Iterable[int], d: int, N: int) -> Iterator[int]:
    """values[j - d] for j in 1..N, reading 0 at negative indices."""
    pad = min(d - 1, N)
    return chain(repeat(0, pad), islice(values, N - pad))


class _Ladder:
    """Rows f**1 .. f**K of one truncated unit series to x**N, each to the
    precision it needs, read as products f**n = f**(n//2) * f**(n - n//2)
    for every n <= 2*K.

    Row k's coefficient at j is k * s_j / j, where s_j sums coefficients of
    row k-1 below j. The division costs v_p(j) p-adic digits, at most V =
    max v_p(j). Work modulo p**(e + min((K-1)*V, D)), where D = v_p(N!),
    and keep row k modulo p**(e + min((K-k)*V, D)); then every row up to
    K is good to p**e. Proof: row 1 is f, exact to its precision: it is
    the inverse table with 0 at p | j and at j >= bound, not climbed
    (climbing it would divide an exact 0 or 1 by j). An error that enters
    a row (by reducing a numerator or a row modulo that row's precision)
    travels to later rows only through divisions at strictly increasing
    indices j, one per row, and loses v_p(j) digits at each. So an error
    entering row k loses at most (K-k)*V digits by row K, and at most
    sum_{j<=N} v_p(j) = D along any chain of distinct indices. Each
    numerator is reduced at the previous row's precision, and its exact
    divisibility by p**v_p(j) is checked there: by the same count its
    error is divisible by p**(e + v_p(j)), so the check passes whenever
    the rows below are right, and a failure raises PrecisionError.

    A caller asking for part counts up to K' builds the ladder with
    K = ceil(K'/2), so the rule above runs over half as many rows and
    every row is kept to fewer digits. The read [x**t] f**n = sum_{i<=t}
    [x**i] f**(n//2) * [x**(t-i)] f**(n - n//2) needs no extra digits:
    it only multiplies and adds, and two factors each right mod p**e give
    a product right mod p**e; nothing is divided after the climb. Row 0
    is the constant 1. The rows are climbed once and streamed: the two
    halves of n differ by at most one, so every part count is read as
    soon as its upper half is climbed, from that row and the one below
    it. Only those two rows are alive, and memory is O(N), not O(K*N).
    """

    def __init__(self, p: int, bound: int | None, e: int, K: int, N: int):
        self.p, self.bound, self.e, self.K, self.N = p, bound, e, K, N
        self.precs = self.precisions(p, e, K, N)
        self.prec = self.precs[1]
        self.mod = p**self.prec
        self.inverses = unit_inverses(p, N, self.mod)  # inverses[j] inverts j's unit part

    @staticmethod
    def precisions(p: int, e: int, K: int, N: int) -> list[int]:
        """The digits row k = 0..K is kept to, by the rule above; row 0, the constant 1, at row 1's."""
        V, limit, D, power = 0, p, 0, p
        while limit <= N:
            V, limit = V + 1, limit * p
        while power <= N:
            D, power = D + N // power, power * p
        return [e + min((K - max(k, 1)) * V, D) for k in range(K + 1)]

    def fill(self, wanted: dict[tuple[int, int], int | None]) -> None:
        """Set wanted[(n, t)] to [x**t] f**n mod p**e for every requested (n, t),
        n <= 2*K, as the dot product of rows n//2 and n - n//2 up to index t."""
        reads: dict[int, list[int]] = {}
        for n, t in wanted:
            if n > 2 * self.K or t > self.N:
                raise PrecisionError(
                    f"[x**{t}] f**{n} mod {self.p}**{self.e} is beyond the ladder's "
                    f"{self.p}**{self.prec} (climbed to row {self.K}, targets up to {self.N})"
                )
            reads.setdefault(n, []).append(t)
        below = [1]  # row 0, the constant 1
        for k, row in self.rows():
            # the part counts whose upper half is row k: 2k - 1 = (k - 1) + k and 2k = k + k
            for n in (2 * k - 1, 2 * k):
                for t in reads.get(n, ()):
                    wanted[(n, t)] = self._product(below if n < 2 * k else row, row, t)
            below = row

    def _product(self, low: list[int], high: list[int], t: int) -> int:
        """[x**t] low * high mod p**e: one dot product, with no division."""
        return sum(map(mul, low, high[t::-1])) % self.p**self.e

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """(k, f**k) for k = 1..K, each row built from the one before and then dropped.

        Row 1 is f itself, not climbed: a copy of the inverse table with 0 at
        the multiples of p and, in the bounded family, from the bound on."""
        p, bound, N = self.p, self.bound, self.N
        row = self.inverses.copy()
        row[::p] = repeat(0, N // p + 1)
        if bound is not None and bound <= N:
            row[bound:] = repeat(0, N + 1 - bound)
        yield 1, row
        for k in range(2, self.K + 1):
            row = self._row(row, k)
            yield k, row

    def _row(self, prev: list[int], k: int) -> list[int]:
        """f**k from prev = f**(k-1): j * c_j = k * [x**(j-1)] prev * f'."""
        p, bound, N = self.p, self.bound, self.N
        prec = self.precs[k - 1]
        below, mod = p**prec, p**self.precs[k]
        prefix = list(accumulate(prev))
        by_class = prev[:p]  # by_class[i] = prev[i] + prev[i - p] + prev[i - 2p] + ...
        for i in range(p, len(prev), p):
            by_class += map(add, prev[i : i + p], by_class[i - p : i])
        # sums[j] = sum of prev[i] over j - bound < i < j with p not dividing j - i
        sums = map(sub, prefix, _shifted(by_class, p, N))
        if bound is not None and N >= bound:
            # minus the parts l >= bound: prev[i] over i <= j - bound off j's class
            sums = map(sub, sums, _shifted(map(sub, prefix, by_class), bound, N))
        sums = [0, *sums]
        del prefix, by_class
        inverses = self.inverses
        row = [k * s * c % mod for s, c in zip(sums, inverses)]
        for j in range(p, N + 1, p):
            numerator = k * sums[j] % below
            v, power = 1, p
            while j % (power * p) == 0:
                v, power = v + 1, power * p
            if numerator % power:
                raise PrecisionError(
                    f"p**{v} does not divide the numerator of coefficient {j} in row {k} "
                    f"mod p**{prec} (p={p})"
                )
            row[j] = numerator // power * inverses[j] % mod
        return row


# The unit pass. For 0 < a < p, C(p, a) = (p/a) C(p-1, a-1) and C(p-1, a-1) ==
# (-1)**(a-1) (mod p), so g == -Q/p (mod p) with Q = (1 - x)**p - 1 - (-x)**p,
# and expanding (-Q/p)**n gives [x**j] g**n == (-1)**(n+j) p**-n sum_{k<=n}
# (-1)**(n-k) C(n, k) sum_i C(n-k, i) C(k*p, j - i*p) (mod p): the sum is taken
# mod p**(n+1), and p**n must divide it (else PrecisionError). With C(n, k)
# C(n-k, i) = C(n, i) C(n-i, k) and j = s*p + c, 0 <= c < p, it is sum_i (-1)**i
# C(n, i) D[s-i][n-i], where D[r][m] = sum_k (-1)**(m-k) C(m, k) C(k*p, r*p + c)
# is the m-th forward difference at 0 of k -> C(k*p, r*p + c): one table per
# residue c serves every part count. The binomials come from unit-part
# factorials (Granville, "Arithmetic properties of binomial coefficients I",
# 1997): x! = p**q q! U(x), q = x // p, U(x) the product of the units up to x,
# so C(k*p, r*p) = C(k, r) U(k*p) / (U(r*p) U((k-r)*p)), and at c > 0
# C(k*p, r*p + c) = p (k - r) C(k, r) U(k*p) / (U(r*p + c) U((k-r)*p - c)). One
# running product of the units below K*p mod p**(K+1) records U where these read
# it (_unit_factorials), and memory is O(K**2), whatever p.
def _unit_pass(p: int, K: int, wanted: dict[tuple[int, int], int | None]) -> None:
    """Set wanted[(n, t)] to [x**t] g**n mod p for every requested (n, t),
    n <= K, g = sum_{0<a<p} x**a / a, by the rule above."""
    reads: dict[int, dict[int, list[int]]] = {}  # residue c: part count n: its targets
    for n, t in wanted:
        if n > K:
            raise PrecisionError(f"[x**{t}] g**{n} mod {p} is beyond the unit pass's {K} parts")
        reads.setdefault(t % p, {}).setdefault(n, []).append(t)
    mod = p ** (K + 1)
    units = _unit_factorials(p, K, reads, mod)
    inverse = {x: pow(u, -1, mod) for x, u in units.items()}
    signed = [[1]]  # signed[m][k] = (-1)**(m-k) C(m, k), by Pascal's rule
    for _ in range(K):
        signed.append(list(map(sub, [0, *signed[-1]], [*signed[-1], 0])))
    for c, counts in reads.items():
        up = c > 0  # the p-power of C(k*p, s*p + c)
        differences = []  # D[r][m] up to the highest r read
        for r in range(max(map(max, counts.values())) // p + 1):
            low = inverse[r * p + c]
            row = [comb(k, r) * (p * (k - r) if up else 1) * units[k * p] * low % mod
                   * inverse[(k - r) * p - c] % mod if k - up >= r else 0 for k in range(K + 1)]
            differences.append([sum(map(mul, signs, row)) for signs in signed])
        for n, targets in counts.items():
            power = p**n
            for t in targets:
                s = t // p
                h = sum(signed[n][n - i] * differences[s - i][n - i] for i in range(min(s, n) + 1))
                if h % power:
                    raise PrecisionError(f"p**{n} does not divide the sum of [x**{t}] g**{n} mod p**{n + 1} (p={p})")
                wanted[(n, t)] = (-1) ** (n + t) * (h % (power * p) // power) % p


def _unit_factorials(p: int, K: int, residues: Iterable[int], mod: int) -> dict[int, int]:
    """U(x) mod `mod` at x = 0, k*p (k <= K), s*p + c and s*p + p - c (s < K)
    for each c in residues: 64 units to a perm, one reduction per perm."""
    offsets = sorted({p, *residues, *(p - c for c in residues)} - {0})
    out, product = {0: 1}, 1
    for base in range(0, K * p, p):
        start = base + 1
        for d in offsets:
            stop = base + min(d, p - 1)  # base + p is no unit: U(base + p) = U(base + p - 1)
            for lo in range(start, stop + 1, 64):
                hi = min(lo + 64, stop + 1)
                product = product * perm(hi - 1, hi - lo) % mod
            out[base + d] = product
            start = max(start, stop + 1)
    return out


def _digit_weights(n: int, p: int, e: int, N: int) -> dict[int, int]:
    """w_t with [x**N] f**n == sum_t w_t * [x**t] f**n (mod p**e), over t == N
    (mod p), n <= t < L = n*p*e <= N.

    f**n == P(x)**n / (1 - x**p)**(n*e) with deg P**n < L, and
    P**n = f**n * (1 - x**p)**(n*e), so with q = (N - t)/p the weights are
    w_t = sum_{c >= 0, t + c*p < L} (-1)**c C(n*e, c) C(n*e - 1 + q - c, n*e - 1),
    exact integers, here reduced mod p**e. The condition t + c*p < L is
    q - c >= lo = ceil((N - L + 1) / p), the same for every t, so the
    weights read at most n*e binomials C(n*e - 1 + j, n*e - 1), lo <= j:
    the first one exact, each next one by the exact ratio (n*e + j)/(j + 1).
    Priced at its n*e targets times its n*e binomials before the first one.
    """
    d, L, mod = n * e, n * p * e, p**e
    guard_table("the digit weights of f**{} mod {}**{} at target {}", d * d, n, p, e, N)
    targets = range(n + (N - n) % p, L, p)
    lo = -((L - 1 - N) // p)
    binomials, binomial = [], comb(d - 1 + lo, d - 1)
    for j in range(lo, (N - n) // p + 1):
        binomials.append(binomial % mod)
        binomial = binomial * (d + j) // (j + 1)
    signed = [(-1) ** c * comb(d, c) for c in range(d)]
    weights = {}
    for t in targets:
        q = (N - t) // p
        weights[t] = sum(map(mul, signed, reversed(binomials[: q - lo + 1]))) % mod
    return weights


def _reading(spec: CompSumSpec, e: int, digit_weights=None) -> tuple[tuple[int, int | None, int], dict[int, int]]:
    """The key (p, part bound, e) and the weights w_t with spec's value ==
    sum_t w_t * [x**t] f**n (mod p**e), f the series of that key. A
    bounded request with R < e is read at its target on (p, p**R, e); every
    other one through the n + 1 shifts of the unbounded series (one for a
    free request), each shift at its exact target below n*p*e and by its
    digit weights from n*p*e on. At e = 1 every request is read under
    (p, None, 1) as coefficients of g**n, with its weights reduced mod p and
    the vanishing ones dropped. Mod p, 1/(a + b*p) == 1/a, so f == g / (1 - x**p)
    and [x**N] f**n = sum_q C(n - 1 + q, q) [x**(N - q*p)] g**n: exact
    weights, read only at the t == N (mod p) in n..n*(p-1), where g**n can
    be nonzero, and priced at those targets times n before the first binomial.
    digit_weights stands in for _digit_weights (a plan's keeps its values)."""
    n, N, p = spec.n, spec.target, spec.p
    if spec.upper_bound is not None and spec.r < e:
        return (p, spec.upper_bound, e), {N: 1}
    # bounded: f_b == (1 - x**p**R) * f (mod p**e, R >= e),
    # so f_b**n == sum_k (-1)**k C(n, k) x**(k*p**R) f**n
    shifts = range(n + 1) if spec.upper_bound is not None else range(1)
    targets = list(takewhile(n.__le__, (N - k * p**spec.r for k in shifts)))  # down to the first below n
    if e == 1:  # every shift's g**n targets, all priced at once
        reads = [range(n + (s - n) % p, min(s, n * (p - 1)) + 1, p) for s in targets]
        guard_table("the weights of g**{} mod {} at target {}", n * sum(map(len, reads)), n, p, N)
    out: dict[int, int] = {}
    for k, shifted in enumerate(targets):
        sign = (-1) ** k * comb(n, k)
        if e == 1:
            terms = {t: comb(n - 1 + (shifted - t) // p, n - 1) for t in reads[k]}
        else:
            terms = {shifted: 1} if shifted < n * p * e else (digit_weights or _digit_weights)(n, p, e, shifted)
        for t, w in terms.items():
            out[t] = out.get(t, 0) + sign * w
    return (p, None, e), ({t: w % p for t, w in out.items() if w % p} if e == 1 else out)


class Plan:
    """The composition sums a caller will ask for, as (spec, e) pairs, each
    to be evaluated mod p**e, and how each is read.

    readings[(spec, e)] is the request's key and weights (_reading), so
    each request has one route, whatever else the plan holds. Each (prime,
    part bound, precision) key is evaluated once, for the largest part
    count and target requested of it, sizes[key]: at e = 1 by one unit
    pass (_unit_pass), at e >= 2 by one ladder. Every key is priced on
    construction, before any work (_price), and a plan whose costliest key
    is priced above _MAX_LADDER_PRICE raises ScaleGuardError naming the
    term that sets its size. value is the one reader of readings, wanted
    and sizes: the first read of a key evaluates it, counts it in
    ladders_built and fills in every requested coefficient of that key.
    """

    def __init__(self, requests: Iterable[tuple[CompSumSpec, int]] = ()):
        self.ladders_built = 0
        self.readings: dict[tuple[CompSumSpec, int], tuple[tuple[int, int | None, int], dict[int, int]]] = {}
        # per key, the requested (n, t) coefficients, None until the key is evaluated
        self.wanted: dict[tuple[int, int | None, int], dict[tuple[int, int], int | None]] = {}
        digit_weights = cache(_digit_weights)  # each (n, p, e, N) computed once a plan; _reading only reads them
        for spec, e in dict.fromkeys(requests):
            if spec.target >= spec.n:
                key, weights = self.readings[(spec, e)] = _reading(spec, e, digit_weights)
                self.wanted.setdefault(key, {}).update(((spec.n, t), None) for t in weights)
        # per key with a coefficient to read, its largest part count n and top target N
        self.sizes = {key: (max(n for n, _ in wanted), max(t for _, t in wanted))
                      for key, wanted in self.wanted.items() if wanted}
        key = max(self.sizes, key=self._price, default=None)
        if key is not None and self._price(key) > _MAX_LADDER_PRICE:
            (p, _, e), (n, N) = key, self.sizes[key]
            spec, e = next(term for term, (k, weights) in self.readings.items()
                           if k == key and (term[0].n == n if e == 1 else N in weights))
            work = (f"a unit pass over the {figure(n * p)} units below {n}*{p}" if e == 1
                    else f"a ladder of {(n + 1) // 2} rows to target {figure(N)}")
            raise ScaleGuardError(f"{spec} mod {spec.p}**{e} needs {work}, "
                                  f"priced {figure(self._price(key), '.3g')} > {_MAX_LADDER_PRICE:.3g}")

    def _price(self, key: tuple[int, int | None, int]) -> int:
        """What evaluating the key costs, before any of it is done. At e = 1 the
        unit pass: a small multiply per unit below n*p, and at the modulus's n + 1
        digits a reduction per 64 units and about n*n differences. At e >= 2 about
        K * N * digits: the ladder's rows K = ceil(n/2), top target and precision."""
        (p, _, e), (n, N) = key, self.sizes[key]
        if e == 1:
            units = n * p
            return units + (units // 64 + n * n) * (n + 1)
        K = (n + 1) // 2
        return K * N * _Ladder.precisions(p, e, K, N)[1]

    def value(self, spec: CompSumSpec, e: int) -> int:
        """spec's sum mod p**e as planned; a request the plan did not plan raises KeyError naming it."""
        key, weights = self.readings[(spec, e)]
        wanted = self.wanted[key]
        if any(wanted[(spec.n, t)] is None for t in weights):
            self.ladders_built += 1
            n, N = self.sizes[key]
            if e == 1:
                _unit_pass(key[0], n, wanted)
            else:
                _Ladder(*key, (n + 1) // 2, N).fill(wanted)
        return sum(w * wanted[(spec.n, t)] for t, w in weights.items()) % spec.p**e


def comp_sum(spec: CompSumSpec, modulus: PrimePowerModulus | None = None, plan: Plan | None = None) -> int:
    """Sum of 1/(l_1 * ... * l_n) over the admissible compositions, as a
    canonical int in [0, p**e).

    Evaluated mod p**spec.r unless an explicit modulus (same prime, any
    exponent) is supplied, and read by plan.value. Empty sums return 0, not
    an error: they are legitimate corner cases (e.g. a single part equal to
    m * p**r). A request that the given plan did not plan raises KeyError;
    made without a plan, a request is a plan of its own.
    """
    M = _eval_modulus(spec, modulus)
    if spec.target < spec.n:
        return 0
    return (plan if plan is not None else Plan([(spec, M.r)])).value(spec, M.r)


def comp_sum_kronecker(spec: CompSumSpec, modulus: PrimePowerModulus | None = None) -> int:
    """The oracle `supercong oracle` runs against comp_sum: binary powering
    of the truncated unit series, sharing no code with the ladder.

    Each truncated product is one big-integer multiply of two coefficient
    vectors packed into fixed-width slots (Kronecker substitution). The
    slots hold any exact coefficient sum, so no word-size guard is needed.
    A packed operand wider than _KRONECKER_BITS raises ScaleGuardError
    before anything is multiplied.
    """
    M = _eval_modulus(spec, modulus)
    N = spec.target
    if N < spec.n:
        return 0
    mod = M.modulus
    width = ((N + 1) * (mod - 1) ** 2).bit_length() // 8 + 1  # bytes per slot
    bits = 8 * width * (N + 1)
    if bits > _KRONECKER_BITS:
        raise ScaleGuardError(f"Kronecker operand of {bits} bits at target {N} exceeds {_KRONECKER_BITS}")
    mask = (1 << bits) - 1
    limit = N if spec.upper_bound is None else min(N, spec.upper_bound - 1)
    base = [pow(l, -1, mod) if l % spec.p else 0 for l in range(limit + 1)]

    def pack(coeffs: list[int]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    def mul(a: int, b: int) -> int:
        raw = (a * b & mask).to_bytes(width * (N + 1), "little")
        return pack([int.from_bytes(raw[i : i + width], "little") % mod for i in range(0, len(raw), width)])

    cur, acc, k = pack(base), None, spec.n
    while k:
        if k & 1:
            acc = cur if acc is None else mul(acc, cur)
        k >>= 1
        if k:
            cur = mul(cur, cur)
    return acc >> 8 * width * N


def count_solutions_exact(a: int, m: int, n: int, p: int) -> int:
    """Number of integer solutions of x_1 + ... + x_n = m*p - a, 0 <= x_i < p.

    Inclusion-exclusion over how many coordinates overflow p, with exact
    integer binomials, priced as terms times n products before the first.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    target = m * p - a
    if target < 0:
        return 0
    terms = min(n, target // p) + 1
    guard_table("the solution count of {} coordinates below {} summing to {}", terms * n, n, p, target)
    total = 0
    for i in range(terms):
        total += (-1) ** i * comb(n, i) * comb(n + target - i * p - 1, n - 1)
    return total
