"""Sums of reciprocal products over restricted compositions of m * p**r.

Every sum is one coefficient [x**N] f**n of the truncated unit series
f(x) = sum_{p not| l} x**l / l, or of its bounded variant f_b (parts below
p**R). Before anything is climbed, a deep request is reduced by the digit
expansion. Writing each part as l = a + p*b with 0 < a < p,
1/l = sum_{j<e} (-p*b)**j / a**(j+1) (mod p**e), and summing over b with
the Eulerian sums sum_b b**j y**b = E_j(y) / (1 - y)**(j+1) gives
f == P(x) / (1 - x**p)**e (mod p**e) with deg P < p*e. So for
N >= L = n*p*e, [x**N] f**n is an exact integer combination of the
coefficients [x**t] f**n with t == N (mod p) and t < L (reduce), and for
the bounded family with R >= e, f_b == (1 - x**p**R) * f (mod p**e) turns
[x**N] f_b**n into n + 1 shifted unbounded coefficients, each reduced the
same way. Every other request (N < L, and the bounded family with R < e)
is read at its own target. A request can also ask for its own target
explicitly (CompSumSpec.full_target), which is how the verifier
cross-checks the identities that the reduction would make hold by
algebra alone. The plan decides each request's route: a sum that one
request of a plan reads at its full target is read there by every
request of that plan.

The coefficients themselves come from one evaluator, a derivative
ladder: (f**k)' = k * f**(k-1) * f', and f' has 0/1 coefficients, so
each row f**k costs one O(N) pass of prefix sums followed by an exact
p-adic division by the index; row 1 is f itself, read off the table of
inverses without a climb. Mod p (e = 1) nothing is divided by p: at
p | j, 1/(j - i) == -1/i for every unit i, so the coefficient at j is a
window of one weighted prefix sum of the row below, and every row stays
mod p. The ladder meets in the middle: for part counts up to K it
climbs only rows 1..ceil(K/2), and reads [x**t] f**n as one dot product
of rows n//2 and n - n//2 up to index t. Evaluation is planned: a
caller declares the sums it will ask for (Plan) and passes the plan to
comp_sum, which looks up the request's reading and combines
the coefficients. Each (prime, part bound, precision) key of the plan
gets one ladder, built once for its largest part count and target; a
reduced request plans its coefficients under the unbounded key
(p, None, e), below n*p*e. The rows are streamed, two alive at a time,
and only the planned coefficients are kept. A request outside the plan,
or made without one, is a plan of its own. Two independent oracles
check the evaluator: binary powering with one Kronecker-substitution
big-integer multiply per step, and, at small scale, a memoized
recursive enumerator. All three return a plain int, canonical in
[0, p**e).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import add, mul, sub
from typing import Iterable, Iterator, NamedTuple

from .modring import PrimePowerModulus, inverses_mod_p, prime_power

__all__ = [
    "ScaleGuardError",
    "PrecisionError",
    "CompSumSpec",
    "s_spec",
    "r_spec",
    "comp_sum",
    "is_reduced",
    "Plan",
    "comp_sum_bruteforce",
    "comp_sum_kronecker",
    "count_solutions_exact",
    "gamma_n",
    "BRUTEFORCE_TARGET_CAP",
]

BRUTEFORCE_TARGET_CAP = 60


class ScaleGuardError(ValueError):
    """Brute-force enumeration refused: target too large."""


class PrecisionError(ArithmeticError):
    """An exact p-adic division failed: the working precision ran out."""


class _SpecFields(NamedTuple):
    n: int
    m: int
    p: int
    r: int
    upper_bound: int | None
    target: int
    full_target: bool


class CompSumSpec(_SpecFields):
    """One composition sum: n unit parts summing to target = m * p**r.

    With upper_bound = p**r each part stays strictly below p**r (the
    bounded family, nonempty only for m <= n - 1); with upper_bound = None
    parts are free (the family appearing at target m*p and in the lifted
    congruences). An explicit target decoupled from m * p**r is accepted
    for oracle-style evaluations at arbitrary sums. full_target reads the
    coefficient at the target itself, never by reduction: the same value,
    by a second route. An immutable named tuple, validated on construction.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, p: int, r: int = 1, upper_bound: int | None = None,
                target: int | None = None, full_target: bool = False) -> CompSumSpec:
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
        return super().__new__(cls, n, m, p, r, upper_bound, target, full_target)


def s_spec(n: int, m: int, p: int, r: int = 1, full_target: bool = False) -> CompSumSpec:
    """Spec with every part strictly below p**r."""
    return CompSumSpec(n=n, m=m, p=p, r=r, upper_bound=p**r, full_target=full_target)


def r_spec(n: int, m: int, p: int, r: int = 1, full_target: bool = False) -> CompSumSpec:
    """Spec with unbounded parts."""
    return CompSumSpec(n=n, m=m, p=p, r=r, full_target=full_target)


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

    At e = 1 the rule above is not needed, because nothing is divided by
    p. For p | j and every unit i, j - i == -i (mod p), so [x**j] f**k ==
    -sum [x**i] f**(k-1) / i over the units i with j - bound < i < j: a
    window of the weighted prefix sum of row k-1 against the inverses,
    exact mod p. So every row is kept mod p (precs all 1), and the inverse
    table is one period [0, 1/1, ..., 1/(p-1)] mod p repeated up to N,
    with 0 at the multiples of p. The check that p divides k * s_j at
    p | j stays, and its failure still raises PrecisionError. A ladder
    with e >= 2 keeps the digit route: an e-term expansion of 1/(j - i)
    in its place measured slower on the depth runs.

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
        if e == 1:
            # nothing is divided by p (_row), so every row is exact mod p
            self.precs, self.prec, self.mod = [1] * (K + 1), 1, p
            self.inverses = (inverses_mod_p(p) * (N // p + 1))[: N + 1]
            return
        V, limit, D, power = 0, p, 0, p
        while limit <= N:
            V, limit = V + 1, limit * p
        while power <= N:
            D, power = D + N // power, power * p
        # precs[k]: the digits row k is kept to; row 0, the constant 1, at row 1's
        self.precs = [e + min((K - max(k, 1)) * V, D) for k in range(K + 1)]
        self.prec = self.precs[1]
        self.mod = mod = p**self.prec
        # inverses[j] inverts j's unit part; one pow for the product of all units
        units = [j for j in range(1, N + 1) if j % p]
        products = list(accumulate(units, lambda a, b: a * b % mod, initial=1))
        inverse = pow(products[-1], -1, mod)
        unit_inverses = [0] * len(units)
        for i in range(len(units) - 1, -1, -1):
            unit_inverses[i] = inverse * products[i] % mod
            inverse = inverse * units[i] % mod
        fresh = iter(unit_inverses)
        self.inverses = inverses = [0]
        for j in range(1, N + 1):
            inverses.append(next(fresh) if j % p else inverses[j // p])

    def fill(self, wanted: dict[tuple[int, int], int | None]) -> None:
        """Set wanted[(n, t)] to [x**t] f**n mod p**e for every requested (n, t),
        n <= 2*K, as the dot product of rows n//2 and n - n//2 up to index t."""
        targets: dict[int, list[int]] = {}
        for n, t in wanted:
            if n > 2 * self.K or t > self.N:
                raise PrecisionError(
                    f"[x**{t}] f**{n} mod {self.p}**{self.e} is beyond the ladder's "
                    f"{self.p}**{self.prec} (climbed to row {self.K}, targets up to {self.N})"
                )
            targets.setdefault(n, []).append(t)
        below = [1]  # row 0, the constant 1
        for k, row in self.rows():
            # the part counts whose upper half is row k: 2k - 1 = (k - 1) + k and 2k = k + k
            for n, low in ((2 * k - 1, below), (2 * k, row)):
                for t in targets.get(n, ()):
                    wanted[(n, t)] = self._product(low, row, t)
            below = row

    def _product(self, low: list[int], high: list[int], t: int) -> int:
        """[x**t] low * high mod p**e: one dot product, with no division."""
        return sum(map(mul, low[: t + 1], high[t::-1])) % self.p**self.e

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
        """f**k from prev = f**(k-1): j * c_j = k * [x**(j-1)] prev * f'; at e = 1
        the coefficients at p | j are windows of a weighted prefix sum instead."""
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
        if self.e == 1:
            # mod p, 1/(j - i) == -1/i at p | j: [x**j] f**k == -sum prev[i] / i over the
            # units i in j - bound < i < j, a window of one weighted prefix sum
            weighted = [0, *accumulate(map(mul, prev, inverses))]
            for j in range(p, N + 1, p):
                if k * sums[j] % p:
                    raise PrecisionError(
                        f"p does not divide the numerator of coefficient {j} in row {k} mod p (p={p})"
                    )
                low = weighted[j - bound + 1] if bound is not None and j >= bound else 0
                row[j] = (low - weighted[j]) % p
            return row
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


def is_reduced(spec: CompSumSpec, e: int) -> bool:
    """True when comp_sum reads spec mod p**e as a combination of unbounded
    coefficients below n*p*e instead of at its own target."""
    if spec.full_target or spec.upper_bound is not None and spec.r < e:
        return False
    return spec.target >= spec.n * spec.p * e


def _digit_weights(n: int, p: int, e: int, N: int) -> dict[int, int]:
    """w_t with [x**N] f**n == sum_t w_t * [x**t] f**n (mod p**e), over t == N
    (mod p), n <= t < L = n*p*e <= N.

    f**n == P(x)**n / (1 - x**p)**(n*e) with deg P**n < L, and
    P**n = f**n * (1 - x**p)**(n*e), so with q = (N - t)/p the weights are
    w_t = sum_{c >= 0, t + c*p < L} (-1)**c C(n*e, c) C(n*e - 1 + q - c, n*e - 1),
    exact integers, here reduced mod p**e. The condition t + c*p < L is
    q - c >= lo = ceil((N - L + 1) / p), the same for every t, so the
    weights read at most n*e binomials C(n*e - 1 + j, n*e - 1), lo <= j.
    """
    d, L, mod = n * e, n * p * e, p**e
    targets = range(n + (N - n) % p, L, p)
    lo = -((L - 1 - N) // p)
    binomials = [comb(d - 1 + j, d - 1) % mod for j in range(lo, (N - n) // p + 1)]
    signed = [(-1) ** c * comb(d, c) for c in range(d)]
    weights = {}
    for t in targets:
        q = (N - t) // p
        weights[t] = sum(map(mul, signed, reversed(binomials[: q - lo + 1]))) % mod
    return weights


def _reading(spec: CompSumSpec, e: int) -> tuple[tuple[int, int | None, int], dict[int, int]]:
    """The ladder key (p, part bound, e) and the weights w_t with spec's value
    == sum_t w_t * [x**t] f**n (mod p**e), f the series of that key: the
    target itself, or the reduced coefficients below n*p*e."""
    n, N, p = spec.n, spec.target, spec.p
    if not is_reduced(spec, e):
        return (p, spec.upper_bound, e), {N: 1}
    # bounded, R >= e: f_b == (1 - x**p**R) * f, so f_b**n == sum_k (-1)**k C(n, k) x**(k*p**R) f**n
    shifts = range(n + 1) if spec.upper_bound is not None else range(1)
    out: dict[int, int] = {}
    for k in shifts:
        shifted, sign = N - k * p**spec.r, (-1) ** k * comb(n, k)
        if shifted < n:
            break
        terms = {shifted: 1} if shifted < n * p * e else _digit_weights(n, p, e, shifted)
        for t, w in terms.items():
            out[t] = out.get(t, 0) + sign * w
    return (p, None, e), out


class Plan:
    """The composition sums a caller will ask for, as (spec, e) pairs, each
    to be evaluated mod p**e, and how each is read.

    A sum that one request reads at its full target (CompSumSpec.full_target)
    is read there by every request of the plan, so the plan holds one value
    per sum. readings[(spec, e)] is the request's ladder key and weights
    (_reading). Each (prime, part bound, precision) key gets one ladder,
    sized to the largest part count and target requested of it; a reduced
    request asks the unbounded key (p, None, e) for its coefficients below
    n*p*e. The first comp_sum call that reaches a key climbs its ladder and
    fills in every requested coefficient of that key.
    """

    def __init__(self, requests: Iterable[tuple[CompSumSpec, int]] = ()):
        self.ladders_built = 0
        requests = dict.fromkeys(requests)
        full = {(spec._replace(full_target=False), e) for spec, e in requests if spec.full_target}
        self.readings: dict[tuple[CompSumSpec, int], tuple[tuple[int, int | None, int], dict[int, int]]] = {}
        # per key, the requested (n, t) coefficients, None until the key's ladder is climbed
        self.wanted: dict[tuple[int, int | None, int], dict[tuple[int, int], int | None]] = {}
        for spec, e in requests:
            if spec.target >= spec.n:
                read = spec._replace(full_target=True) if (spec, e) in full else spec
                key, weights = self.readings[(spec, e)] = _reading(read, e)
                self.wanted.setdefault(key, {}).update(((spec.n, t), None) for t in weights)


def comp_sum(spec: CompSumSpec, modulus: PrimePowerModulus | None = None, plan: Plan | None = None) -> int:
    """Sum of 1/(l_1 * ... * l_n) over the admissible compositions, as a
    canonical int in [0, p**e).

    Evaluated mod p**spec.r unless an explicit modulus (same prime, any
    exponent) is supplied, and read as the plan reads it. Empty sums return
    0, not an error: they are legitimate corner cases (e.g. a single part
    equal to m * p**r). A request outside the plan, or made without one, is
    a plan of its own.
    """
    M = _eval_modulus(spec, modulus)
    n = spec.n
    if spec.target < n:
        return 0
    if plan is None or (spec, M.r) not in plan.readings:
        plan = Plan([(spec, M.r)])
    key, weights = plan.readings[(spec, M.r)]
    wanted = plan.wanted[key]
    if any(wanted[(n, t)] is None for t in weights):
        plan.ladders_built += 1
        K, top = max(k for k, _ in wanted), max(t for _, t in wanted)
        _Ladder(spec.p, key[1], M.r, (K + 1) // 2, top).fill(wanted)
    return sum(w * wanted[(n, t)] for t, w in weights.items()) % M.modulus


def comp_sum_kronecker(spec: CompSumSpec, modulus: PrimePowerModulus | None = None) -> int:
    """Scale oracle for comp_sum: binary powering of the truncated unit series.

    Each truncated product is one big-integer multiply of two coefficient
    vectors packed into fixed-width slots (Kronecker substitution). The
    slots hold any exact coefficient sum, so no word-size guard is needed.
    """
    M = _eval_modulus(spec, modulus)
    N = spec.target
    if N < spec.n:
        return 0
    mod = M.modulus
    limit = N if spec.upper_bound is None else min(N, spec.upper_bound - 1)
    base = [pow(l, -1, mod) if l % spec.p else 0 for l in range(limit + 1)]
    width = ((N + 1) * (mod - 1) ** 2).bit_length() // 8 + 1  # bytes per slot
    mask = (1 << 8 * width * (N + 1)) - 1

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


def comp_sum_bruteforce(spec: CompSumSpec, modulus: PrimePowerModulus | None = None) -> int:
    """Independent oracle for comp_sum: recursive enumeration by first part.

    Shares suffix subtrees through a memo table, never touching the
    ladder or the series. Guarded to targets <= BRUTEFORCE_TARGET_CAP.
    """
    M = _eval_modulus(spec, modulus)
    N = spec.target
    if N > BRUTEFORCE_TARGET_CAP:
        raise ScaleGuardError(f"brute force capped at target {BRUTEFORCE_TARGET_CAP}, got {N}")
    mod = M.modulus
    p = spec.p
    limit = N if spec.upper_bound is None else min(N, spec.upper_bound - 1)
    memo: dict[tuple[int, int], int] = {}

    def walk(parts_left: int, remaining: int) -> int:
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        key = (parts_left, remaining)
        if key not in memo:
            acc = 0
            for l in range(1, min(limit, remaining - parts_left + 1) + 1):
                if l % p:
                    acc += pow(l, -1, mod) * walk(parts_left - 1, remaining - l)
            memo[key] = acc % mod
        return memo[key]

    return walk(spec.n, N)


def count_solutions_exact(a: int, m: int, n: int, p: int) -> int:
    """Number of integer solutions of x_1 + ... + x_n = m*p - a, 0 <= x_i < p.

    Inclusion-exclusion over how many coordinates overflow p, with exact
    integer binomials.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    target = m * p - a
    if target < 0:
        return 0
    total = 0
    for i in range(min(n, target // p) + 1):
        total += (-1) ** i * comb(n, i) * comb(n + target - i * p - 1, n - 1)
    return total


def gamma_n(a: int, n: int) -> Fraction:
    """(-1)**(a-1) / (a * C(n-1, a)), for 1 <= a <= n-1."""
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must be in 1..{n - 1}, got {a}")
    return Fraction((-1) ** (a - 1), a * comb(n - 1, a))
