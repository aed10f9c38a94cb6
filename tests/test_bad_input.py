"""Property tests for bad input at the CLI: generated --instance strings,
generated cache files and generated grids. A run either exits 2 before it
writes any report, or writes the rows that the same instances give through
verify with no cache; no row of a proven claim is a fail. Values are drawn
small (p <= 40, r <= 3, m <= 4, n <= 9), so that no instance runs long."""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from supercong import cli
from supercong.cache import ResidueCache
from supercong.reports import render
from supercong.modring import is_prime
from supercong.verifier import CLAIMS, EvalContext, instance_from_params, verify_instances

_BAD = object()  # a value the instance parser must refuse
_PRIMES = (5, 7, 9, 11, 13, 17, 19, 23, 29, 31)
_COMPS = ((1, 1), (2,), (2, 1), (3,), (2, 2), (3, 1, 1), (2, 2, 2, 1))
_COMP_SUM_CLAIMS = ("EQ-1.1", "THM-1.1-i", "THM-1.1-ii", "EQ-1.3", "LEM-2.3-i", "LEM-2.3-ii", "PROP-4.1", "EQ-4.1")


@st.composite
def _draws(draw) -> dict:
    """One value per parameter name, as _random_instance in test_verifier draws them."""
    p = draw(st.sampled_from(_PRIMES))
    return {"p": p, "r": draw(st.integers(1, 3 if p <= 13 else 2)), "m": draw(st.integers(1, 4)),
            "n": draw(st.integers(2, 9)), "a": draw(st.integers(1, 8)), "b": draw(st.integers(1, 3)),
            "alphas": draw(st.sampled_from(_COMPS)), "alpha": draw(st.integers(1, 4))}


def _text(value) -> str:
    return "+".join(map(str, value)) if isinstance(value, tuple) else str(value)


@st.composite
def _pair(draw, draws: dict) -> tuple[str, str, object]:
    """(name, the pair's text, its parsed value or _BAD): a drawn value, a + tuple,
    or a malformed one: empty, not an integer, a dangling +, or no '=' at all."""
    name = draw(st.sampled_from((*draws, "zzz", "")))
    kind = draw(st.sampled_from(("drawn", "tuple", "bad", "no-equals")))
    if kind == "no-equals":
        return name, name, _BAD
    if kind == "bad":
        return name, f"{name}={draw(st.sampled_from(('', 'x', '1.5', '1e3', '1+', '+2', '7+y')))}", _BAD
    value = draws.get(name, 1) if kind == "drawn" else tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    if name == "alphas" and isinstance(value, int):
        value = (value,)
    return name, f"{name}={_text(value)}", value if name else _BAD


def _params(pairs: list) -> dict | None:
    """What the instance text means, or None when the parser must refuse it:
    a malformed pair, or a name given twice. An empty pair is skipped."""
    params = {}
    for name, text, value in pairs:
        if not text:
            continue
        if value is _BAD or name in params:
            return None
        params[name] = value
    return params


def _run(argv: list[str], out: Path) -> tuple[int, str | None]:
    """cli.main's exit code, and the report it wrote (None if it wrote none)."""
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([*argv, "--format", "csv", "--out", str(out)])
    return rc, out.read_text() if out.exists() else None


def _expected(claim_ids: list[str], points: list[dict | None]) -> tuple[int, str | None]:
    """The exit code and rows of the same instances through verify with no cache."""
    if None in points:  # a point the parser refuses
        return 2, None
    try:
        instances = [instance_from_params(cid, point) for point in points for cid in claim_ids]
    except ValueError:  # a point without p
        return 2, None
    reports = verify_instances(instances, EvalContext())
    statuses = {rep.status for rep in reports}
    assert "fail" not in statuses, [rep for rep in reports if rep.status == "fail"]
    return 2 if "error" in statuses else 1 if "fail" in statuses else 0, render(reports, "csv")


@settings(max_examples=40)
@given(st.lists(st.sampled_from(sorted(CLAIMS)), min_size=1, max_size=2, unique=True), st.data())
def test_generated_instance_strings(claim_ids, data):
    texts, points = [], []
    for _ in range(data.draw(st.integers(1, 2))):
        draws = data.draw(_draws())
        # every name the claims take, less some, then up to two generated pairs
        names = sorted({name for cid in claim_ids for name, _ in CLAIMS[cid].dims})
        kept = data.draw(st.lists(st.sampled_from(names), unique=True).map(set)) if data.draw(st.booleans()) else names
        pairs = [(name, f"{name}={_text(draws[name])}", draws[name]) for name in names if name in kept]
        pairs += data.draw(st.lists(_pair(draws), max_size=2))
        texts.append(",".join(text for _, text, _ in pairs))
        points.append(_params(pairs))
    want = _expected(claim_ids, points)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", "--claims", ",".join(claim_ids), "--cache", f"{tmp}/cache.csv"]
        got = _run([*argv, *(arg for text in texts for arg in ("--instance", text))], Path(tmp, "out.csv"))
    assert got == want, texts


def _cache_rows(text: str, mutation: str, draw) -> bytes:
    """A cache file written by ResidueCache, then damaged by one mutation."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(1, len(lines) - 1))
    cells = lines[i].rstrip("\n").split(",")
    if mutation == "torn tail":
        body = text[:-1] if draw(st.booleans()) else text + lines[i][: draw(st.integers(1, len(lines[i]) - 1))]
        return body.encode()
    if mutation == "truncated header":
        return text[: draw(st.integers(1, len(lines[0]) - 2))].encode() + b"\n" + "".join(lines[1:]).encode()
    if mutation == "wrong header":
        lines[0] = draw(st.sampled_from(("quantity,p,r,params\n", "p,quantity,r,params,residue\n", "\n")))
    elif mutation == "extra column":
        lines[i] = ",".join([*cells, "0"]) + "\n"
    elif mutation == "missing column":
        lines[i] = ",".join(cells[:-1]) + "\n"
    elif mutation == "non-integer":
        cells[draw(st.sampled_from((1, 2, 4)))] = draw(st.sampled_from(("x", "1.5", "")))
        lines[i] = ",".join(cells) + "\n"
    elif mutation in ("negative residue", "residue too large"):
        # a composition sum's modulus exponent is its e= param, another quantity's its r
        fields = dict(item.partition("=")[::2] for item in cells[3].split(";"))
        p, e = int(cells[1]), int(fields.get("e", cells[2]))
        cells[4] = str(-draw(st.integers(1, p)) if mutation == "negative residue" else p**e + draw(st.integers(0, p)))
        lines[i] = ",".join(cells) + "\n"
    elif mutation == "non-utf-8":
        return "".join(lines[:i]).encode() + b"\xff\xfe" + "".join(lines[i:]).encode()
    elif mutation == "crlf":
        return "".join(lines).replace("\n", "\r\n").encode()
    return "".join(lines).encode()


@settings(max_examples=40)
@given(st.lists(st.sampled_from(_COMP_SUM_CLAIMS), min_size=1, max_size=2, unique=True), _draws(),
       st.sampled_from(("torn tail", "truncated header", "wrong header", "extra column", "missing column",
                        "non-integer", "negative residue", "residue too large", "non-utf-8", "crlf")), st.data())
def test_generated_cache_files(claim_ids, draws, mutation, data):
    names = {name for cid in claim_ids for name, _ in CLAIMS[cid].dims}
    point = {name: draws[name] for name in names}
    instances = [instance_from_params(cid, point) for cid in claim_ids]
    ctx = EvalContext()
    verify_instances(instances, ctx)
    assume(ctx.new_rows)  # some composition sum to cache: not every instance is skipped
    want = _expected(claim_ids, [point])
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp, "cache.csv")
        ResidueCache(cache).append(ctx.new_rows)
        cache.write_bytes(_cache_rows(cache.read_text(), mutation, data.draw))
        text = ",".join(f"{name}={_text(value)}" for name, value in point.items())
        got = _run(["verify", "--claims", ",".join(claim_ids), "--instance", text, "--cache", str(cache)],
                   Path(tmp, "out.csv"))
    # a torn tail is skipped and CRLF lines read as LF ones; every other damage is refused
    assert got == (want if mutation in ("torn tail", "crlf") else (2, None)), mutation


@st.composite
def _grid_text(draw, top: int) -> tuple[str, tuple[int, ...] | None]:
    """A --primes, --r or --m text and the integers it lists, or None when it is
    not a list of integers: a range, a reversed range (empty unless its ends
    meet), a comma list (maybe empty), or a malformed text."""
    lo, hi = sorted((draw(st.integers(-2, top)), draw(st.integers(-2, top))))
    kind = draw(st.sampled_from(("range", "reversed", "list", "bad")))
    if kind == "range":
        return f"{lo}..{hi}", tuple(range(lo, hi + 1))
    if kind == "reversed":
        return f"{hi}..{lo}", tuple(range(hi, lo + 1))
    if kind == "list":
        values = tuple(draw(st.lists(st.integers(-2, top), max_size=3)))
        return ",".join(map(str, values)), values
    return draw(st.sampled_from(("x", "1.5", "3..y", "..", "1e3", "2..3..4", "5,,x"))), None


_STATUSES = {"pass", "fail", "skip", "error", "finding"}


@settings(max_examples=40)
@given(st.lists(st.sampled_from(sorted(CLAIMS)), min_size=1, max_size=3, unique=True),
       *(st.none() | _grid_text(top) for top in (40, 2, 4)))
def test_generated_grids(claim_ids, primes, rs, ms):
    argv = ["verify", "--claims", ",".join(claim_ids)]
    refused = False
    for flag, drawn in (("--primes", primes), ("--r", rs), ("--m", ms)):
        if drawn is not None:
            text, values = drawn
            argv.append(f"{flag}={text}")  # one token, so that a leading '-' is not read as a flag
            selected = values if values is None or flag != "--primes" else [q for q in values if is_prime(q)]
            refused = refused or not selected
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        out = Path(tmp, "out.csv")
        rc = cli.main([*argv, "--cache", f"{tmp}/cache.csv", "--format", "csv", "--out", str(out)])
        rows = list(csv.DictReader(io.StringIO(out.read_text()))) if out.exists() else None
    assert "Traceback" not in err.getvalue(), argv
    if refused:
        assert (rc, rows) == (2, None), argv
        return
    assert rows is not None, (argv, err.getvalue())
    statuses = {row["status"] for row in rows}
    assert statuses <= _STATUSES and "fail" not in statuses, argv
    assert rc == (2 if "error" in statuses else 1 if "fail" in statuses else 0), argv
