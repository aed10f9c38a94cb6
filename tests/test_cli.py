import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from supercong import cli, compsum, verifier
from supercong.cli import SEARCH_FAMILIES, _parse_instance, _parse_int_range, _parse_primes, main
from supercong.ratrecon import HUNT_FAMILIES
from supercong.reports import row_values
from supercong.verifier import CLAIMS, Claim, ClaimReport, instance_from_params


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# The exit code, stdout and stderr of each help and usage request, as the CLI
# wrote them at commit c346a04 on Python 3.11, its terminal 80 columns wide
HELP_TEXTS = json.loads((Path(__file__).parent / "data" / "help_texts.json").read_text())


@pytest.mark.parametrize("case", HELP_TEXTS, ids=lambda case: " ".join(case["argv"]) or "no-arguments")
def test_help_and_usage_texts(capsys, monkeypatch, case):
    # the parser gives arguments only to the command argv names; its texts are those
    # of a parser with every command's arguments, and on Python 3.11 those captured
    monkeypatch.setenv("COLUMNS", "80")
    texts = run(capsys, case["argv"])
    with pytest.raises(SystemExit) as exit_:
        cli.build_parser([]).parse_args(case["argv"])
    assert texts == (exit_.value.code or 0, *capsys.readouterr())
    if sys.version_info[:2] == (3, 11):
        assert texts == (case["code"], case["stdout"], case["stderr"])


class TestParsing:
    def test_ranges(self):
        assert _parse_int_range("1..4") == (1, 2, 3, 4)
        assert _parse_int_range("2,5,9") == (2, 5, 9)

    def test_primes_filtered(self):
        assert _parse_primes("8..14") == (11, 13)
        assert _parse_primes("4,5,6,7") == (5, 7)

    def test_instance(self):
        assert _parse_instance("p=11,r=2,m=1") == {"p": 11, "r": 2, "m": 1}
        assert _parse_instance("p=11,alphas=2,b=1") == {"p": 11, "alphas": (2,), "b": 1}
        assert _parse_instance("p=11,alphas=1+1+2") == {"p": 11, "alphas": (1, 1, 2)}
        with pytest.raises(ValueError):
            _parse_instance("p=")
        # a repeated name used to overwrite the first value without a word
        for text in ("p=11,p=13", "p=11,alphas=1,alphas=1+2", "p=11, p=11"):
            with pytest.raises(ValueError, match="given twice"):
                _parse_instance(text)


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--claims", "EQ-1.1", "--primes", "5..13"])
        assert rc == 0
        assert "## EQ-1.1" in out  # md to stdout by default

    def test_unknown_claim_exit_two(self, capsys):
        rc, _, err = run(capsys, ["verify", "--claims", "NOPE"])
        assert rc == 2 and "unknown claim id" in err

    def test_usage_error_exit_two(self, capsys):
        assert run(capsys, ["verify", "--format", "yaml"])[0] == 2
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_injected_false_claim_exit_one(self, capsys, monkeypatch):
        def false(inst):
            yield []
            return 0, 1, inst.p, ""

        claim = Claim("TEST-FALSE", "0 == 1 (mod p)", (("p", (5,)),), (), false)
        monkeypatch.setitem(CLAIMS, "TEST-FALSE", claim)
        rc, out, _ = run(capsys, ["verify", "--claims", "TEST-FALSE", "--format", "csv"])
        assert rc == 1
        assert ",fail," in out

    def test_injected_error_claim_exit_two(self, capsys, monkeypatch):
        def broken(inst):
            raise ValueError("boom")

        claim = Claim("TEST-ERR", "n/a", (("p", (5,)),), (), broken)
        monkeypatch.setitem(CLAIMS, "TEST-ERR", claim)
        assert run(capsys, ["verify", "--claims", "TEST-ERR"])[0] == 2

    @pytest.mark.parametrize("flag, text", [("--primes", "11..5"), ("--primes", "4"),
                                            ("--r", "3..2"), ("--m", "5..1"),
                                            ("--claims", ""), ("--claims", ","), ("--claims", " , ")])
    def test_grid_flag_selecting_nothing_exits_two_before_the_cache(self, capsys, tmp_path, flag, text):
        # an empty grid would print an empty report and "pass" having checked nothing
        cache = tmp_path / "cache.csv"
        cache.write_text("not,a,cache\n")  # reading it would fail with another message
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1,THM-1.1-ii", flag, text,
                                    "--cache", str(cache)])
        assert (rc, out) == (2, "")
        assert err == f"{flag} {text!r} selects no value\n"

    @pytest.mark.parametrize("flag, text, token", [
        ("--primes", "11..a", "a"), ("--r", "x", "x"), ("--m", "1..b", "b"),
        ("--instance", "p=eleven", "eleven"), ("--instance", "p=11,alphas=1+x", "x"),
        ("--s", "1,x", "x"), ("--alphas", "1+1+y", "y"),
    ])
    def test_a_non_integer_names_its_flag_and_exits_two_before_the_cache(self, capsys, tmp_path, flag, text, token):
        # these used to print int()'s own message, naming neither the flag nor its text
        cache = tmp_path / "cache.csv"
        cache.write_text("not,a,cache\n")  # reading it would fail with another message
        compute = {"--s": ["compute", "mhs", "--N", "5", "--p", "11"],
                   "--alphas": ["compute", "u", "--b", "1", "--p", "11"]}
        argv = compute.get(flag, ["verify", "--claims", "EQ-1.1", "--cache", str(cache)])
        rc, out, err = run(capsys, [*argv, flag, text])
        assert (rc, out) == (2, "")
        assert err == f"error: ValueError: {flag} {text!r}: {token!r} is not an integer\n"

    @pytest.mark.parametrize("argv, flag, text, width", [
        (["verify", "--claims", "EQ-1.1", "--primes"], "--primes", "5..1000000000000", 999999999996),
        (["verify", "--claims", "THM-1.1-ii", "--r"], "--r", "1..1000001", 1000001),
        (["verify", "--claims", "THM-1.1-i", "--m"], "--m", "0..1000000", 1000001),
        (["search", "--family", "qd", "--d", "9", "--primes"], "--primes", "11..100000000", 99999990),
    ])
    def test_a_too_wide_range_exits_two_before_it_is_built(self, capsys, tmp_path, argv, flag, text, width):
        # a 10**12-wide tuple used to be built, and died of MemoryError
        cache = tmp_path / "cache.csv"
        cache.write_text("not,a,cache\n")  # reading it would fail with another message
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, [*argv, text, *(["--cache", str(cache)] if argv[0] == "verify" else [])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err == f"error: ValueError: {flag} {text!r} spans {width} integers, more than 1000000\n"
        assert peak < 2**20

    def test_range_width_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_RANGE", 10)
        assert _parse_int_range("1..10", "--r") == tuple(range(1, 11))
        assert _parse_int_range(",".join(map(str, range(20))), "--r") == tuple(range(20))  # lists are not ranges
        with pytest.raises(ValueError, match=r"--r '1\.\.11' spans 11 integers, more than 10"):
            _parse_int_range("1..11", "--r")

    def test_conjecture_finding_does_not_fail_exit(self, capsys):
        rc, out, _ = run(
            capsys,
            ["verify", "--claims", "CONJ-5.1-w10", "--primes", "11..11", "--m", "1",
             "--format", "csv"],
        )
        assert rc == 0
        assert ",finding," in out

    def test_skip_only_run_exits_zero(self, capsys):
        rc, out, _ = run(
            capsys,
            ["verify", "--claims", "THM-1.1-ii", "--primes", "11..11", "--r", "1..1",
             "--m", "1", "--format", "csv"],
        )
        assert rc == 0 and ",skip," in out

    def test_instance_mode_and_replay_round_trip(self, capsys):
        rc, out, _ = run(
            capsys,
            ["verify", "--claims", "LEM-3.1", "--instance", "p=11,n=3,alphas=1+1+1,b=1",
             "--format", "json"],
        )
        assert rc == 0
        rows = json.loads(out)["reports"]
        assert len(rows) == 1 and rows[0]["status"] == "pass"
        rc2, out2, _ = run(capsys, rows[0]["replay"].split()[1:])
        assert rc2 == 0
        assert json.loads(out2)["reports"] == rows

    def test_every_catalog_row_replays_to_its_instance(self):
        count = 0
        for claim in CLAIMS.values():
            for inst in claim.grid():
                argv = row_values(ClaimReport(inst, "pass"))[-1].split()
                assert argv[argv.index("--claims") + 1] == inst.claim_id
                params = _parse_instance(argv[argv.index("--instance") + 1])
                assert instance_from_params(inst.claim_id, params) == inst
                count += 1
        assert count == 1935

    @pytest.mark.parametrize("instances, statuses", [
        (["p=11,r=2,m=1+2", "p=11,r=2,m=1"], ["pass", "error"]),  # an int and a tuple m in one batch
        (["p=11+13,r=2,m=1"], ["error"]),  # a tuple p
        (["p=11,r=2,m=1,n=1+2,zzz=3"], ["error"]),  # names the claim does not take
    ])
    def test_malformed_instance_is_an_error_row(self, capsys, instances, statuses):
        argv = ["verify", "--claims", "THM-1.1-ii", "--format", "json"]
        for text in instances:
            argv += ["--instance", text]
        rc, out, _ = run(capsys, argv)
        rows = json.loads(out)["reports"]
        assert rc == 2
        assert [row["status"] for row in rows] == statuses
        assert all(row["note"].startswith("bad parameters: ") for row in rows if row["status"] == "error")

    def test_instance_name_given_twice_exits_two_before_the_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.csv"
        cache.write_text("not,a,cache\n")  # reading it would fail with another message
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1", "--instance", "p=11",
                                    "--instance", "p=11,p=13", "--cache", str(cache)])
        assert (rc, out) == (2, "")
        assert err == "error: ValueError: instance parameter 'p' given twice in 'p=11,p=13'\n"

    @pytest.mark.parametrize("text, pair", [("p=11,=5", "=5"), ("p=11, =5", " =5")])
    def test_empty_instance_name_exits_two_before_the_cache(self, capsys, tmp_path, text, pair):
        # the name used to reach the claim as '', giving a note ending in a bare "does not take "
        cache = tmp_path / "cache.csv"
        cache.write_text("not,a,cache\n")  # reading it would fail with another message
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1", "--instance", text,
                                    "--cache", str(cache)])
        assert (rc, out) == (2, "")
        assert err == f"error: ValueError: malformed instance parameter {pair!r}\n"

    def test_deterministic_output_files(self, capsys, tmp_path):
        argv = ["verify", "--claims", "EQ-1.1,LEM-3.3,LEM-3.4", "--primes", "11..13",
                "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, argv + ["--out", str(a)])[0] == 0
        assert run(capsys, argv + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cache_second_run_evaluates_nothing(self, capsys, tmp_path):
        cache = tmp_path / "cache.csv"
        argv = ["verify", "--claims", "EQ-1.1", "--primes", "5..31",
                "--cache", str(cache), "--stats", "--format", "csv"]
        rc, out1, err1 = run(capsys, argv)
        assert rc == 0 and "comp_sum evaluations: 9 " in err1  # nine primes in 5..31
        rc, out2, err2 = run(capsys, argv)
        assert rc == 0 and "comp_sum evaluations: 0 " in err2
        assert out1 == out2

    def test_cache_env_var_default(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env_cache.csv"
        monkeypatch.setenv("SUPERCONG_CACHE", str(cache))
        run(capsys, ["verify", "--claims", "EQ-1.1", "--primes", "5..7"])
        assert cache.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("points", [["--primes", "11..13"], ["--instance", "p=11", "--instance", "p=13"]])
    def test_new_rows_are_kept_only_for_a_cache(self, capsys, tmp_path, monkeypatch, points, jobs):
        made = []
        monkeypatch.setattr(cli, "EvalContext", lambda **kwargs: made.append(verifier.EvalContext(**kwargs)) or made[-1])
        argv = ["verify", "--claims", "EQ-1.1,THM-1.1-i", *points, "--stats", "--format", "json", "--jobs", jobs]
        cache = tmp_path / "cache.csv"
        bare, cached = run(capsys, argv), run(capsys, argv + ["--cache", str(cache)])
        assert bare == cached and bare[0] == 0 and "comp_sum evaluations: 0 " not in bare[2]
        assert made[0].new_rows == {} and made[1].new_rows
        assert len(cache.read_text().splitlines()) == 1 + len(made[1].new_rows)

    def test_parallel_jobs_count_evaluations(self, capsys):
        argv = ["verify", "--claims", "EQ-1.1", "--primes", "11..31", "--stats"]
        for jobs in ("1", "2"):
            rc, _, err = run(capsys, argv + ["--jobs", jobs])
            assert rc == 0 and "comp_sum evaluations: 7 (cache hits: 0)" in err, jobs

    def test_out_of_range_cache_row_exits_two(self, capsys, tmp_path):
        cache = tmp_path / "cache.csv"
        cache.write_text("quantity,p,r,params,residue\ncomp_sum,11,1,kind=R;n=3;m=1;e=1,999\n")
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1", "--primes", "11",
                                    "--cache", str(cache)])
        assert rc == 2 and out == ""
        assert "'kind=R;n=3;m=1;e=1', '999']" in err and "line 2" in err

    def test_torn_cache_tail_is_skipped_and_mended(self, capsys, tmp_path):
        cache = tmp_path / "cache.csv"
        argv = ["verify", "--claims", "EQ-1.1", "--cache", str(cache), "--stats", "--format", "csv"]
        run(capsys, argv + ["--primes", "11..13"])
        with cache.open("a") as fh:
            fh.write("comp_sum,17,1,kind=R;n=3;m=1;e=1,")
        rc, _, err = run(capsys, argv + ["--primes", "11..17"])
        assert rc == 0 and "torn final row" in err
        assert "comp_sum evaluations: 1 (cache hits: 2)" in err
        rc, _, err = run(capsys, argv + ["--primes", "11..17"])
        assert rc == 0 and err == "comp_sum evaluations: 0 (cache hits: 3)\n"
        # the header, and a composition sum and a Bernoulli residue at each prime
        assert len(cache.read_text().splitlines()) == 7

    def test_a_failed_exact_division_is_refused(self, capsys, tmp_path, monkeypatch):
        # a wrong product of the units below 2p breaks the unit route's exact
        # division by p**n: the run stops with PrecisionError, prints no report
        # and writes no row
        cache = tmp_path / "cache.csv"
        run(capsys, ["verify", "--claims", "EQ-1.1", "--primes", "11", "--cache", str(cache)])
        before = cache.read_bytes()
        assert b"comp_sum,11," in before
        units = compsum._unit_factorials

        def doubled_at_two_p(p, K, residues, mod):
            return {x: 2 * u % mod if x == 2 * p else u for x, u in units(p, K, residues, mod).items()}

        monkeypatch.setattr(compsum, "_unit_factorials", doubled_at_two_p)
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1", "--format", "json", "--cache", str(cache)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: PrecisionError")
        assert cache.read_bytes() == before

    def test_parallel_jobs_match_sequential(self, capsys, tmp_path):
        base = ["verify", "--claims", "EQ-1.1,LEM-3.5", "--primes", "11..19",
                "--format", "csv"]
        a, b = tmp_path / "seq.csv", tmp_path / "par.csv"
        run(capsys, base + ["--out", str(a)])
        run(capsys, base + ["--out", str(b), "--jobs", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_jobs_shard_by_prime(self, capsys):
        # one task per prime: the counters and the report equal --jobs 1's
        argv = ["verify", "--claims", "LEM-2.3-i,EQ-4.1", "--primes", "11..13", "--stats",
                "--format", "json"]
        seq, par = run(capsys, argv + ["--jobs", "1"]), run(capsys, argv + ["--jobs", "2"])
        assert seq[2] == "comp_sum evaluations: 144 (cache hits: 0)\n"
        assert par == seq

    def test_instance_mode_honours_jobs(self, capsys):
        argv = ["verify", "--claims", "LEM-3.3,LEM-3.5", "--instance", "p=13,n=5",
                "--instance", "p=11,n=3", "--instance", "p=9,n=3", "--stats", "--format", "csv"]
        seq, par = run(capsys, argv + ["--jobs", "1"]), run(capsys, argv + ["--jobs", "2"])
        assert seq[0] == 0 and seq[1].count(",pass,") == 4 and seq[1].count(",skip,") == 2
        assert par == seq

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1", "--primes", "11", "--jobs", jobs])
        assert rc == 2 and out == ""
        assert "--jobs" in err and jobs in err


class TestCatalogPin:
    """`verify --claims ALL` at the default grids, pinned by digest.

    The digests were recorded from the hand-written claim functions that the
    catalog table replaced; any change to a row's grid, hypotheses, anchor or
    evaluator shows here.
    """

    DIGESTS = {
        "json": "f55ae9971509ddb59b0e1ee200ef4eb998ce0fe024f0b37201a6c6f1fb0723ff",
        "csv": "782ecce414c9137ceda91a36e1c930af0245a0c376acb190504a7c44f5dbfac1",
        "md": "a36f7a5f0918563e5b079a2a28845a335eb8555236938e230af07d2a2828f0e7",
    }
    # the cache file's header and comp_sum rows, re-recorded when the cross-checked sides
    # moved to their e = r + 1 keys, and the whole file, which holds the Bernoulli,
    # unordered-sum and chain-sweep rows too
    CACHE_DIGEST = "1f56603cf6d01fcc8cfa5c863a237d12841f5043ff598bf21a2dbd7d7428caba"
    FULL_CACHE_DIGEST = "384d0859362296848a09c39f35c0b4b3163e3adca9343868b0aba36b7230422a"
    STATUS_COUNTS = {
        "EQ-1.1": {"pass": 23},
        "THM-1.1-i": {"pass": 33},
        "THM-1.1-ii": {"pass": 8},
        "EQ-1.3": {"pass": 1},
        "LEM-2.1": {"pass": 609},
        "COR-2.2": {"pass": 18},
        "LEM-2.3-i": {"pass": 108},
        "LEM-2.3-ii": {"pass": 12},
        "LEM-3.1": {"pass": 154},
        "COR-3.2": {"pass": 140},
        "LEM-3.3": {"pass": 56},
        "LEM-3.4": {"pass": 462},
        "LEM-3.5": {"pass": 28},
        "COR-3.6": {"pass": 21},
        "LEM-3.7": {"pass": 28},
        "COR-3.8": {"pass": 28},
        "PROP-4.1": {"pass": 4},
        "EQ-4.1": {"pass": 6},
        "EQ-5.1": {"pass": 56},
        "EQ-5.2": {"pass": 56},
        "CONJ-5.1-w8": {"pass": 28},
        "CONJ-5.1-w9": {"pass": 28},
        "CONJ-5.1-w10": {"pass": 7, "finding": 21},
    }

    def test_default_catalog_bytes_and_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.csv"
        for fmt, digest in self.DIGESTS.items():
            out = tmp_path / f"all.{fmt}"
            argv = ["verify", "--claims", "ALL", "--format", fmt, "--out", str(out),
                    "--cache", str(cache)]
            assert run(capsys, argv)[0] == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, fmt
        lines = cache.read_bytes().splitlines(keepends=True)
        comp_sum_rows = b"".join(line for line in lines if not line.startswith((b"bernoulli,", b"mhs,", b"unordered,")))
        assert hashlib.sha256(comp_sum_rows).hexdigest() == self.CACHE_DIGEST
        assert hashlib.sha256(b"".join(lines)).hexdigest() == self.FULL_CACHE_DIGEST and len(lines) == 1065
        counts: dict = {}
        for row in json.loads((tmp_path / "all.json").read_text())["reports"]:
            by_status = counts.setdefault(row["claim_id"], {})
            by_status[row["status"]] = by_status.get(row["status"], 0) + 1
        assert counts == self.STATUS_COUNTS
        assert sum(sum(c.values()) for c in counts.values()) == 1935
        assert sum(c.get("pass", 0) for c in counts.values()) == 1914

    def test_overridden_catalog_bytes(self, capsys, tmp_path):
        # acceptance criterion 11's run: --primes/--r/--m replace only the
        # dimensions a row names
        out = tmp_path / "run.json"
        argv = ["verify", "--claims", "ALL", "--primes", "11..13", "--r", "1..2", "--m", "1",
                "--format", "json", "--out", str(out)]
        assert run(capsys, argv)[0] == 0
        digest = "d412d51a93025521d3c96f06c09a7af3c534d71bb919457a6fd0108da1ce14ab"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTermCache:
    """Bernoulli residues, unordered sums and chain sweeps are cache rows too."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of each call the verifier makes to the three evaluators, by name."""
        calls: dict = {"bernoulli_mod_p": [], "unordered_sum": [], "mhs": []}
        for name, made in calls.items():
            real = getattr(verifier, name)
            monkeypatch.setattr(verifier, name, lambda *args, real=real, made=made: made.append(args) or real(*args))
        return calls

    def test_a_warm_catalog_computes_no_term(self, capsys, tmp_path, calls):
        cache = tmp_path / "cache.csv"
        argv = ["verify", "--claims", "ALL", "--format", "json", "--cache", str(cache), "--out"]
        assert run(capsys, argv + [str(tmp_path / "cold.json")])[0] == 0
        # a cold sweep computes each distinct (k, p), (b, alphas, p) and (s, p, e) once
        distinct = {"bernoulli_mod_p": {(k, p) for k, p in calls["bernoulli_mod_p"]},
                    "unordered_sum": {(b, alphas, M.p) for b, alphas, M, _ in calls["unordered_sum"]},
                    "mhs": {(s, M.p, M.r) for _, s, M in calls["mhs"]}}
        assert {name: len(made) for name, made in calls.items()} == {name: len(d) for name, d in distinct.items()}
        assert {name: len(d) for name, d in distinct.items()} == {"bernoulli_mod_p": 48, "unordered_sum": 462, "mhs": 140}
        cold = cache.read_bytes()
        assert len(cold.splitlines()) == 1 + 414 + 48 + 462 + 140
        for name in calls:
            calls[name].clear()
        for jobs in ("1", "2"):
            out = tmp_path / f"warm{jobs}.json"
            rc, _, err = run(capsys, argv + [str(out), "--jobs", jobs, "--stats"])
            assert rc == 0 and err == "comp_sum evaluations: 0 (cache hits: 414)\n"
            assert out.read_bytes() == (tmp_path / "cold.json").read_bytes() and cache.read_bytes() == cold
            if jobs == "1":  # the pool's workers call the evaluators in their own processes
                assert calls == {"bernoulli_mod_p": [], "unordered_sum": [], "mhs": []}

    def test_a_cache_of_composition_sums_alone_is_served_and_extended(self, capsys, tmp_path):
        # a file as written before the other quantities became rows: its rows are
        # read, and the Bernoulli, unordered and chain rows are computed and appended
        cache = tmp_path / "cache.csv"
        argv = ["verify", "--claims", "EQ-1.1,LEM-3.4,COR-3.2,LEM-3.3", "--primes", "11..13", "--format", "csv",
                "--cache", str(cache), "--stats"]
        rc, report, _ = run(capsys, argv)
        full = cache.read_bytes()
        kinds = sorted({line.split(b",")[0] for line in full.splitlines()[1:]})
        assert rc == 0 and kinds == [b"bernoulli", b"comp_sum", b"mhs", b"unordered"]
        comp_sums = b"".join(line for line in full.splitlines(keepends=True) if not line.startswith(
            (b"bernoulli,", b"mhs,", b"unordered,")))
        cache.write_bytes(comp_sums)
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (0, report) and err == f"comp_sum evaluations: 0 (cache hits: {comp_sums.count(b'comp_sum,')})\n"
        appended = cache.read_bytes()
        assert appended.startswith(comp_sums) and sorted(appended.splitlines()) == sorted(full.splitlines())
        assert run(capsys, argv)[1] == report and cache.read_bytes() == appended

    @pytest.mark.parametrize("row", ["bernoulli,11,1,k=8,11", "unordered,11,3,b=1;alphas=1+2,1331",
                                     "mhs,11,2,N=10;s=1+1,121"])
    def test_an_out_of_range_term_row_exits_two(self, capsys, tmp_path, row):
        cache = tmp_path / "cache.csv"
        cache.write_text(f"quantity,p,r,params,residue\n{row}\n")
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1", "--primes", "11", "--cache", str(cache)])
        assert (rc, out) == (2, "")
        assert f"cache row {row.split(',')!r} at line 2 of " in err and "is not canonical mod 11**" in err


class TestComputeCommand:
    def test_bernoulli(self, capsys):
        assert run(capsys, ["compute", "bernoulli", "--k", "4"])[1].strip() == "-1/30"
        assert run(capsys, ["compute", "bernoulli", "--k", "4", "--mod-p", "11"])[1].strip() == "4"

    def test_bernoulli_pole_is_error(self, capsys):
        rc, _, err = run(capsys, ["compute", "bernoulli", "--k", "10", "--mod-p", "11"])
        assert rc == 2 and "PoleError" in err

    def test_mhs(self, capsys):
        rc, out, _ = run(capsys, ["compute", "mhs", "--N", "4", "--s", "1", "--p", "101", "--r", "1"])
        assert rc == 0 and out.strip() == "61"
        rc, out, _ = run(
            capsys,
            ["compute", "mhs", "--N", "9", "--s", "1", "--p", "5", "--r", "1", "--restricted"],
        )
        assert rc == 0

    def test_s_and_r(self, capsys):
        rc, out, _ = run(capsys, ["compute", "s", "--n", "7", "--m", "1", "--p", "11", "--r", "2"])
        assert rc == 0 and out.strip().isdigit()
        rc, out, _ = run(capsys, ["compute", "r", "--n", "7", "--m", "2", "--p", "11"])
        assert rc == 0

    def test_count(self, capsys):
        rc, out, _ = run(capsys, ["compute", "count", "--n", "3", "--a", "1", "--m", "1", "--p", "5"])
        assert rc == 0 and out.strip() == "15"

    def test_u(self, capsys):
        rc, out, _ = run(capsys, ["compute", "u", "--b", "1", "--alphas", "1,1", "--p", "7", "--r", "2"])
        assert rc == 0 and out.strip() == "35"


class TestSearchCommand:
    def test_q3_text(self, capsys):
        rc, out, _ = run(capsys, ["search", "--family", "qd", "--d", "3", "--primes", "7..31"])
        assert rc == 0
        assert "status: found" in out and "candidate: -2" in out

    def test_q9_json_with_report(self, capsys):
        rc, out, _ = run(
            capsys,
            ["search", "--family", "qd", "--d", "9", "--primes", "11..31", "--format",
             "json", "--report"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "not-found-up-to-bound"
        assert doc["bound"] > 0 and len(doc["observations"]) > 0

    def test_qd_with_a_multiplier_exits_two(self, capsys):
        # qd never reads m; the report used to print m=2 over m=1's values
        rc, out, err = run(capsys, ["search", "--family", "qd", "--d", "3", "--m", "2", "--primes", "7..31"])
        assert (rc, out) == (2, "")
        assert "ValueError" in err and "m=2" in err

    def test_c_family(self, capsys):
        rc, out, _ = run(
            capsys,
            ["search", "--family", "c", "--d", "7", "--m", "2", "--primes", "11..31"],
        )
        assert rc == 0 and "candidate: 3" in out

    def test_family_choices_are_the_hunt_families(self):
        assert SEARCH_FAMILIES == tuple(sorted(HUNT_FAMILIES))

    def test_importing_the_cli_does_not_import_the_hunt(self):
        # ratrecon is imported by `search` and by the package's lazy names only
        code = ("import sys, supercong, supercong.cli; print('supercong.ratrecon' in sys.modules); "
                "print(supercong.hunt_constant.__module__, supercong.ReconstructionResult.__module__)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "supercong.ratrecon", "supercong.ratrecon"]

    def test_importing_the_cli_does_not_import_dataclasses(self):
        # the package's value types are named tuples and slotted classes, the hunt's
        # too; dataclasses would also pull in inspect, ast, dis and tokenize
        code = "import sys, supercong.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
        code = ("import sys, supercong.cli; rc = supercong.cli.main(['search', '--family', 'qd', '--d', '5', "
                "'--primes', '7..31', '--format', 'json', '--report']); "
                "print(rc, sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stderr.strip() == "0 []" and json.loads(out.stdout)["observations"]

    def test_a_verify_run_without_a_cache_imports_neither_the_cache_nor_csv(self):
        # the cache module is imported for a cache file, csv for a csv report
        code = ("import sys, supercong.cli; rc = supercong.cli.main(['verify', '--claims', 'EQ-1.1', "
                "'--primes', '11', '--format', 'json']); "
                "print(rc, sorted({'supercong.cache', 'csv'} & set(sys.modules)), file=sys.stderr)")
        env = {k: v for k, v in os.environ.items() if k != cli.ENV_VAR}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stderr.strip() == "0 []" and json.loads(out.stdout)["reports"]

    def test_the_catalog_does_not_import_fractions(self):
        # every right-hand side is assembled from an integer numerator and
        # denominator; fractions serves only bernoulli_exact and ratrecon
        code = ("import sys, supercong.cli; before = 'fractions' in sys.modules; "
                "from supercong.verifier import CLAIMS, sweep; sweep(list(CLAIMS)); "
                "print(before, 'fractions' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]


def _oracle(capsys, *argv):
    """The exit code and the ladder and Kronecker values of one `oracle` run."""
    rc, out, err = run(capsys, ["oracle", *argv])
    lines = out.splitlines()
    verdict = "agree" if rc == 0 else "DISAGREE"
    assert [line.split(":")[0] for line in lines[:2]] == ["ladder", "kronecker"] and lines[2:] == [verdict], out
    return rc, int(lines[0].split()[1]), int(lines[1].split()[1])


class TestOracleCommand:
    def test_agreement(self, capsys):
        # target 61 is past the test brute force's cap of 60
        for argv in (["--n", "3", "--m", "1", "--p", "5"], ["--n", "7", "--m", "1", "--p", "61"]):
            rc, ladder, kronecker = _oracle(capsys, *argv)
            assert rc == 0 and ladder == kronecker, argv
        assert ladder == compsum.comp_sum(compsum.r_spec(7, 1, 61))

    @pytest.mark.parametrize("argv", [
        # the unit route at e = 1, and the reduced route at e = 3, of both families
        ["--p", "1009"], ["--p", "1009", "--bounded"],
        ["--p", "11", "--r", "3"], ["--p", "11", "--r", "3", "--bounded"],
        # R(7,3,11**4) mod 11**4: a 2.1 Mbit Kronecker operand, about 2 s
        ["--p", "11", "--r", "4"],
    ], ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv))
    def test_agreement_at_production_sizes(self, capsys, argv):
        rc, ladder, kronecker = _oracle(capsys, "--n", "7", "--m", "3", *argv)
        assert rc == 0 and ladder == kronecker

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        right = cli.comp_sum
        monkeypatch.setattr(cli, "comp_sum", lambda spec, M: (right(spec, M) + 1) % M.modulus)
        rc, ladder, kronecker = _oracle(capsys, "--n", "7", "--m", "1", "--p", "61")
        assert rc == 1 and ladder == (kronecker + 1) % 61

    def test_bounded_and_target(self, capsys):
        rc, out, _ = run(capsys, ["oracle", "--n", "7", "--m", "2", "--p", "5", "--bounded"])
        assert rc == 0
        rc, out, _ = run(capsys, ["oracle", "--n", "2", "--m", "1", "--p", "3", "--target", "4"])
        assert rc == 0

    def test_a_ladder_too_large_to_finish_is_refused(self, capsys, builds, tmp_path):
        # EQ-1.3 at p = 11, r = 7 would climb its lower sum to 11**7: refused when the prime is planned
        start = time.perf_counter()
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.3", "--instance", "p=11,r=7",
                                    "--cache", str(tmp_path / "cache.csv")])
        assert rc == 2 and "ScaleGuardError" in err and "target 19487171" in err and out == ""
        assert builds == [] and time.perf_counter() - start < 1
        assert not (tmp_path / "cache.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--claims", "EQ-5.1", "--instance", "p=100003,n=4001,m=1"],
        ["verify", "--claims", "THM-1.1-ii", "--instance", "p=11,r=2000,m=1"],
        ["verify", "--claims", "THM-1.1-ii", "--instance", "p=11,r=5000,m=1"],
        ["verify", "--claims", "LEM-2.3-ii", "--instance", "p=100003,r=1,n=5000,m=1"],
        ["compute", "count", "--n", "10000", "--a", "1", "--m", "10000", "--p", "11"],
        ["compute", "s", "--n", "3000", "--m", "2999", "--p", "11"],
    ])
    def test_a_large_value_is_refused_before_its_work(self, capsys, builds, argv):
        # a unit pass priced by the units it multiplies, the digit and period weights (a
        # bounded request's over all its shifts at once) and a solution count, each before
        # it is built; a target past 4,300 digits is named by its digit count
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == "" and "ScaleGuardError" in err and "ValueError" not in err
        assert builds == [] and time.perf_counter() - start < 1

    def test_a_count_too_large_to_finish_is_an_error_row(self, capsys):
        start = time.perf_counter()
        rc, out, _ = run(capsys, ["verify", "--claims", "LEM-2.1", "--instance", "p=10007,n=10000,m=9999,a=1",
                                  "--format", "csv"])
        (row,) = out.splitlines()[1:]
        assert rc == 2 and ",error,ScaleGuardError: the solution count of 10000 coordinates below 10007 " in row
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("claim,instance,table", [
        ("COR-3.2", "p=1000000007,n=1,alpha=1", "the chain sweep of depth 1 to N = 1000000006 at p = 1000000007"),
        ("LEM-3.1", "p=1000000007,alphas=1+1", "the unordered-sum table of U_1 at p = 1000000007 to weight 2"),
        ("LEM-3.4", "p=1000000007,b=2,alphas=2", "the unordered-sum table of U_2 at p = 1000000007 to weight 2"),
    ])
    def test_a_table_too_large_to_finish_is_an_error_row(self, capsys, claim, instance, table):
        # priced before it is built: a ValueError inside the claim, so an error row, and exit 2
        start = time.perf_counter()
        rc, out, _ = run(capsys, ["verify", "--claims", claim, "--instance", instance, "--format", "csv"])
        (row,) = out.splitlines()[1:]
        assert rc == 2 and f",error,ScaleGuardError: {table} is priced " in row
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv", [
        ["compute", "bernoulli", "--k", "4", "--mod-p", "1000000007"],
        ["search", "--family", "qd", "--d", "9", "--primes", "11,13,17,1000000007"],
    ])
    def test_a_bernoulli_power_sum_too_large_to_finish_exits_two(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == "" and "ScaleGuardError: the power sum of B_" in err
        assert time.perf_counter() - start < 1

    def test_scale_guard_is_cli_error(self, capsys, builds):
        # R(7,3,11**5) mod 11**5 would pack 27 Mbit: refused before any ladder is climbed
        start = time.perf_counter()
        rc, out, err = run(capsys, ["oracle", "--n", "7", "--m", "3", "--p", "11", "--r", "5"])
        assert rc == 2 and "ScaleGuardError" in err and out == ""
        assert builds == [] and time.perf_counter() - start < 1
