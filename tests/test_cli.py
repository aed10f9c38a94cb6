import hashlib
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from supercong import cli, compsum
from supercong.cli import SEARCH_FAMILIES, _parse_instance, _parse_int_range, _parse_primes, main
from supercong.ratrecon import HUNT_FAMILIES
from supercong.reports import row_values
from supercong.verifier import CLAIMS, Claim, ClaimReport, instance_from_params


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
        claim = Claim(
            "TEST-FALSE", "0 == 1 (mod p)", (("p", (5,)),), (), lambda inst: (0, 1, inst.p, "")
        )
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
    ])
    def test_a_non_integer_names_its_flag_and_exits_two_before_the_cache(self, capsys, tmp_path, flag, text, token):
        # these used to print int()'s own message, naming neither the flag nor its text
        cache = tmp_path / "cache.csv"
        cache.write_text("not,a,cache\n")  # reading it would fail with another message
        rc, out, err = run(capsys, ["verify", "--claims", "EQ-1.1", flag, text, "--cache", str(cache)])
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
        assert len(cache.read_text().splitlines()) == 4

    def test_a_failed_exact_division_is_refused(self, capsys, tmp_path, monkeypatch):
        # a wrong inverse at one unit class breaks the climb's exact divisions:
        # the run stops with PrecisionError, prints no report and writes no row
        cache = tmp_path / "cache.csv"
        run(capsys, ["verify", "--claims", "EQ-1.1", "--primes", "11", "--cache", str(cache)])
        before = cache.read_bytes()
        assert b"comp_sum,11," in before
        build = compsum._Ladder.__init__

        def doubled_at_one_mod_p(self, *args):
            build(self, *args)
            for j in range(1, self.N + 1, self.p):
                self.inverses[j] = 2 * self.inverses[j] % self.mod

        monkeypatch.setattr(compsum._Ladder, "__init__", doubled_at_one_mod_p)
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
        assert seq[2] == "comp_sum evaluations: 120 (cache hits: 0)\n"
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
    CACHE_DIGEST = "5681c765e60069121aae680d7a477669308baa2933a4afb7aad655e93c3d3d77"
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
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == self.CACHE_DIGEST
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
        # the value types on the verify path are named tuples and slotted classes;
        # dataclasses would also pull in inspect, ast, dis and tokenize
        code = "import sys, supercong.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

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
        # the period key at e = 1, and the reduced route at e = 3, of both families
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

    def test_scale_guard_is_cli_error(self, capsys, builds):
        # R(7,3,11**5) mod 11**5 would pack 27 Mbit: refused before any ladder is climbed
        start = time.perf_counter()
        rc, out, err = run(capsys, ["oracle", "--n", "7", "--m", "3", "--p", "11", "--r", "5"])
        assert rc == 2 and "ScaleGuardError" in err and out == ""
        assert builds == [] and time.perf_counter() - start < 1
