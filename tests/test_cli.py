import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import popsort.cli as cli
from popsort import verify
from popsort.machines import MachineKind
from popsort.perms import identity, parse


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv)
    return code, json.loads(text)


class TestSortable:
    def test_figure_permutation(self):
        code, doc = run_json("sortable", "--machine", "ps", "24513")
        jsonschema.validate(doc, cli.SCHEMAS["sortable"])
        assert code == 0
        assert doc["sortable"] is True
        assert doc["permutation"] == "2,4,5,1,3"

    def test_di_unsortable(self):
        code, doc = run_json("sortable", "--machine", "di", "3142")
        jsonschema.validate(doc, cli.SCHEMAS["sortable"])
        assert code == 0
        assert doc["sortable"] is False
        assert "witness" not in doc

    def test_singleton_witness(self):
        code, doc = run_json("sortable", "--machine", "ps", "1")
        assert code == 0
        assert doc["witness"] == "I,F,O"

    def test_parse_error_exits_two(self):
        code, _ = run_cli("sortable", "--machine", "ps", "1,1")
        assert code == 2

    def test_unknown_machine_exits_two(self):
        code, _ = run_cli("sortable", "--machine", "zz", "1")
        assert code == 2

    def test_text_format(self):
        code, text = run_cli("sortable", "--machine", "s", "--format", "text", "21")
        assert code == 0
        assert "sortable=True" in text

    @pytest.mark.parametrize("perm, expected", [
        ("6,7,8,5,14,13,12,11,10,1,3,4,2,9", True),
        ("13,14,8,1,7,3,6,5,4,9,11,12,10,2", False),
    ])
    def test_sqp_length_fourteen_agrees_with_sp(self, perm, expected):
        # Both run the PQS search on the dual, so their answers agree here,
        # past the lengths the registry scans.
        code, sqp = run_json("sortable", "--machine", "sqp", perm)
        assert code == 0
        _, sp = run_json("sortable", "--machine", "sp", perm)
        assert sqp["sortable"] is sp["sortable"] is expected

    @pytest.mark.parametrize("machine", [k.value for k in MachineKind])
    def test_length_bound(self, machine, capsys):
        # Past the bound the CLI refuses the input: PS and PQS still recurse
        # once per block and would end in RecursionError on long enough ones.
        n = cli.SORTABLE_MAX_LEN
        code, doc = run_json("sortable", "--machine", machine, str(identity(n)))
        assert code == 0
        assert doc["sortable"] is True
        code, text = run_cli("sortable", "--machine", machine, str(identity(n + 1)))
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert f"at most {n}" in err
        assert "Traceback" not in err


class TestEnumerate:
    def test_pqs_sequence(self):
        code, doc = run_json("enumerate", "--machine", "pqs", "--max-len", "6")
        jsonschema.validate(doc, cli.SCHEMAS["enumerate"])
        assert code == 0
        assert [row["count"] for row in doc["counts"]] == [1, 2, 6, 24, 120, 685]

    def test_catalan_numbers(self):
        code, doc = run_json("enumerate", "--basis", "231", "--max-len", "5")
        assert code == 0
        assert [row["count"] for row in doc["counts"]] == [1, 2, 5, 14, 42]

    def test_ps_matches_series(self):
        code, doc = run_json("enumerate", "--machine", "ps", "--max-len", "4")
        assert [row["count"] for row in doc["counts"]] == [1, 2, 6, 21]

    def test_csv_format(self):
        code, text = run_cli(
            "enumerate", "--basis", "231", "--max-len", "3", "--format", "csv"
        )
        assert code == 0
        assert text.splitlines() == ["n,count", "1,1", "2,2", "3,5"]

    def test_jobs_output_byte_identical(self):
        base = ("enumerate", "--machine", "pqs", "--max-len", "5")
        _, one = run_cli(*base, "--jobs", "1")
        _, many = run_cli(*base, "--jobs", "8")
        assert one == many

    def test_max_len_guard(self):
        code, _ = run_cli("enumerate", "--machine", "ps", "--max-len", "12")
        assert code == 2

    def test_bad_basis_token(self):
        code, _ = run_cli("enumerate", "--basis", "2,4,3,1", "--max-len", "3")
        assert code == 2  # comma form is ambiguous here; digit form required

    def test_machine_and_basis_mutually_exclusive(self):
        code, _ = run_cli(
            "enumerate", "--machine", "ps", "--basis", "231", "--max-len", "3"
        )
        assert code == 2


class TestClassWalkOutput:
    """stdout of class commands, hashed; recorded while counting and basis
    mining still scanned every permutation of each length."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("enumerate", "--machine", "pqs", "--max-len", "8"),
                "a44fa9e6647556bd60c0612fb3a49e45832675fdf80123d9b0dab3affbb066ce",
            ),
            (
                ("enumerate", "--basis", "2431,3142,3241", "--max-len", "9"),
                "9f468e205f63df9e48f97e6122f8b4bc0702512bec7f638a364e8454f9eed738",
            ),
            (
                ("basis", "--machine", "pqs", "--max-len", "8"),
                "4172971fb16ea02a02d4882ab1abd018f2bc61f09b5b6a9686d089949a9a6e9b",
            ),
        ],
        ids=["enumerate-pqs-8", "enumerate-ps-basis-9", "basis-pqs-8"],
    )
    def test_stdout_digest(self, argv, digest):
        code, text = run_cli(*argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCache:
    def test_round_trip_and_reuse(self, tmp_path):
        cache = tmp_path / "counts.json"
        base = ("enumerate", "--machine", "ps", "--max-len", "5", "--cache", str(cache))
        code, first = run_cli(*base)
        assert code == 0
        stored = json.loads(cache.read_text())
        assert stored["format_version"] == "1"
        assert len(stored["counts"]) == 5
        code, second = run_cli(*base)
        assert code == 0
        assert first == second

    def test_cache_shared_between_specs_by_fingerprint(self, tmp_path):
        cache = tmp_path / "counts.json"
        run_cli("enumerate", "--machine", "ps", "--max-len", "4", "--cache", str(cache))
        run_cli("enumerate", "--machine", "s", "--max-len", "4", "--cache", str(cache))
        stored = json.loads(cache.read_text())
        assert len(stored["counts"]) == 8

    @pytest.mark.parametrize("counts", [
        [1, 2],
        {"k:1": 2.9},
        {"k:1": True},
        {"k:1": "2"},
        {"k:1": -1},
    ])
    def test_malformed_counts_rejected(self, tmp_path, counts):
        cache = tmp_path / "counts.json"
        cache.write_text(json.dumps({"format_version": "1", "counts": counts}))
        code, _ = run_cli(
            "enumerate", "--machine", "ps", "--max-len", "3", "--cache", str(cache)
        )
        assert code == 2

    @pytest.mark.parametrize("content", [b"[]", b"not json", b"\xff\xfe"])
    def test_non_object_cache_rejected(self, tmp_path, capsys, content):
        cache = tmp_path / "counts.json"
        cache.write_bytes(content)
        code, _ = run_cli(
            "enumerate", "--machine", "ps", "--max-len", "3", "--cache", str(cache)
        )
        err = capsys.readouterr().err
        assert code == 2
        assert str(cache) in err and "Traceback" not in err
        assert cache.read_bytes() == content

    def test_failed_save_keeps_old_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "counts.json"
        run_cli("enumerate", "--machine", "ps", "--max-len", "3", "--cache", str(cache))
        before = cache.read_text()

        def broken_dump(obj, fh, **kwargs):
            fh.write('{"format_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", broken_dump)
        with pytest.raises(OSError):
            cli._save_cache(cache, {"format_version": "1", "counts": {}})
        assert cache.read_text() == before
        assert [f.name for f in tmp_path.iterdir()] == ["counts.json"]

    def test_cache_in_missing_directory_exits_2(self, tmp_path):
        cache = tmp_path / "missing" / "counts.json"
        code, _ = run_cli(
            "enumerate", "--machine", "ps", "--max-len", "3", "--cache", str(cache)
        )
        assert code == 2
        assert not cache.parent.exists()

    def test_cache_naming_directory_exits_2(self, tmp_path):
        code, _ = run_cli(
            "enumerate", "--machine", "ps", "--max-len", "3", "--cache", str(tmp_path)
        )
        assert code == 2
        assert tmp_path.is_dir()

    def test_partial_cache_fills_the_missing_lengths(self, tmp_path):
        cache = tmp_path / "counts.json"
        base = ("enumerate", "--machine", "pqs", "--format", "csv")
        run_cli(*base, "--max-len", "3", "--cache", str(cache))
        code, text = run_cli(*base, "--max-len", "6", "--cache", str(cache))
        assert code == 0
        assert text == run_cli(*base, "--max-len", "6")[1]
        assert sorted(json.loads(cache.read_text())["counts"].values()) == [1, 2, 6, 24, 120, 685]

    def test_wrong_version_rejected(self, tmp_path):
        cache = tmp_path / "counts.json"
        cache.write_text(json.dumps({"format_version": "0", "counts": {}}))
        code, _ = run_cli(
            "enumerate", "--machine", "ps", "--max-len", "3", "--cache", str(cache)
        )
        assert code == 2


class TestBasis:
    def test_ps_basis(self):
        code, doc = run_json("basis", "--machine", "ps", "--max-len", "6")
        jsonschema.validate(doc, cli.SCHEMAS["basis"])
        assert code == 0
        assert doc["count"] == 3
        assert doc["elements"] == ["2,4,3,1", "3,1,4,2", "3,2,4,1"]

    def test_single_stack_basis(self):
        code, doc = run_json("basis", "--machine", "s", "--max-len", "4")
        assert code == 0
        assert doc["elements"] == ["2,3,1"]

    def test_text_format_count_first(self):
        code, text = run_cli("basis", "--machine", "s", "--max-len", "4", "--format", "text")
        assert text.splitlines()[0] == "count 1"

    @pytest.mark.parametrize("machine", [k.value for k in MachineKind])
    def test_bound_is_ten(self, machine):
        code, _ = run_cli("basis", "--machine", machine, "--max-len", "11")
        assert code == 2

    def test_conjecture_mismatch_diagnostic(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "compute_basis", lambda spec, n: [parse("231")])
        for max_len in ("9", "10"):
            code, doc = run_json("basis", "--machine", "pqs", "--max-len", max_len)
            assert code == 0  # a count other than 108 is reported, not a failure
            assert doc["count"] == 1
            assert "CONJECTURE-MISMATCH" in capsys.readouterr().err


class TestSeries:
    def test_both_methods_agree(self):
        code, doc = run_json("series", "--terms", "4", "--method", "both")
        jsonschema.validate(doc, cli.SCHEMAS["series"])
        assert code == 0
        assert doc["coefficients"] == [1, 2, 6, 21]
        assert doc["agreement"] is True

    def test_single_term(self):
        code, doc = run_json("series", "--terms", "1")
        assert code == 0
        assert doc["coefficients"] == [1]

    def test_closed_method_has_no_agreement_field(self):
        code, doc = run_json("series", "--terms", "3", "--method", "closed")
        assert code == 0 and "agreement" not in doc

    def test_matches_enumerate(self):
        _, srs = run_json("series", "--terms", "6", "--method", "closed")
        _, enm = run_json("enumerate", "--machine", "ps", "--max-len", "6")
        assert srs["coefficients"] == [row["count"] for row in enm["counts"]]

    @pytest.mark.parametrize("terms, method, digest", [
        ("200", "closed", "caf98289a10d6c0dcb7ef7b041e7af0fe2a68982cf3b488cdba2eae1dd0dcf35"),
        ("40", "fixpoint", "a5a9ba06cd241ee442c07f117a668723a106a8908f76459f7e0714fcee49ddb2"),
    ], ids=["closed-200", "fixpoint-40"])
    def test_output_bytes_pinned(self, terms, method, digest):
        # digests recorded from the Fraction-loop arithmetic
        code, text = run_cli("series", "--terms", terms, "--method", method)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_both_methods_agree_at_the_bound(self):
        code, doc = run_json("series", "--terms", "200", "--method", "both")
        assert code == 0 and doc["agreement"] is True
        _, closed = run_json("series", "--terms", "200", "--method", "closed")
        assert doc["coefficients"] == closed["coefficients"]
        assert len(doc["coefficients"]) == 200

    def test_terms_guard(self):
        assert run_cli("series", "--terms", "0")[0] == 2
        assert run_cli("series", "--terms", "201")[0] == 2

    def test_disagreement_exits_one(self, monkeypatch):
        from popsort.series import PowerSeries

        monkeypatch.setattr(
            cli.series, "fixed_point", lambda terms: PowerSeries.from_coeffs([0, 7], terms)
        )
        code, text = run_cli("series", "--terms", "1", "--method", "both")
        assert code == 1
        assert json.loads(text)["agreement"] is False


class TestAntichain:
    def test_small_report(self):
        code, doc = run_json("antichain", "--max-k", "2")
        jsonschema.validate(doc, cli.SCHEMAS["antichain"])
        assert code == 0
        assert doc["passed"] is True
        assert doc["antichain_pairs_checked"] == 1
        assert [el["k"] for el in doc["elements"]] == [1, 2]
        for el in doc["elements"]:
            assert el["member"] is False
            assert all(d["witness_division"] for d in el["deletions"])

    def test_max_k_one(self):
        code, doc = run_json("antichain", "--max-k", "1")
        assert code == 0 and doc["passed"] is True

    def test_full_report_bytes_pinned(self):
        # every witness_division of u_1..u_4's deletions is in this output
        code, text = run_cli("antichain", "--max-k", "5")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "27fee39a7a5fcfa390a43b353e86ab66bdcd4f24319340e9e51166c89d71dc00"
        )

    def test_bound_guard(self):
        code, _ = run_cli("antichain", "--max-k", "9")
        assert code == 2


class TestVerify:
    def test_invalid_suite_exits_two(self):
        code, _ = run_cli("verify", "--suite", "bogus")
        assert code == 2

    def test_fast_suite_passes(self):
        code, text = run_cli("verify", "--suite", "fast")
        assert code == 0
        *lines, last = text.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["PASS", check.name] for check in verify._CHECKS
        ]
        assert last == "all invariants hold"

    def test_failing_entry_exits_one(self, monkeypatch):
        failing = verify.Check("always-fails", 1, 2, lambda bound: (False, f"forced at {bound}"))
        monkeypatch.setattr(verify, "_CHECKS", [verify._CHECKS[0], failing])
        code, text = run_cli("verify", "--suite", "fast")
        assert code == 1
        first, second, last = text.splitlines()
        assert first.startswith("PASS ")
        assert second.startswith("FAIL always-fails (") and second.endswith("): forced at 1")
        assert last == "INVARIANT FAILURES PRESENT"

    def test_raising_entry_fails_and_the_rest_run(self, monkeypatch):
        def raises(bound):
            raise AssertionError(f"bad coefficient at {bound}")

        raising = verify.Check("always-raises", 1, 2, raises)
        passing = verify._CHECKS[0]
        monkeypatch.setattr(verify, "_CHECKS", [raising, passing])
        code, text = run_cli("verify", "--suite", "fast")
        assert code == 1
        first, second, last = text.splitlines()
        assert first.startswith("FAIL always-raises (")
        assert first.endswith("): raised AssertionError: bad coefficient at 1")
        assert second.startswith(f"PASS {passing.name} (")
        assert last == "INVARIANT FAILURES PRESENT"
        assert "Traceback" not in text


class TestUsage:
    def test_missing_subcommand(self):
        assert run_cli()[0] == 2

    def test_jobs_guard(self):
        code, _ = run_cli("enumerate", "--machine", "ps", "--max-len", "3", "--jobs", "0")
        assert code == 2

    def test_module_entry_point(self):
        # `python -m popsort` from a source checkout, with src on the path.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "popsort", *argv],
                                  env=env, capture_output=True, text=True)

        done = module("sortable", "--machine", "ps", "24513")
        assert (done.returncode, done.stdout) == run_cli("sortable", "--machine", "ps", "24513")
        bad = module("sortable", "--machine", "ps", "1,1")
        assert bad.returncode == 2 and "Traceback" not in bad.stderr
