"""Command line behavior: composition, evaluation, checks, exit codes."""

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspan import checks as checks_mod
from polyspan.checks import GOLDEN_SEEDS, CheckReport, golden_documents
from polyspan.cli import main
from polyspan.documents import document, parse, serialize
from polyspan.finset import FinSetMap, FinSetObj
from polyspan.gen import (rand_family, rand_fincat, rand_modpoly, rand_poly,
                          random_document)
from polyspan.modpoly import identity_polymod
from polyspan.polyset import (IndexedFamily, compose_poly, extension_eval,
                              identity_poly)
from polyspan.relpoly import identity_polyrel
from test_documents import corrupt


ONE = FinSetObj(1)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def write_doc(path, kind, payload):
    path.write_text(serialize(document(kind, payload)))
    return str(path)


def rand_poly_files(tmp_path, seed):
    rng = random.Random(seed)
    x = FinSetObj(rng.randint(1, 3))
    y = FinSetObj(rng.randint(1, 3))
    z = FinSetObj(rng.randint(1, 3))
    p = rand_poly(rng, x, y)
    q = rand_poly(rng, y, z)
    return (write_doc(tmp_path / "q.json", "polynomial", q),
            write_doc(tmp_path / "p.json", "polynomial", p), q, p)


class TestCompose:
    def test_set_composition_matches_library(self, tmp_path, capsys):
        qf, pf, q, p = rand_poly_files(tmp_path, 1)
        assert main(["compose", "--kind", "set", qf, pf]) == 0
        out = capsys.readouterr().out
        assert parse(out).payload == compose_poly(q, p)

    def test_output_file_instead_of_stdout(self, tmp_path, capsys):
        qf, pf, q, p = rand_poly_files(tmp_path, 2)
        dest = tmp_path / "out.json"
        assert main(["compose", "--kind", "set", qf, pf,
                     "-o", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert parse(dest.read_text()).payload == compose_poly(q, p)

    def test_monomial_golden_bytes(self, tmp_path, capsys):
        square = write_doc(tmp_path / "sq.json", "polynomial",
                           checks_mod._monomial(2))
        cube = write_doc(tmp_path / "cu.json", "polynomial",
                         checks_mod._monomial(3))
        assert main(["compose", "--kind", "set", square, cube]) == 0
        got = capsys.readouterr().out
        assert got == serialize(golden_documents()["monomial-compose"])
        assert json.loads(got)["payload"]["e"] == 6

    @pytest.mark.usefixtures("witnessed_composites")
    def test_mod_composition_roundtrips(self, tmp_path, capsys):
        rng = random.Random(3)
        x = rand_fincat(rng, max_mors=6)
        y = rand_fincat(rng, max_mors=6)
        z = rand_fincat(rng, max_mors=6)
        pf = write_doc(tmp_path / "p.json", "mod-polynomial",
                       rand_modpoly(rng, x, y, max_cell=2))
        qf = write_doc(tmp_path / "q.json", "mod-polynomial",
                       rand_modpoly(rng, y, z, max_cell=2))
        assert main(["compose", "--kind", "mod", qf, pf]) == 0
        out = parse(capsys.readouterr().out)
        assert out.kind == "mod-polynomial"
        assert out.payload.X == x and out.payload.Y == z

    def test_boundary_mismatch_is_an_input_error(self, tmp_path, capsys):
        rng = random.Random(4)
        p = rand_poly(rng, FinSetObj(1), FinSetObj(2))
        q = rand_poly(rng, FinSetObj(3), FinSetObj(1))
        pf = write_doc(tmp_path / "p.json", "polynomial", p)
        qf = write_doc(tmp_path / "q.json", "polynomial", q)
        assert main(["compose", "--kind", "set", qf, pf]) == 2
        err = capsys.readouterr().err
        assert "poly-compose-boundary" in err

    def test_wrong_document_kind(self, tmp_path, capsys):
        rng = random.Random(5)
        fam = write_doc(tmp_path / "f.json", "family",
                        rand_family(rng, FinSetObj(2)))
        qf, _, _, _ = rand_poly_files(tmp_path, 5)
        assert main(["compose", "--kind", "set", qf, fam]) == 2
        assert "expected a polynomial" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["kind", "version"])
    @pytest.mark.parametrize("value", [["polynomial"], {"kind": "polynomial"},
                                       1], ids=["list", "object", "number"])
    def test_a_non_string_tag_is_an_input_error(self, tmp_path, capsys,
                                                field, value):
        qf, pf, _, _ = rand_poly_files(tmp_path, 7)
        data = json.loads((tmp_path / "p.json").read_text())
        data[field] = value
        (tmp_path / "p.json").write_text(json.dumps(data))
        assert main(["compose", "--kind", "set", qf, pf]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"expected a string for {field!r}" in err


class TestEval:
    def test_matches_library_extension(self, tmp_path, capsys):
        rng = random.Random(6)
        x, y = FinSetObj(2), FinSetObj(2)
        p = rand_poly(rng, x, y)
        a = rand_family(rng, x)
        pf = write_doc(tmp_path / "p.json", "polynomial", p)
        af = write_doc(tmp_path / "a.json", "family", a)
        assert main(["eval", pf, af]) == 0
        out = parse(capsys.readouterr().out)
        assert out.kind == "family"
        assert out.payload == extension_eval(p, a)

    def test_base_mismatch_is_an_input_error(self, tmp_path, capsys):
        rng = random.Random(7)
        p = rand_poly(rng, FinSetObj(2), FinSetObj(2))
        a = rand_family(rng, FinSetObj(3))
        pf = write_doc(tmp_path / "p.json", "polynomial", p)
        af = write_doc(tmp_path / "a.json", "family", a)
        assert main(["eval", pf, af]) == 2
        assert "family base" in capsys.readouterr().err


class TestRandom:
    def test_same_seed_same_bytes(self, capsys):
        assert main(["random", "--kind", "fincat", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["random", "--kind", "fincat", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        parse(first)

    def test_every_kind_emits_a_valid_document(self, capsys):
        for kind in ("finset-map", "span", "polynomial", "relation",
                     "rel-polynomial", "fincat", "functor", "profunctor",
                     "mod-polynomial", "family"):
            assert main(["random", "--kind", kind, "--seed", "1"]) == 0
            doc = parse(capsys.readouterr().out)
            assert doc.kind == kind

    def test_seeded_goldens_come_from_the_random_command(self, capsys):
        goldens = golden_documents()
        for stem, kind, seed in GOLDEN_SEEDS:
            assert main(["random", "--kind", kind, "--seed",
                         str(seed)]) == 0
            assert capsys.readouterr().out == serialize(goldens[stem])


class TestCheck:
    def test_passing_suite_reports_and_exits_zero(self, capsys):
        assert main(["check", "rel-kleisli", "--seed", "2",
                     "--count", "30"]) == 0
        out = capsys.readouterr().out
        assert out == "rel-kleisli: ok (30 cases, seed 2)\n"

    def test_failing_suite_exits_one_with_details(self, capsys, monkeypatch):
        def broken(seed, count=None):
            return CheckReport("rel-kleisli", 3,
                               ("case 1: something specific broke",))
        monkeypatch.setitem(checks_mod.SUITES, "rel-kleisli",
                            (broken, "stub"))
        assert main(["check", "rel-kleisli", "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL (1 of 3 cases, seed 5)" in out
        assert "case 1: something specific broke" in out

    @pytest.mark.parametrize("flag, value", [
        ("--count", "-3"), ("--count", "-1"), ("--max-failures", "-1"),
        ("--count", "three")])
    def test_a_negative_count_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as e:
            main(["check", "rel-kleisli", flag, value])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-negative integer" in captured.err

    def test_zero_failure_lines_leaves_only_the_tally(self, capsys,
                                                      monkeypatch):
        def broken(seed, count=None):
            return CheckReport("rel-kleisli", 3, ("case 0", "case 1"))
        monkeypatch.setitem(checks_mod.SUITES, "rel-kleisli",
                            (broken, "stub"))
        assert main(["check", "rel-kleisli", "--max-failures", "0"]) == 1
        assert capsys.readouterr().out == (
            "rel-kleisli: FAIL (2 of 3 cases, seed 0)\n  ... and 2 more\n")

    def test_a_zero_count_runs_no_case(self, capsys):
        assert main(["check", "rel-kleisli", "--count", "0"]) == 0
        assert capsys.readouterr().out == "rel-kleisli: ok (0 cases, seed 0)\n"

    def test_run_suite_refuses_a_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            checks_mod.run_suite("rel-kleisli", count=-3)

    def test_unknown_suite_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["check", "nonsense"])
        assert e.value.code == 2

    def test_golden_suite_passes(self, capsys):
        assert main(["check", "cli-determinism"]) == 0
        assert "cli-determinism: ok" in capsys.readouterr().out


class TestProcessEntry:
    def test_module_runs_as_a_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyspan.cli", "random",
             "--kind", "relation", "--seed", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert parse(proc.stdout).kind == "relation"

    def test_long_monomial_mod_composition_exits_zero(self, tmp_path):
        """y^1200 after y over discrete categories, in a fresh interpreter
        at the default recursion limit: this once ended in a
        RecursionError traceback and exit code 1."""
        qf = write_doc(tmp_path / "q.json", "mod-polynomial",
                       checks_mod.embed_poly(checks_mod._monomial(1200)))
        pf = write_doc(tmp_path / "p.json", "mod-polynomial",
                       checks_mod.embed_poly(checks_mod._monomial(1)))
        proc = subprocess.run(
            [sys.executable, "-m", "polyspan.cli", "compose", "--kind",
             "mod", qf, pf], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        comp = parse(proc.stdout).payload
        assert comp.S.objects.size == 1 and comp.m.at[0][0].size == 1200

    @pytest.mark.parametrize("directions", [63, 70])
    def test_an_extension_past_sys_maxsize_is_an_input_error(self, tmp_path,
                                                             directions):
        """y^k on a family with 2 points has 2^k elements: from k = 63 on
        that is more than sys.maxsize, and enumerating them once ran until
        memory ran out.  The child runs under a 1 GiB address space limit
        and a timeout, so a regression cannot take the host's memory."""
        pf = write_doc(tmp_path / "p.json", "polynomial",
                       checks_mod._monomial(directions))
        af = write_doc(tmp_path / "a.json", "family", IndexedFamily(
            ONE, FinSetObj(2), FinSetMap(FinSetObj(2), ONE, (0, 0))))
        proc = subprocess.run(
            [sys.executable, "-m", "polyspan.cli", "eval", pf, af],
            capture_output=True, text=True, timeout=60,
            preexec_fn=_limit_address_space)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: extension-size: ")

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["eval", "/nonexistent/p.json",
                     "/nonexistent/a.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


# compose --kind -> (document kind, identity on a foot, a payload's feet)
_PARTNERS = {
    "set": ("polynomial", identity_poly, lambda p: (p.X, p.Y)),
    "rel": ("rel-polynomial", identity_polyrel, lambda p: (p.X, p.C)),
    "mod": ("mod-polynomial", identity_polymod, lambda p: (p.X, p.Y)),
}


class TestCorruptedDocuments:
    """A corrupted random document, composed with the identity on one of
    its feet, either composes or is rejected with exit 2 and one line on
    stderr, never with a traceback.  Zero changes leave a document whole,
    so that about a quarter of the draws reach the composition builders."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), setting=st.sampled_from(
        sorted(_PARTNERS)), whole=st.booleans(), outer=st.booleans(),
        times=st.integers(0, 3))
    def test_compose_exits_zero_or_two(self, seed, setting, whole, outer,
                                       times):
        kind, identity_on, feet = _PARTNERS[setting]
        doc = random_document(kind, seed)
        partner = serialize(document(kind, identity_on(
            feet(doc.payload)[outer])))
        body = json.loads(serialize(doc))
        rng = random.Random(seed)
        if whole:
            body = corrupt(body, rng, times)
        else:
            body["payload"] = corrupt(body["payload"], rng, times)
        with tempfile.TemporaryDirectory() as tmp:
            mine, other = Path(tmp, "doc.json"), Path(tmp, "partner.json")
            mine.write_text(json.dumps(body))
            other.write_text(partner)
            files = [str(other), str(mine)] if outer else [str(mine),
                                                           str(other)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = main(["compose", "--kind", setting, *files])
        assert status in (0, 2)
        if status == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert err.getvalue() == ""
            assert parse(out.getvalue()).kind == kind
