import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lieid import tideal
from lieid.cli import LEMMAS, MAX_PRINTED_INDEX, main
from lieid.expr import parse
from lieid.lie_core import assoc_expand, get_degree_cap, is_zero
from lieid.tideal import triple_identity

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def refuse_bound_above_the_cap(capsys, monkeypatch, *argv):
    def never(md):
        raise AssertionError(f"check_generation ran at {md!r}")

    monkeypatch.setattr(tideal, "check_generation", never)
    bound = str(get_degree_cap() + 1)
    code, out, err = run_cli(capsys, *argv, "--max-total-degree", bound,
                             "--json")
    assert code == 2
    assert out == ""
    assert "degree cap" in err


class TestVerify:
    def test_identity_exits_zero(self, capsys):
        code, report = run_json(capsys, "verify", "(x1 x2)(x3 x4) x5")
        assert code == 0
        assert report["identity"] is True
        assert report["components"][0]["multidegree"] == "1,1,1,1,1"

    def test_non_identity_exits_one(self, capsys):
        code, report = run_json(capsys, "verify", "x1 x2")
        assert code == 1
        assert report["identity"] is False

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "x1 +")
        assert code == 2
        assert "error" in err

    def test_deep_nesting_exits_two(self, capsys):
        text = "(" * 3000 + "x1 x2" + ")" * 3000
        code, out, err = run_cli(capsys, "verify", text)
        assert code == 2
        assert out == ""
        assert "nested deeper" in err

    def test_variable_index_past_the_printed_range_exits_two(self, capsys):
        # one past the bound: small enough to print even if the bound went
        code, out, err = run_cli(capsys, "verify",
                                 f"x1 x{MAX_PRINTED_INDEX + 1}")
        assert code == 2
        assert out == ""
        assert "too large" in err

    def test_largest_printed_variable_index(self, capsys):
        code, report = run_json(capsys, "verify", f"x1 x{MAX_PRINTED_INDEX}")
        assert code == 1
        (comp,) = report["components"]
        entries = comp["multidegree"].split(",")
        assert len(entries) == MAX_PRINTED_INDEX
        assert entries[0] == entries[-1] == "1"

    def test_sl2_oracle(self, capsys):
        code, report = run_json(capsys, "verify", "x1 x2 x3", "--algebra", "sl2")
        assert code == 0 and report["identity"] is True
        code, _, _ = run_cli(capsys, "verify", "x1 x2 x3", "--algebra", "gl2")
        assert code == 1

    def test_mixed_components_reported_separately(self, capsys):
        code, report = run_json(capsys, "verify", "x1 x2 x3 + (x1 x2)(x3 x4) x5")
        assert code == 1
        verdicts = {c["multidegree"]: c["identity"] for c in report["components"]}
        assert verdicts == {"1,1,1": False, "1,1,1,1,1": True}


class TestNormalize:
    def test_reprints_canonically(self, capsys):
        code, out, _ = run_cli(capsys, "normalize",
                               "x2 x3 x1 + x3 x1 x2 + x1 x2 x3")
        assert code == 0
        assert "x1 x2 x3 + x2 x3 x1 + x3 x1 x2" in out

    def test_zero(self, capsys):
        code, report = run_json(capsys, "normalize", "x1 x2 + x1 x2")
        assert code == 0 and report["normalized"] == "0"


class TestIdentities:
    def test_multilinear_four(self, capsys):
        code, report = run_json(capsys, "identities",
                                "--multidegree", "1,1,1,1", "--basis")
        assert code == 0
        assert report["dim"] == 1
        assert report["dim_component"] == 6
        basis_poly = parse(report["basis"][0])
        assert assoc_expand(basis_poly) == assoc_expand(triple_identity(4))

    def test_bad_multidegree_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "identities", "--multidegree", "1,x")
        assert code == 2
        code, _, err = run_cli(capsys, "identities", "--multidegree", "0,0")
        assert code == 2


class TestConsequences:
    def test_with_generator_file(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        gens.write_text("(x1 x2)(x3 x4) x5\n(x1 x2 x3)(x1 x2)\n")
        code, report = run_json(
            capsys, "consequences", "--gens", str(gens),
            "--multidegree", "2,2,1",
        )
        assert code == 0
        assert report["dim"] == 3
        assert report["generators"] == ["g1", "g2"]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "consequences", "--gens", str(tmp_path / "nope.txt"),
            "--multidegree", "1,1",
        )
        assert code == 2


class TestCheckTheorem:
    @pytest.mark.parametrize("bound", ("0", "-3"))
    def test_bound_below_one_exits_two(self, capsys, bound):
        # zero components would otherwise pass vacuously
        code, out, err = run_cli(capsys, "check-theorem",
                                 "--max-total-degree", bound, "--json")
        assert code == 2
        assert out == ""
        assert "--max-total-degree" in err

    def test_bound_above_the_cap_exits_two_before_any_work(self, capsys,
                                                            monkeypatch):
        # every total below the cap would otherwise be checked first
        refuse_bound_above_the_cap(capsys, monkeypatch, "check-theorem")

    def test_small_bound(self, capsys):
        code, report = run_json(capsys, "check-theorem", "--max-total-degree", "4")
        assert code == 0
        assert report["all_equal"] is True
        by_md = {c["multidegree"]: c for c in report["components"]}
        assert by_md["1,1,1,1"]["dim_identities"] == 1


class TestLemmas:
    def test_single_suite(self, capsys):
        code, report = run_json(capsys, "lemmas", "--run", "L1e2")
        assert code == 0
        assert report["checks"]["L1e2"]["pass"] is True

    @pytest.mark.parametrize("bound", ("0", "-3"))
    def test_bound_below_one_exits_two(self, capsys, bound):
        code, out, err = run_cli(capsys, "lemmas", "--run", "theorem",
                                 "--max-total-degree", bound)
        assert code == 2
        assert out == ""
        assert "--max-total-degree" in err

    def test_bound_above_the_cap_exits_two_before_any_work(self, capsys,
                                                            monkeypatch):
        refuse_bound_above_the_cap(capsys, monkeypatch, "lemmas", "--run",
                                   "theorem")

    def test_unknown_name_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "lemmas", "--run", "NoSuchLemma")
        assert code == 2
        assert "unknown lemma" in err

    def test_coefficient_suite_details(self, capsys):
        code, report = run_json(capsys, "lemmas", "--run", "Lfact2")
        assert code == 0
        details = report["checks"]["Lfact2"]["details"]
        assert details["n4"]["dim"] == 1
        assert details["n5"]["dim"] == 3
        assert details["n5"]["matches_kernel"] is True

    @pytest.mark.parametrize("seed", (60, 230))
    def test_tail_rewriting_checks_only_nonzero_instances(self, monkeypatch,
                                                          seed):
        # an instance that is already 0 in the free Lie algebra is 0 in the
        # quotient whatever the lemma says, so it would check nothing
        checked = []
        original = tideal.zero_in_quotient

        def record(p):
            checked.append(p)
            return original(p)

        monkeypatch.setattr(tideal, "zero_in_quotient", record)
        details, ok = LEMMAS["LFid"](seed)
        assert ok, details
        assert len(checked) == 6
        assert not any(is_zero(p) for p in checked)


def strip_elapsed(report):
    report = dict(report)
    report.pop("elapsed_s")
    return report


# The recorded reports pin the --json output byte for byte, apart from
# elapsed_s: the basis printouts go through Component.solver, the polarized
# generator through the polarization closure, and the lemma details through
# the suites of LEMMAS.
RECORDED = {
    "check_theorem_d5": ["check-theorem", "--max-total-degree", "5"],
    "identities_1_1_1_1_1": ["identities", "--multidegree", "1,1,1,1,1",
                             "--basis"],
    "identities_2_2_1": ["identities", "--multidegree", "2,2,1", "--basis"],
    "consequences_polarized_2_2_1_1": [
        "consequences", "--gens", str(DATA / "gens_polarized.txt"),
        "--multidegree", "2,2,1,1", "--basis"],
    "consequences_unpolarized_2_2_1_1": [
        "consequences", "--gens", str(DATA / "gens_unpolarized.txt"),
        "--multidegree", "2,2,1,1", "--basis"],
    "lemmas_seven": ["lemmas", "--run",
                     "L1e2,LFid,LF,LFid2,L9mine,Lfact2,Lmultlin"],
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_json_matches_recorded_report(capsys, name):
    _, report = run_json(capsys, *RECORDED[name])
    recorded = json.loads((DATA / f"{name}.json").read_text())
    assert json.dumps(strip_elapsed(report), sort_keys=True) == json.dumps(
        recorded, sort_keys=True)


def test_json_is_deterministic(capsys):
    _, first = run_json(capsys, "lemmas", "--run", "Lfact2")
    _, second = run_json(capsys, "lemmas", "--run", "Lfact2")
    assert strip_elapsed(first) == strip_elapsed(second)
    assert json.dumps(strip_elapsed(first), sort_keys=True) == json.dumps(
        strip_elapsed(second), sort_keys=True
    )


# --- behavior that needs a fresh process -----------------------------------

def run_subprocess(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "lieid.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def test_env_var_overrides_the_cap():
    proc = run_subprocess("verify", "(x1 x2)(x3 x4) x5",
                          env_extra={"LIEID_MAX_DEGREE": "4"})
    assert proc.returncode == 2
    assert "degree cap" in proc.stderr
    proc = run_subprocess("verify", "(x1 x2)(x3 x4) x5",
                          env_extra={"LIEID_MAX_DEGREE": "5"})
    assert proc.returncode == 0


def test_bad_env_value_exits_two():
    proc = run_subprocess("verify", "x1 x2",
                          env_extra={"LIEID_MAX_DEGREE": "many"})
    assert proc.returncode == 2


def test_console_entry_point_runs():
    proc = run_subprocess("normalize", "x1 (x2 x3)")
    assert proc.returncode == 0
    assert "x1 (x2 x3)" in proc.stdout
