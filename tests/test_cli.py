"""End-to-end CLI runs, in process: payloads, renderings, exit codes."""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pvlab._rand import Stream
from pvlab.cli import main
from pvlab.models import MODELS, build_model, dual_pair, verify_model
from pvlab.pvcore import Invariant, PartialFiltration, SubsetLattice, decompose_filtration

classify_module = importlib.import_module("pvlab.classify")
cli_module = importlib.import_module("pvlab.cli")

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# one happy path per subcommand


def test_describe_text(capsys):
    code, out, err = run(capsys, "describe", "A3[1,3]")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "(o)--o--(o)"
    assert "A3[1,3]: rank 3, circled [1, 3]" in out
    assert "V[1]: dim 2" in out and "V[3]: dim 2" in out


def test_describe_json(capsys):
    code, doc, _ = run_json(capsys, "describe", "E6[1,2]")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"] == "describe"
    assert doc["inputs"] == {"diagram": "E6[1,2]"}
    assert doc["results"]["dim_v"] == 15
    assert [c["dim"] for c in doc["results"]["components"]] == [5, 10]


def test_grade_json(capsys):
    code, doc, _ = run_json(capsys, "grade", "F4[1,2]")
    assert code == 0
    assert doc["results"]["dim_g"] == 52
    assert dict(map(tuple, doc["results"]["levels"]))[0] == 10
    assert doc["results"]["h_theta"] == [10, 18, 12, 6]


def test_components_json(capsys):
    code, doc, _ = run_json(capsys, "components", "F4[1,2]")
    assert code == 0
    comps = doc["results"]["components"]
    assert [(c["alpha"], c["dim"]) for c in comps] == [(1, 1), (2, 6)]
    assert comps[0]["j_alpha"] == []
    assert comps[1]["j_alpha"] == [3]


@pytest.mark.parametrize("gamma,golden", [
    ("2", "subdiagram_d9_gamma_2.txt"),
    ("2,8", "subdiagram_d9_gamma_2_8.txt"),
    ("5,8", "subdiagram_d9_gamma_5_8.txt"),
])
def test_subdiagram_matches_golden_output(capsys, gamma, golden):
    code, out, err = run(capsys, "subdiagram", "D9[2,3,5,8]", "--gamma", gamma)
    assert code == 0 and err == ""
    assert out == (DATA / golden).read_text()


def test_classify_json(capsys):
    code, doc, _ = run_json(capsys, "classify", "C6[2,5]")
    assert code == 0
    res = doc["results"]
    assert res["family"] == {"family": "C", "params": [1, 2, 1]}
    assert res["verdicts"]["q_irreducible"] is True
    assert res["verdicts"]["n_invariants"] == 1
    assert res["witnesses"]["isotropy_dim"] == 4
    assert doc["inputs"] == {"diagram": "C6[2,5]", "mode": "both", "seed": 0}


def test_classify_single_circle_in_pattern_mode_hits_its_row(capsys):
    # A single circle has its row in the family table like any other
    # placement, so pattern mode answers it from the table, with no witnesses.
    code, doc, _ = run_json(capsys, "classify", "A3[2]", "--mode", "pattern")
    assert code == 0
    res = doc["results"]
    assert res["method"] == "pattern"
    assert res["family"] == {"family": "A/1", "params": [1, 1]}
    assert set(res["witnesses"].values()) == {None}
    assert doc["inputs"]["mode"] == "pattern"


def test_enumerate_lists_an_oracle_hit_with_no_row(capsys, monkeypatch):
    # Oracle mode does not cross-check the table, so a Q-irreducible diagram
    # that the table misses is listed with no row.
    monkeypatch.setattr(classify_module, "family_match", lambda _: None)
    argv = ("enumerate", "--types", "A", "--max-rank", "3", "--mode", "oracle")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "Q-irreducible: A3[1,3]  [(no row)]" in out
    code, out, _ = run(capsys, *argv, "--markdown")
    assert code == 0 and "| - | - | A3[1,3] |" in out


def test_enumerate_pattern_counts(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--types", "A", "--max-rank", "4",
                            "--mode", "pattern")
    assert code == 0
    assert doc["results"]["processed"] == 16
    assert doc["results"]["totals"] == {"A2": 1, "A3": 4, "A4": 11}
    hits = [h["diagram"] for h in doc["results"]["q_irreducible"]]
    assert hits == ["A3[1,3]", "A4[1,4]"]


def test_verify_model_quiet(capsys):
    code, out, err = run(capsys, "verify-model", "dual-pair:n=2", "--quiet")
    assert code == 0 and err == ""
    assert out.strip().endswith("PASS (5/5 checks)")


def test_decompose_model_json(capsys):
    code, doc, _ = run_json(capsys, "decompose", "sym-vector:n=3")
    assert code == 0
    stages = doc["results"]["stages"]
    assert [s["labels"] for s in stages] == [["S"], ["v"]]
    assert [s["dim"] for s in stages] == [6, 3]
    assert doc["results"]["final_reductive"] is True


def test_decompose_diagram(capsys):
    code, out, _ = run(capsys, "decompose", "A3[1,3]")
    assert code == 0
    assert "stage 1" in out and "final isotropy dim" in out


@pytest.mark.parametrize("target, summary", [
    ("B3[1,2]", "B3[1,2]: 1 stage, final isotropy dim 1 (reductive)"),
    ("dual-pair:n=2", "dual-pair(n=2): 1 stage, final isotropy dim 1 (reductive)"),
    ("matrix-pair:p=1,q=2,r=1",
     "matrix-pair(p=1,q=2,r=1): 1 stage, final isotropy dim 2 (reductive)"),
    ("sym-vector:n=3", "sym-vector(n=3): 2 stages, final isotropy dim 1 (reductive)"),
])
def test_decompose_summary_counts_stages(capsys, target, summary):
    code, out, _ = run(capsys, "decompose", target, "--quiet")
    assert code == 0
    assert out == summary + "\n"


def test_a_stalled_filtration_keeps_its_stages(capsys, monkeypatch):
    # sym-vector(n=3) peels S, then v over the isotropy of S's generic point.
    # With no completely Q-reducible sum on that stage-2 instance the
    # filtration stalls after stage 1, and the CLI says so as a usage error.
    real = SubsetLattice.completely_q_reducible
    monkeypatch.setattr(SubsetLattice, "completely_q_reducible",
                        lambda self, subset: ".isotropy" not in self.pv.name
                        and real(self, subset))
    with pytest.raises(PartialFiltration) as stalled:
        decompose_filtration(build_model("sym-vector:n=3").instance)
    assert [s.labels for s in stalled.value.stages] == [("S",)]
    code, out, err = run(capsys, "decompose", "sym-vector:n=3")
    assert code == 1 and out == ""
    assert "filtration stalled" in err and "Traceback" not in err


def test_enumerate_summary_counts_one_diagram(capsys):
    # A1 has no multi-circle diagram and A2 one: "1 diagram" in every
    # rendering but --json, whose count is a number.
    code, out, _ = run(capsys, "enumerate", "--types", "A", "--max-rank", "2")
    assert code == 0
    assert out.splitlines()[1] == "  processed 1 diagram"
    code, out, _ = run(capsys, "enumerate", "--types", "A", "--max-rank", "2", "--markdown")
    assert code == 0
    assert out.splitlines()[2] == "processed 1 diagram, 0 Q-irreducible"
    code, out, _ = run(capsys, "enumerate", "--types", "A", "--max-rank", "2", "--quiet")
    assert code == 0
    assert out == "processed 1 diagram, 0 Q-irreducible\n"
    code, doc, _ = run_json(capsys, "enumerate", "--types", "A", "--max-rank", "2")
    assert doc["results"]["processed"] == 1
    code, out, _ = run(capsys, "enumerate", "--types", "A", "--max-rank", "3", "--quiet")
    assert out == "processed 5 diagrams, 1 Q-irreducible\n"


# ---------------------------------------------------------------------------
# output modes


def test_json_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "classify", "B3[1,3]", "--json")
    _, second, _ = run(capsys, "classify", "B3[1,3]", "--json")
    _, third, _ = run(capsys, "classify", "B3[1,3]", "--seed", "0", "--json")
    assert first == second == third


def test_sweep_json_matches_golden_digest(capsys):
    # The digest was taken from the output before subset verdicts were read
    # from subdiagram pieces; any change to a byte of the sweep shows here.
    code, out, err = run(capsys, "enumerate", "--types", "A,B,C,D,E6", "--max-rank", "7",
                         "--json", "--seed", "0")
    assert code == 0 and err == ""
    golden = (DATA / "enumerate_sweep_seed0.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == golden


@pytest.mark.parametrize("diagram", sorted(json.loads(
    (DATA / "large_classify_seed0.json").read_text())))
def test_large_classify_json_is_frozen(capsys, diagram):
    # The benchmark's rank 10-14 and E8 diagrams: their instances are frozen
    # in tests/data/parabolic_instances.json, and this freezes what the CLI
    # prints from them, form determinants of up to 4,181 bits included.
    code, out, err = run(capsys, "classify", diagram, "--json", "--seed", "0")
    assert code == 0 and err == ""
    golden = json.loads((DATA / "large_classify_seed0.json").read_text())[diagram]
    assert hashlib.sha256(out.encode()).hexdigest() == golden


@pytest.mark.parametrize("diagram", sorted(json.loads(
    (DATA / "rank16_20_classify_seed0.json").read_text())))
def test_rank_16_and_20_classify_json_is_frozen(capsys, diagram):
    # Two reports whose form determinant the cost rule takes from det M
    # (dim_v 110 and 114, isotropy 60 and 94): the digests were taken when
    # both came from the Gram determinant, so the printed value, 8,389
    # digits on A20[5,16] and 0 on C16[1,7], must not move.
    code, out, err = run(capsys, "classify", diagram, "--json", "--seed", "0")
    assert code == 0 and err == ""
    golden = json.loads((DATA / "rank16_20_classify_seed0.json").read_text())[diagram]
    assert hashlib.sha256(out.encode()).hexdigest() == golden


def test_classify_prints_every_digit_of_a_huge_determinant(capsys, monkeypatch):
    real = cli_module.classify
    big = 10 ** 4999 + 7  # 5000 digits, past the default int-to-str limit
    digits = "1" + "0" * 4998 + "7"

    def huge(d, mode, seed):
        report = real(d, mode=mode, seed=seed)
        witnesses = dataclasses.replace(report.witnesses, form_determinant=Fraction(big))
        return dataclasses.replace(report, witnesses=witnesses)

    monkeypatch.setattr(cli_module, "classify", huge)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "classify", "A3[1,3]", *flags)
        assert code == 0 and err == ""
        assert digits in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_output_flags_work_on_either_side_of_the_subcommand(capsys):
    _, before, _ = run(capsys, "--json", "describe", "A3[1,3]")
    _, after, _ = run(capsys, "describe", "A3[1,3]", "--json")
    assert before == after


def test_markdown_table(capsys):
    code, out, _ = run(capsys, "classify", "C6[2,5]", "--markdown")
    assert code == 0
    assert "| family | params | diagram |" in out
    assert "| C | (1, 2, 1) | C6[2,5] |" in out
    assert "| q_irreducible | True |" in out


def test_quiet_is_one_line(capsys):
    code, out, _ = run(capsys, "classify", "C6[2,5]", "--quiet")
    assert code == 0
    assert out == "C6[2,5]: Q-irreducible (family C)\n"


def _digest(capsys, key, with_err=False):
    code, out, err = run(capsys, *shlex.split(key))
    return hashlib.sha256(f"{code}\n{out}{err if with_err else ''}".encode()).hexdigest()


def test_cli_outputs_are_frozen(capsys, monkeypatch):
    # sha256 of the exit code and stdout of each argv: every subcommand in
    # text, --json, --markdown and --quiet, and the usage errors.
    monkeypatch.delenv("PV_LAB_SEED", raising=False)
    frozen = json.loads((DATA / "cli_outputs.json").read_text())["argv"]
    assert {key: _digest(capsys, key) for key in frozen} == frozen


def test_mismatch_outputs_are_frozen(capsys, monkeypatch):
    # The oracle finds D5[2,4] Q-irreducible and B3[1,2] not; a table that
    # misses the first and hits the second makes both mismatch.  stderr is
    # hashed too, since the text rendering prints the payloads there.
    def wrong(d):
        return classify_module.FamilyMatch("A", (1, 1)) if d.type.family == "B" else None

    monkeypatch.delenv("PV_LAB_SEED", raising=False)
    monkeypatch.setattr(classify_module, "family_match", wrong)
    frozen = json.loads((DATA / "cli_outputs.json").read_text())["mismatch"]
    assert {key: _digest(capsys, key, with_err=True) for key in frozen} == frozen


# ---------------------------------------------------------------------------
# seeds


def test_seed_is_echoed(capsys):
    code, doc, _ = run_json(capsys, "classify", "B3[1,3]", "--seed", "7")
    assert code == 0
    assert doc["inputs"]["seed"] == 7
    assert doc["results"]["seed"] == 7


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PV_LAB_SEED", "5")
    code, doc, _ = run_json(capsys, "classify", "B3[1,3]")
    assert code == 0 and doc["inputs"]["seed"] == 5


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("PV_LAB_SEED", "5")
    code, doc, _ = run_json(capsys, "classify", "B3[1,3]", "--seed", "2")
    assert code == 0 and doc["inputs"]["seed"] == 2


def test_seed_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("PV_LAB_SEED", "lots")
    code, out, err = run(capsys, "classify", "B3[1,3]")
    assert code == 1 and out == ""
    assert "PV_LAB_SEED must be an integer" in err


# ---------------------------------------------------------------------------
# failure exit codes


def test_no_subcommand_is_a_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 1 and "usage error" in err


def test_parse_error_reports_column_and_grammar(capsys):
    code, out, err = run(capsys, "describe", "A3[")
    assert code == 1 and out == ""
    assert "column 4" in err
    assert "diagram ::=" in err


@pytest.mark.parametrize("text,message", [
    ("A\u00b2[1]", "expected a rank number, got '\u00b2' (column 2)"),
    ("A3[1,\u00b2]", "expected a node index, got '\u00b2' (column 6)"),
])
def test_non_decimal_digit_is_a_parse_error(capsys, text, message):
    code, out, err = run(capsys, "describe", text)
    assert code == 1 and out == ""
    assert message in err and "diagram ::=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-model", "dual-pair:m=3"],
    ["verify-model", "dual-pair:n=2,n=3"],
    ["decompose", "A3[1]"],
    ["enumerate", "--types", "Z"],
    ["enumerate", "--types", "D", "--max-rank", "3"],
    ["enumerate", "--types", "E7,F4,G2,E9"],
    ["enumerate", "--types", "A,A", "--max-rank", "3"],
    ["subdiagram", "D9[2,3,5,8]", "--gamma", "4"],
    ["subdiagram", "D9[2,3,5,8]", "--gamma", "0"],
    [],
], ids=["unknown-parameter", "repeated-parameter", "not-regular", "unknown-type",
        "below-smallest-rank", "unknown-after-exceptional", "repeated-type", "gamma-not-circled",
        "gamma-node-zero", "no-subcommand"])
def test_usage_error_without_a_diagram_prints_no_grammar(capsys, argv):
    # The grammar describes diagrams; only a diagram or type error gets it.
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_type_tokens_come_from_the_rank_table(capsys):
    # A classical family expands to its ranks from the smallest one, an
    # exceptional type is one token, and both usage messages are fixed.
    SimpleType = cli_module.SimpleType
    assert cli_module._expand_types(["D", "E7", "F4", "G2"], 5) == [
        SimpleType("D", 4), SimpleType("D", 5), SimpleType("E", 7), SimpleType("F", 4),
        SimpleType("G", 2)]
    _, _, err = run(capsys, "enumerate", "--types", "D", "--max-rank", "3")
    assert err == "usage error: --max-rank 3 below the smallest D rank 4\n"
    _, _, err = run(capsys, "enumerate", "--types", "E7,F4,G2,E9")
    assert err == ("usage error: unknown type token 'E9' "
                   "(expected A, B, C, D, E6, E7, E8, F4 or G2)\n")
    # A repeated token would classify every diagram of its types twice.
    for types in ("A,A", "E6,E6", "B, C,B"):
        _, _, err = run(capsys, "enumerate", "--types", types, "--max-rank", "3")
        assert err == f"usage error: type token {types.split(',')[0].strip()!r} given twice\n"


def test_semantic_diagram_error(capsys):
    code, _, err = run(capsys, "describe", "A3[7]")
    assert code == 1 and "error" in err


def test_unknown_model_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify-model", "moonshine:n=24")
    assert code == 1 and "unknown model" in err


def test_bad_gamma_values(capsys):
    code, _, err = run(capsys, "subdiagram", "D9[2,3,5,8]", "--gamma", "x")
    assert code == 1 and "comma-separated integers" in err
    code, _, err = run(capsys, "subdiagram", "D9[2,3,5,8]", "--gamma", "4")
    assert code == 1  # 4 is not circled


def test_decompose_rejects_non_regular_target(capsys):
    code, _, err = run(capsys, "decompose", "A3[1]")
    assert code == 1 and "not regular" in err


def test_mismatch_exit_code_and_payload(capsys, monkeypatch):
    monkeypatch.setattr(classify_module, "family_match", lambda _: None)
    code, out, err = run(capsys, "classify", "D5[2,4]", "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "mismatch"
    assert doc["pattern"] is None
    assert doc["oracle"]["q_irreducible"] is True
    code, out, err = run(capsys, "classify", "D5[2,4]")
    assert code == 2 and out == ""
    assert "mismatch:" in err and "oracle" in err


def test_closed_pipe_exits_141_without_a_traceback():
    # As in `pvlab enumerate ... --json | head -c 100`, the reader is gone
    # before the report is written; the exit code is 128 + SIGPIPE.
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen([sys.executable, "-m", "pvlab.cli", "enumerate", "--types", "A",
                             "--max-rank", "7", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_python_dash_m_pvlab_runs_the_cli():
    # `python -m pvlab` reaches the command line without the console script.
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "pvlab", "classify", "A3[1,3]", "--quiet"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "A3[1,3]: Q-irreducible (family A)\n"


def test_non_generic_point_exits_4_without_a_traceback(capsys, monkeypatch):
    # Zero candidates never reach the full orbit rank of A3[1,3], so its
    # full report finds no generic point.
    monkeypatch.setattr(Stream, "vector", lambda self, length: [0] * length)
    code, out, err = run(capsys, "classify", "A3[1,3]")
    assert code == 4
    assert out == ""
    assert err == "error: no generic point found: A3[1,3]: orbit rank 0 below 4 at 32 draws\n"


def test_piece_verdicts_need_no_mod_p_rank_of_an_action_matrix(capsys, monkeypatch):
    # Piece verdicts project the full report's certified point, so a mod-p
    # rank that under-reports leaves each one to the exact determinant of M
    # and moves no verdict.
    pvcore = importlib.import_module("pvlab.pvcore")
    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
    monkeypatch.setattr(pvcore, "modp_rank", lambda rows: 0)
    code, out, err = run(capsys, "classify", "A3[1,3]", "--quiet")
    assert (code, out, err) == (0, "A3[1,3]: Q-irreducible (family A)\n", "")


def test_failed_model_check_exit_code(capsys, monkeypatch):
    def broken(n: int):
        spec = dual_pair(n)
        return dataclasses.replace(spec, expected={**spec.expected, "regular": False})

    monkeypatch.setitem(MODELS, "dual-pair", (broken, ("n",)))
    code, out, err = run(capsys, "verify-model", "dual-pair:n=2", "--quiet")
    assert code == 3
    assert "FAIL" in out


def test_broken_invariant_fails_its_check_line(capsys, monkeypatch):
    # Q x0 is not relatively invariant, so verify_invariant raises and
    # verify_model turns the error into a failing line, not a traceback.
    def broken(n: int):
        spec = dual_pair(n)
        mi = spec.invariants[0]
        f = Invariant("Q x0", 3, lambda x, q=mi.invariant.evaluate: q(x) * x[0])
        return dataclasses.replace(spec, invariants=(dataclasses.replace(mi, invariant=f),))

    monkeypatch.setitem(MODELS, "dual-pair", (broken, ("n",)))
    ok, lines = verify_model(build_model("dual-pair:n=2"))
    failing = [line for line in lines if not line.passed]
    assert not ok and [line.name for line in failing] == ["invariant Q x0"]
    assert "is not proportional to f" in failing[0].detail
    code, out, err = run(capsys, "verify-model", "dual-pair:n=2", "--quiet")
    assert (code, out, err) == (3, "dual-pair(n=2): FAIL (4/5 checks)\n", "")
