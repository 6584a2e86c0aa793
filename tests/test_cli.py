import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cmdpkit import certificate, chains, lp, model, residual, samplepath, solver
from cmdpkit.chains import max_denominator_bits
from cmdpkit.cli import run
from cmdpkit.model import InputError, Mdp, instance_to_json
from cmdpkit.samplepath import MAX_STEPS
from dense_oracle import sparse_kernel
from randmdp import random_row


def invoke(*argv):
    return run(list(argv))


def haviv_path(instances_dir):
    return str(instances_dir / "haviv.json")


def test_solve_haviv_document(instances_dir):
    out = invoke("solve", haviv_path(instances_dir))
    assert out.exit_code == 0
    assert json.loads(out.report) == {
        "status": "optimal",
        "policy": {"y": "a"},
        "value": "5/1",
        "W": ["0/1"],
    }


def test_solve_with_start_flag(instances_dir):
    out = invoke("solve", haviv_path(instances_dir), "--start", "y")
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["policy"] == {"y": "b"}
    assert doc["value"] == "20/1"


def test_solve_infeasible_exit_code(tmp_path):
    from cmdpkit import instances
    from cmdpkit.model import instance_to_json
    from fractions import Fraction

    path = tmp_path / "tight.json"
    path.write_text(instance_to_json(instances.haviv(bound=Fraction(1, 25))))
    out = invoke("solve", str(path))
    assert out.exit_code == 1
    doc = json.loads(out.report)
    assert doc["status"] == "infeasible"
    assert doc["feasible_count"] == 0


def test_residual_haviv(instances_dir):
    out = invoke("residual", haviv_path(instances_dir), "--to", "y")
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["slack"] == ["3/40"]
    assert doc["time"] == 1
    assert doc["prob"] == "1/2"
    assert doc["residual_constraint"] == {"a": ["1/20"], "b": ["1/20"]}
    assert doc["residual_solve"]["policy"] == {"y": "a"}
    assert doc["residual_solve"]["value"] == "10/1"


def test_residual_unreachable_target_is_input_error(instances_dir):
    out = invoke("residual", haviv_path(instances_dir), "--to", "c3_0")
    assert out.exit_code == 2
    assert out.report == ""
    assert "c3_0" in out.error


def test_residual_deep_time(instances_dir):
    # c1_4 is occupied at every time t = 5k under the optimal policy, and W
    # is constant on each class, so the slack at t = 5000 is that at t = 5.
    deep = invoke("residual", haviv_path(instances_dir), "--to", "c1_4", "--time", "5000")
    assert deep.exit_code == 0
    shallow = invoke("residual", haviv_path(instances_dir), "--to", "c1_4", "--time", "5")
    doc, ref = json.loads(deep.report), json.loads(shallow.report)
    assert doc.pop("time") == 5000
    ref.pop("time")
    assert doc == ref
    empty = invoke("residual", haviv_path(instances_dir), "--to", "c1_0", "--time", "5000")
    assert empty.exit_code == 2
    assert "probability zero at time 5000" in empty.error


def test_residual_time_above_limit_is_input_error(instances_dir):
    for t in ("10001", str(10**12)):
        out = invoke("residual", haviv_path(instances_dir), "--to", "c1_0", "--time", t)
        assert out.exit_code == 2
        assert out.report == ""
        assert "exceeds the limit of 10000 steps" in out.error


def test_simulate_steps_above_limit_is_input_error(instances_dir):
    for steps in (str(MAX_STEPS + 1), str(10**12)):
        out = invoke(
            "simulate", haviv_path(instances_dir),
            "--policy", "y=a", "--steps", steps, "--seed", "1",
        )
        assert out.exit_code == 2
        assert out.report == ""
        assert f"exceed the limit of {MAX_STEPS}" in out.error


def lazy_full_support_chain(rng, size):
    """One-action model whose rows, mixed with self-loops, reach every state."""
    rows = []
    for i in range(size):
        alpha = Fraction(rng.randint(1, 9), 10)
        row = random_row(rng, size, full=True)
        rows.append(tuple(
            (1 - alpha) * p + (alpha if j == i else 0) for j, p in enumerate(row)
        ))
    return Mdp(
        states=tuple(f"s{i}" for i in range(size)),
        actions=(("a",),) * size,
        successors=sparse_kernel((row,) for row in rows),
        rewards=((Fraction(0),),) * size,
        constraints=(((),),) * size,
        constraint_dim=0,
        initial_state="s0",
    )


def test_residual_time_with_oversized_numbers_is_input_error(tmp_path):
    # Every denominator grows with t on this chain; the size bound stops the
    # sweep long before t = 2000 and before any number is printed.
    path = tmp_path / "lazy.json"
    path.write_text(instance_to_json(lazy_full_support_chain(random.Random(3), 6)))
    out = invoke("residual", str(path), "--to", "s1", "--time", "2000")
    assert out.exit_code == 2
    assert out.report == ""
    assert f"has a denominator above {max_denominator_bits()} bits" in out.error
    shallow = invoke("residual", str(path), "--to", "s1", "--time", "20")
    assert shallow.exit_code == 0


def test_evaluate_policy_b(instances_dir):
    out = invoke(
        "evaluate", haviv_path(instances_dir), "--policy", "y=b", "--start", "y"
    )
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["V"] == "20/1"
    assert doc["W"] == ["1/40"]


def test_an_empty_start_is_an_unknown_state_for_solve_and_evaluate(instances_dir):
    for argv in (["solve", haviv_path(instances_dir), "--start", ""],
                 ["evaluate", haviv_path(instances_dir), "--policy", "y=a", "--start", ""]):
        out = invoke(*argv)
        assert (out.exit_code, out.report, out.error) == (
            2, "", "cmdpkit: error: unknown state ''\n"
        )


def test_samplepath_haviv(instances_dir):
    out = invoke("samplepath", haviv_path(instances_dir), "--policy", "y=a")
    assert out.exit_code == 1
    doc = json.loads(out.report)
    assert doc["feasible"] is False
    assert doc["witness"]["states"] == [f"c1_{k}" for k in range(5)]
    assert doc["witness"]["gain"] == ["-3/40"]


def test_certify_search_twochain(instances_dir):
    out = invoke(
        "certify", str(instances_dir / "twochain.json"), "--policy", "", "--search"
    )
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["status"] == "certificate"
    assert doc["mu"] == ["1/2"]
    assert doc["gain"] == "1/2"


def test_certify_search_haviv_unsat(instances_dir):
    out = invoke(
        "certify", haviv_path(instances_dir), "--policy", "y=a", "--search"
    )
    assert out.exit_code == 1
    doc = json.loads(out.report)
    assert doc["status"] == "unsat"
    assert doc["stage"] == "class-gains"
    assert doc["conflict"] == [0, 1]


def test_failing_found_certificate_is_internal_error(instances_dir, monkeypatch):
    def zero_point(num_vars, constraints, nonnegative):
        return [Fraction(0)] * num_vars

    monkeypatch.setattr(lp, "find_feasible_point", zero_point)
    twochain = str(instances_dir / "twochain.json")
    for argv in (["certify", twochain, "--policy", "", "--search"], ["audit", twochain]):
        out = invoke(*argv)
        assert out.exit_code == 3
        assert out.report == ""
        assert out.error == "cmdpkit: internal error: searched certificate fails A4\n"


def test_other_failures_are_internal_errors(instances_dir, monkeypatch):
    def bare_value_error(chain, cls):
        raise ValueError("class is not strongly connected")

    def bare_key_error(chain):
        raise KeyError(7)

    haviv = haviv_path(instances_dir)
    monkeypatch.setattr(chains, "stationary_distribution", bare_value_error)
    out = invoke("solve", haviv)
    assert (out.exit_code, out.report) == (3, "")
    assert out.error == "cmdpkit: internal error: class is not strongly connected\n"
    monkeypatch.setattr(chains, "decompose", bare_key_error)
    out = invoke("evaluate", haviv, "--policy", "y=a")
    assert (out.exit_code, out.report, out.error) == (3, "", "cmdpkit: internal error: 7\n")


@pytest.mark.parametrize("error, base", [
    (model.InstanceFormatError, ValueError),
    (model.ValidationError, ValueError),
    (model.PolicyError, ValueError),
    (model.UnknownStateError, KeyError),
    (chains.TimeLimitError, ValueError),
    (residual.UnreachableStateError, ValueError),
    (samplepath.StepLimitError, ValueError),
    (certificate.MissingPotentialError, KeyError),
    (solver.EnumerationCapExceeded, RuntimeError),
])
def test_input_errors_keep_their_old_base(error, base):
    instance = error.__new__(error)  # ValidationError's __init__ wants a report
    assert isinstance(instance, InputError) and isinstance(instance, base)


def test_file_errors_name_the_file(tmp_path, instances_dir):
    missing = tmp_path / "nope.json"
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"id": "caf\xe9"}')
    twochain = str(instances_dir / "twochain.json")
    reasons = [
        (missing, f"{missing}: No such file or directory"),
        (tmp_path, f"{tmp_path}: Is a directory"),
        (latin1, f"{latin1}: not UTF-8 text (invalid continuation byte at byte 11)"),
    ]
    for path, reason in reasons:
        for argv in (["solve", str(path)],
                     ["certify", twochain, "--policy", "", "--gain", "1/2",
                      "--potential", str(path)]):
            out = invoke(*argv)
            assert (out.exit_code, out.report, out.error) == (2, "", f"cmdpkit: error: {reason}\n")


def test_empty_potential_is_a_missing_file_and_empty_mu_the_empty_multiplier(instances_dir):
    # An empty --potential names a file like any other value, rather than
    # selecting the all-zero potential that leaving the option out selects;
    # an empty --mu is the multiplier of length 0, as --policy "" is the
    # empty mapping.
    certify = ["certify", str(instances_dir / "twochain.json"), "--policy", "", "--gain", "1/2"]
    out = invoke(*certify, "--mu", "1/2", "--potential", "")
    assert (out.exit_code, out.report, out.error) == (
        2, "", "cmdpkit: error: : No such file or directory\n"
    )
    out = invoke(*certify, "--mu", "")
    assert (out.exit_code, out.report, out.error) == (
        2, "", "cmdpkit: error: multiplier has length 0, model constraint_dim is 1\n"
    )


def test_oversized_inputs_are_input_errors(oversized_inputs):
    for argv, code, error in oversized_inputs:
        out = invoke(*argv)
        assert (out.exit_code, out.error) == (code, error)
        assert bool(out.report) == (code == 0)


def test_certify_check_mode(tmp_path, instances_dir):
    potential = tmp_path / "potential.json"
    potential.write_text(json.dumps({"x": "-1/2", "a0": "0", "b0": "0"}))
    out = invoke(
        "certify", str(instances_dir / "twochain.json"), "--policy", "",
        "--mu", "1/2", "--gain", "1/2", "--potential", str(potential),
    )
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["verdict"] == "pass"
    assert all(doc[key] for key in ("a1", "a2", "a3", "a4", "a5"))


def test_certify_potential_root_must_be_an_object(tmp_path, instances_dir):
    potential = tmp_path / "potential.json"
    for root, kind in (([1, 2], "list"), ("abc", "str"), (None, "NoneType")):
        potential.write_text(json.dumps(root))
        out = invoke(
            "certify", str(instances_dir / "twochain.json"), "--policy", "",
            "--mu", "1/2", "--gain", "1/2", "--potential", str(potential),
        )
        assert out.exit_code == 2
        assert out.report == ""
        assert out.error == (
            f"cmdpkit: error: {potential}: potential file root must be a JSON object, "
            f"got {kind}\n"
        )


def test_document_errors_name_their_file(tmp_path, instances_dir):
    instance = tmp_path / "a.json"
    instance.write_text('{"constraint_dim": 1}')
    out = invoke("solve", str(instance))
    assert (out.exit_code, out.report, out.error) == (
        2, "", f"cmdpkit: error: {instance}: missing key 'initial_state' in document\n"
    )
    doc = json.loads((instances_dir / "twochain.json").read_text())
    instance.write_text(json.dumps({**doc, "initial_state": "nowhere"}))
    out = invoke("solve", str(instance))
    assert out.error == (
        f"cmdpkit: error: {instance}: invalid instance: "
        "initial state 'nowhere' is not a model state\n"
    )
    potential = tmp_path / "pot.json"
    potential.write_text('{"x": "abc"}')
    literal = "not a rational literal: 'abc' (Invalid literal for Fraction: 'abc')"
    certify = ["certify", str(instances_dir / "twochain.json"), "--policy", ""]
    out = invoke(*certify, "--gain", "1/2", "--potential", str(potential))
    assert (out.exit_code, out.report, out.error) == (
        2, "", f"cmdpkit: error: {potential}: {literal}\n"
    )
    out = invoke(*certify, "--gain", "abc")
    assert (out.exit_code, out.error) == (2, f"cmdpkit: error: {literal}\n")


def test_certify_check_failure_exit_code(instances_dir):
    out = invoke(
        "certify", str(instances_dir / "twochain.json"), "--policy", "",
        "--mu", "0", "--gain", "1/2",
    )
    assert out.exit_code == 1
    assert json.loads(out.report)["first_failure"] == "A4"


def test_certify_check_requires_gain(instances_dir):
    out = invoke("certify", str(instances_dir / "twochain.json"), "--policy", "")
    assert out.exit_code == 2


def test_audit_haviv_flags_inconsistency(instances_dir):
    out = invoke("audit", haviv_path(instances_dir))
    assert out.exit_code == 1
    doc = json.loads(out.report)
    assert doc["consistent"] is False
    flagged = [e for e in doc["entries"] if not e["consistent"]]
    assert [e["state"] for e in flagged] == ["y"]
    assert flagged[0]["unmodified"]["value"] == "20/1"
    assert flagged[0]["residual"]["policy"] == {"y": "a"}


def test_audit_twochain_consistent(instances_dir):
    out = invoke("audit", str(instances_dir / "twochain.json"))
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["consistent"] is True
    assert doc["certificate"] == {"status": "found", "mu": ["1/2"]}
    assert all(e["identity"] == "verified" for e in doc["entries"])


def test_audit_all_times_flag(instances_dir):
    short = invoke("audit", str(instances_dir / "twochain.json"))
    full = invoke("audit", str(instances_dir / "twochain.json"), "--all-times")
    assert full.exit_code == 0
    assert len(json.loads(full.report)["entries"]) > len(json.loads(short.report)["entries"])


def test_decompose_haviv(instances_dir):
    out = invoke("decompose", haviv_path(instances_dir))
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["decomposable"] is True
    assert doc["constraint_dim"] == 3
    assert doc["transient"] == ["x", "y"]
    assert len(doc["classes"]) == 3


def test_decompose_selective_haviv(instances_dir):
    out = invoke("decompose", haviv_path(instances_dir), "--selective")
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["constraint_dim"] == 2
    flags = [c["controllable"] for c in doc["controllability"]]
    assert flags == [False, True, True]
    assert doc["converted"]["constraint_dim"] == 2


def test_decompose_rejects_policy_dependent_classes(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({
        "constraint_dim": 1,
        "initial_state": "u",
        "states": [
            {"id": "u", "actions": [
                {"id": "stay", "reward": "0", "constraint": ["0"],
                 "transitions": {"u": "1"}},
                {"id": "swap", "reward": "0", "constraint": ["0"],
                 "transitions": {"v": "1"}},
            ]},
            {"id": "v", "actions": [
                {"id": "back", "reward": "0", "constraint": ["0"],
                 "transitions": {"u": "1"}},
            ]},
        ],
    }))
    out = invoke("decompose", str(path))
    assert out.exit_code == 1
    doc = json.loads(out.report)
    assert doc["decomposable"] is False


def test_audit_infeasible_instance(tmp_path):
    from cmdpkit import instances
    from cmdpkit.model import instance_to_json
    from fractions import Fraction

    path = tmp_path / "tight.json"
    path.write_text(instance_to_json(instances.haviv(bound=Fraction(1, 25))))
    out = invoke("audit", str(path))
    assert out.exit_code == 1
    assert json.loads(out.report)["status"] == "infeasible"


def test_simulate_report(instances_dir):
    out = invoke(
        "simulate", haviv_path(instances_dir),
        "--policy", "y=a", "--steps", "100", "--seed", "5",
    )
    assert out.exit_code == 0
    doc = json.loads(out.report)
    assert doc["steps"] == 100
    assert doc["seed"] == 5
    assert doc["absorbed_class"] is not None
    assert doc["analytic"]["absorption"] == ["1/2", "1/2", "0/1"]


def test_validate_good_and_bad(tmp_path, instances_dir):
    out = invoke("validate", haviv_path(instances_dir))
    assert out.exit_code == 0
    assert json.loads(out.report) == {"valid": True, "violations": []}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "constraint_dim": 0,
        "initial_state": "s",
        "states": [{"id": "s", "actions": [
            {"id": "stay", "reward": "0", "constraint": [],
             "transitions": {"s": "0.999"}},
        ]}],
    }))
    out = invoke("validate", str(bad))
    assert out.exit_code == 1
    doc = json.loads(out.report)
    assert doc["valid"] is False
    assert doc["violations"][0]["kind"] == "row-sum"


def test_usage_errors_exit_two(instances_dir):
    assert invoke("nonsense").exit_code == 2
    assert invoke("solve").exit_code == 2
    assert invoke("solve", "no-such-file.json").exit_code == 2
    assert invoke(
        "evaluate", haviv_path(instances_dir), "--policy", "y=zzz"
    ).exit_code == 2
    assert invoke(
        "solve", haviv_path(instances_dir), "--format", "yaml"
    ).exit_code == 2


def test_repeated_policy_state_is_a_policy_error(instances_dir):
    # The last entry used to win: "y=a,y=b" evaluated policy b.
    for text in ("y=a,y=b", "y=a, y =a"):
        out = invoke("evaluate", haviv_path(instances_dir), "--policy", text)
        assert (out.exit_code, out.report) == (2, "")
        assert out.error == "cmdpkit: error: policy names state 'y' more than once\n"


TOP_USAGE = (
    "usage: cmdpkit [-h] {validate,solve,evaluate,residual,certify,audit,samplepath,"
    "decompose,simulate} ...\n"
)
CERTIFY_USAGE = (
    "usage: cmdpkit certify [-h] --policy POLICY [--search] [--mu MU] [--gain GAIN] "
    "[--potential POTENTIAL] file\n"
)


def test_format_option_is_gone(instances_dir):
    out = invoke("solve", haviv_path(instances_dir), "--format", "json")
    assert out.exit_code == 2
    assert out.error == "cmdpkit: error: unrecognized arguments: --format json\n" + TOP_USAGE


@pytest.mark.parametrize("argv, error", [
    (["simulate", "FILE"],
     "cmdpkit simulate: error: the following arguments are required: --policy, --steps, --seed\n"
     "usage: cmdpkit simulate [-h] --policy POLICY --steps STEPS --seed SEED file\n"),
    (["solve"],
     "cmdpkit solve: error: the following arguments are required: file\n"
     "usage: cmdpkit solve [-h] [--start START] file\n"),
    ([], "cmdpkit: error: the following arguments are required: command\n" + TOP_USAGE),
    (["solve", "FILE", "extra", "--bogus"],
     "cmdpkit: error: unrecognized arguments: extra --bogus\n" + TOP_USAGE),
    (["residual", "FILE", "--to", "y", "--time", "soon"],
     "cmdpkit residual: error: argument --time: invalid int value: 'soon'\n"
     "usage: cmdpkit residual [-h] --to TO [--time TIME] file\n"),
    (["certify", "FILE", "--policy", "y=a", "--gain", "-1/2"],
     "cmdpkit certify: error: argument --gain: expected one argument\n" + CERTIFY_USAGE),
    (["certify", "FILE", "--po", "y=a"],
     "cmdpkit certify: error: ambiguous option: --po could match --policy, --potential\n"
     + CERTIFY_USAGE),
    (["nonsense"],
     "cmdpkit: error: argument command: invalid choice: 'nonsense' (choose from 'validate', "
     "'solve', 'evaluate', 'residual', 'certify', 'audit', 'samplepath', 'decompose', "
     "'simulate')\n" + TOP_USAGE),
    (["audit", "FILE", "--all-times=yes"],
     "cmdpkit audit: error: argument --all-times: ignored explicit argument 'yes'\n"
     "usage: cmdpkit audit [-h] [--all-times] file\n"),
])
def test_usage_error_wording(argv, error):
    out = invoke(*argv)
    assert (out.exit_code, out.report, out.error) == (2, "", error)


def test_usage_errors_do_not_depend_on_the_terminal_width(instances_dir, monkeypatch):
    errors = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        errors.append(invoke("certify", haviv_path(instances_dir), "--bogus").error)
    assert errors[0] == errors[1] == (
        "cmdpkit certify: error: the following arguments are required: --policy\n"
        + CERTIFY_USAGE
    )


def test_huge_integer_option_is_a_usage_error(instances_dir):
    steps = "1" + "0" * 10**5
    out = invoke("simulate", haviv_path(instances_dir), "--policy", "y=a",
                 "--steps", steps, "--seed", "1")
    assert out.exit_code == 2
    assert out.report == ""
    assert out.error.startswith("cmdpkit simulate: error: argument --steps: invalid int value: '1000")


HELP_NAMES = {
    None: ["validate", "solve", "evaluate", "residual", "certify", "audit", "samplepath",
           "decompose", "simulate"],
    "validate": [],
    "solve": ["--start"],
    "evaluate": ["--policy", "--start"],
    "residual": ["--to", "--time"],
    "certify": ["--policy", "--search", "--mu", "--gain", "--potential"],
    "audit": ["--all-times"],
    "samplepath": ["--policy"],
    "decompose": ["--selective"],
    "simulate": ["--policy", "--steps", "--seed"],
}


@pytest.mark.parametrize("command", HELP_NAMES)
def test_help_is_the_report(command, capsys):
    argvs = [["--help"], ["-h"]] if command is None else [[command, "--help"], [command, "FILE", "-h"]]
    for argv in argvs:
        out = invoke(*argv)
        assert capsys.readouterr() == ("", "")
        assert (out.exit_code, out.error) == (0, "")
        assert out.report.startswith("usage: cmdpkit ")
        for name in HELP_NAMES[command] + ["--help"]:
            assert name in out.report


def test_help_names_exit_three_as_any_other_failure():
    lines = invoke("--help").report.splitlines()
    assert "3 any other failure (a defect, reported without a traceback)." in lines
    assert not any("internal error" in line for line in lines)


def test_residual_and_audit_run_without_the_digit_limit_query(instances_dir, monkeypatch):
    # Python 3.10 has no sys.get_int_max_str_digits; the size bound of the
    # time-t distributions falls back to 4300 digits, 3.11's default.
    haviv = haviv_path(instances_dir)
    argvs = [("residual", haviv, "--to", "y"), ("audit", haviv)]
    before = [invoke(*argv) for argv in argvs]
    assert [out.exit_code for out in before] == [0, 1]
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert max_denominator_bits() == model.DEFAULT_MAX_STR_DIGITS == 4300
    assert [invoke(*argv) for argv in argvs] == before


def test_reports_are_byte_deterministic(instances_dir):
    commands = [
        ("solve", haviv_path(instances_dir)),
        ("residual", haviv_path(instances_dir), "--to", "y"),
        ("audit", haviv_path(instances_dir)),
        ("samplepath", haviv_path(instances_dir), "--policy", "y=b"),
        ("decompose", haviv_path(instances_dir), "--selective"),
        ("simulate", haviv_path(instances_dir),
         "--policy", "y=a", "--steps", "500", "--seed", "9"),
        ("certify", haviv_path(instances_dir), "--policy", "y=a", "--search"),
    ]
    for argv in commands:
        first = invoke(*argv)
        second = invoke(*argv)
        assert first.report == second.report
        assert first.exit_code == second.exit_code


def test_console_entry_point_matches_in_process(instances_dir):
    for argv in (["solve", haviv_path(instances_dir)], ["solve", "--help"]):
        in_process = invoke(*argv)
        proc = subprocess.run(
            [sys.executable, "-m", "cmdpkit.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == in_process.exit_code
        assert proc.stdout == in_process.report


def test_enumeration_cap_error_names_the_choices(instances_dir, monkeypatch):
    monkeypatch.setenv("CMDPKIT_ENUM_CAP", "1")
    out = invoke("solve", str(instances_dir / "yacht.json"))
    assert out.exit_code == 2
    assert out.report == ""
    assert out.error == (
        "cmdpkit: error: 4 policies (2 states with 2 actions) exceed the cap "
        "of 1; raise CMDPKIT_ENUM_CAP to proceed\n"
    )
