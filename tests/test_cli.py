import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate

from freecommutant import cli
from freecommutant.cli import main, parse_spec
from freecommutant.commutator import DistributionPair, cancellation_sums, verify_additivity
from freecommutant.cumulants import (
    CumulantSequence,
    MomentSequence,
    cumulant_of_word_products,
    moments_from_cumulants,
)
from freecommutant.errors import SpecSyntaxError
from freecommutant.partitions import PartitionKind, iter_partitions

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text())

RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseSpec:
    def test_free_poisson_all_ones(self):
        spec = parse_spec("free-poisson(1)")
        assert spec.cumulants(5) == CumulantSequence([1, 1, 1, 1, 1])

    def test_atomic_bernoulli_moments(self):
        spec = parse_spec("atomic(1/2:0, 1/2:1)")
        seq = spec.cumulants(4)
        assert seq.kappa(1) == Fraction(1, 2)
        assert seq.kappa(2) == Fraction(1, 4)

    def test_cumulants_literal(self):
        spec = parse_spec("cumulants[0,1,0,0,0]")
        assert spec.cumulants(5) == CumulantSequence.semicircular(1, 5)
        # unspecified higher orders pad with zeros
        assert spec.cumulants(7) == CumulantSequence.semicircular(1, 7)

    def test_semicircle_literal(self):
        assert parse_spec("semicircle(2)").cumulants(4) == CumulantSequence.semicircular(2, 4)

    def test_rho_moments(self):
        rho = parse_spec("rho-moments[1,1,1,1]").rho(4)
        assert [rho.moment(k) for k in range(5)] == [1, 1, 1, 1, 1]

    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("free-poisson(oops)")
        assert err.value.position == 13

    def test_unknown_head(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("gaussian(1)")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("atomic(1/2:0, 1/3:1)")

    def test_weights_must_be_positive(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("atomic(-1:0, 2:1)")


class TestCommands:
    def test_verify_additivity_json(self, capsys):
        code, out, _ = run_main(
            ["verify-additivity", "--x", "atomic(1/2:0,1/2:1)", "--max-order", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert payload["holds"] is True
        assert len(payload["reports"]) == 6

    def test_freeness_witness(self, capsys):
        code, out, _ = run_main(["freeness-witness", "--x", "free-poisson(1)"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert payload["witness"] == "1"
        assert "not free" in payload["note"]

    @pytest.mark.parametrize("cap", ["1", "2", "abc", "0"])
    def test_freeness_witness_is_not_held_to_the_order_cap(self, capsys, monkeypatch, cap):
        # a fixed order-4 cumulant of six letters, whatever the cap, which
        # the command never reads
        argv = ["freeness-witness", "--x", "free-poisson(1)"]
        default = run_main(argv, capsys)
        monkeypatch.setenv("FREECOMMUTANT_MAX_ORDER", cap)
        assert run_main(argv, capsys) == default
        assert default[0] == 0 and not default[2]

    def test_cancellation(self, capsys):
        code, out, _ = run_main(
            ["cancellation", "--x", "free-poisson(1)", "--max-order", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert all(e["value"] == "0" for e in payload["entries"])

    def test_verify_closed_form(self, capsys):
        code, out, _ = run_main(
            ["verify-closed-form", "--x", "atomic(1/3:-1,2/3:2)", "--max-order", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert all(e["holds"] for e in payload["entries"])

    def test_verify_fock_with_moment_literal(self, capsys):
        code, out, _ = run_main(
            ["verify-fock", "--rho", "rho-moments[1,1,1,1,1,1,1,1,1]",
             "--max-order", "8"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert payload["adjointness"] is None  # formal moment sequence
        # frozen from the four-way agreement of model, composition sums,
        # closed form and the expansion oracle
        assert [e["model"] for e in payload["entries"]] == [
            "1", "3", "4", "9", "16", "35", "71", "157"]

    @pytest.mark.parametrize("argv", [
        ["verify-fock", "--rho", "rho-moments[1,1,1,1,1,1,1,1]", "--max-order", "8"],
        ["verify-additivity", "--x", "rho-moments[1]", "--max-order", "1"],
        ["verify-closed-form", "--x", "rho-moments[1]", "--max-order", "1"],
    ], ids=["verify-fock", "verify-additivity", "verify-closed-form"])
    def test_moments_to_the_order_suffice(self, capsys, argv):
        # at order N no route reads a moment of rho past m_N
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        rows = payload.get("entries") or payload["reports"]
        assert len(rows) == int(argv[-1])
        assert all(row["holds"] for row in rows)

    def test_verify_fock_atomic_runs_adjointness(self, capsys):
        code, out, _ = run_main(
            ["verify-fock", "--rho", "atomic(1:1)", "--max-order", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["adjointness"] is True

    def test_verify_fock_checks_adjointness_for_an_atomic_spec_only(self, capsys):
        # the same moments, once as a measure and once as a formal list:
        # only the spec kind tells the command that rho is a measure
        atomic = "atomic(1/3:-1,1/3:1,1/3:2)"
        moments = MomentSequence.from_atoms(parse_spec(atomic).atoms, 6).values[1:]
        formal = f"rho-moments[{','.join(map(str, moments))}]"
        payloads = []
        for rho in (atomic, formal):
            code, out, _ = run_main(["verify-fock", "--rho", rho, "--max-order", "6"], capsys)
            assert code == 0
            payloads.append(json.loads(out))
        assert [p["adjointness"] for p in payloads] == [True, None]
        assert payloads[0]["entries"] == payloads[1]["entries"]

    def test_verify_fock_checks_its_third_route(self, capsys, monkeypatch):
        closed_form_cumulants = cli.closed_form_cumulants

        def perturbed(order, dist_x):
            values = closed_form_cumulants(order, dist_x)
            values[2] += 1  # n = 3
            return values

        monkeypatch.setattr(cli, "closed_form_cumulants", perturbed)
        code, out, _ = run_main(
            ["verify-fock", "--rho", "atomic(1/3:-1,2/3:2)", "--max-order", "5"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert [e["holds"] for e in payload["entries"]] == [True, True, False, True, True]

    def test_verify_fock_reports_a_failed_adjointness_check(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_adjointness", lambda *args: False)
        code, out, _ = run_main(
            ["verify-fock", "--rho", "atomic(1/3:-1,2/3:2)", "--max-order", "5"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False and payload["adjointness"] is False
        assert all(e["holds"] for e in payload["entries"])

    def test_fid_check_passes_for_poisson_driver(self, capsys):
        code, out, _ = run_main(["fid-check", "--rho", "atomic(1:1)"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        targets = {e["target"]: e["psd"] for e in payload["entries"]}
        assert targets == {"x+i[x,s]": True, "s+i[s,x]": True}

    def test_fid_check_reaches_size_twenty(self, capsys, monkeypatch):
        # x is compound free Poisson, so x+i[x,s] is freely infinitely
        # divisible: every truncation of its Hankel matrix is PSD
        monkeypatch.setenv("FREECOMMUTANT_MAX_ORDER", "40")
        code, out, _ = run_main(
            ["fid-check", "--rho", "atomic(1/3:-1,2/3:2)", "--size", "20"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        verdicts = {e["target"]: (e["psd"], len(e["pivots"])) for e in payload["entries"]}
        assert verdicts == {"x+i[x,s]": (True, 20), "s+i[s,x]": (True, 20)}
        assert all(Fraction(p) > 0 for e in payload["entries"] for p in e["pivots"])

    def test_fid_check_control_fails_with_exit_one(self, capsys):
        code, out, _ = run_main(
            ["fid-check", "--sequence", "cumulants[0,1,0,-1]", "--size", "2"], capsys)
        assert code == 1
        payload = json.loads(out)
        validate(payload, SCHEMA)
        entry = payload["entries"][0]
        assert entry["psd"] is False
        assert entry["failure_index"] == 1

    def test_partitions_command(self, capsys):
        code, out, _ = run_main(["partitions", "--n", "3", "--kind", "nc"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert payload["count"] == 5
        assert [[1, 3], [2]] in payload["partitions"]

    def test_cumulants_command(self, capsys):
        code, out, _ = run_main(
            ["cumulants", "--x", "free-poisson(1)", "--max-order", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert payload["moments"] == ["1", "1", "2", "5", "14"]

    def test_cumulants_command_atomic_moments_match_its_cumulants(self, capsys):
        # the atomic moments are reported as given, not rebuilt from the cumulants
        code, out, _ = run_main(
            ["cumulants", "--x", "atomic(1/3:-1,2/3:2)", "--max-order", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert payload["moments"] == ["1", "1", "3", "5", "11", "21", "43"]
        cumulants = CumulantSequence(Fraction(v) for v in payload["cumulants"])
        assert moments_from_cumulants(cumulants, 6).to_json() == payload["moments"]


class TestOutputContracts:
    def test_table_carries_same_rationals(self, capsys):
        args = ["verify-additivity", "--x", "free-poisson(1)", "--max-order", "4"]
        _, json_out, _ = run_main(args + ["--format", "json"], capsys)
        _, table_out, _ = run_main(args + ["--format", "table"], capsys)
        take = lambda text: sorted(RATIONAL_RE.findall(text))
        payload = json.loads(json_out)
        json_rats = sorted(
            v for r in payload["reports"] for k, v in r.items() if k in ("lhs", "rhs_s", "rhs_c"))
        for rat in json_rats:
            assert rat in take(table_out)

    def test_deterministic_output(self, capsys):
        args = ["verify-fock", "--rho", "atomic(1/2:-1,1/2:1)", "--max-order", "4"]
        _, out1, _ = run_main(args, capsys)
        _, out2, _ = run_main(args, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("args", [
        ["verify-fock", "--rho", "atomic(1/3:-1,2/3:2)", "--max-order", "7"],
        ["verify-closed-form", "--x", "atomic(1/4:-2,1/2:1/2,1/4:3)", "--max-order", "7"],
    ], ids=["verify-fock", "verify-closed-form"])
    def test_two_runs_identical(self, capsys, args):
        code1, out1, _ = run_main(args, capsys)
        code2, out2, _ = run_main(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_one_parser_serves_every_call(self, capsys):
        good = [["verify-fock", "--rho", "atomic(1/3:-1,2/3:2)", "--max-order", "4"],
                ["cumulants", "--x", "atomic(1/2:0,1/2:1)", "--max-order", "5",
                 "--format", "table"],
                ["cancellation", "--x", "free-poisson(1)", "--s-var", "1/2"]]
        usage = [["verify-fock", "--rho", "atomic(1:1)", "--max-order", "0"],
                 ["no-such-command"],
                 ["cancellation", "--x", "free-poisson(1)", "--s-var", "x"]]

        def interleaved():
            return [run_main(argv, capsys) for pair in zip(good, usage) for argv in pair]

        first = interleaved()
        assert first == interleaved()
        assert [code for code, _, _ in first] == [0, 2, 0, 2, 0, 2]
        assert cli._build_parser() is cli._build_parser()

    def test_cumulants_command_builds_atomic_moments_once(self, capsys, monkeypatch):
        built = []
        from_atoms = MomentSequence.from_atoms.__func__

        def counted(cls, atoms, order):
            built.append(order)
            return from_atoms(cls, atoms, order)

        monkeypatch.setattr(MomentSequence, "from_atoms", classmethod(counted))
        assert main(["cumulants", "--x", "atomic(1/3:-1,2/3:2)", "--max-order", "6"]) == 0
        assert built == [6]
        capsys.readouterr()

    def test_sequence_oracles_run_once_per_command(self, capsys, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        def no_enumeration(*args, **kwargs):
            raise AssertionError("a partition family was enumerated")

        for name in ("cumulant_sequence_of", "model_cumulants",
                     "composition_formula_cumulants", "closed_form_cumulants"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        for module in list(sys.modules.values()):
            if module.__name__.startswith("freecommutant") and hasattr(module, "iter_partitions"):
                monkeypatch.setattr(module, "iter_partitions", no_enumeration)
        assert main(["verify-closed-form", "--x", "free-poisson(2)", "--max-order", "6"]) == 0
        assert calls == ["cumulant_sequence_of", "closed_form_cumulants"]
        calls.clear()
        assert main(["verify-fock", "--rho", "atomic(1/2:-1,1/2:1)", "--max-order", "6"]) == 0
        assert calls == ["model_cumulants", "composition_formula_cumulants",
                         "closed_form_cumulants"]
        calls.clear()
        assert main(["fid-check", "--rho", "atomic(1/2:-1,1/2:1)", "--size", "3"]) == 0
        assert calls == ["closed_form_cumulants", "cumulant_sequence_of"]
        capsys.readouterr()


_COMMANDS = {
    "verify-additivity": ["--x", "free-poisson(1)", "--max-order", "2"],
    "freeness-witness": ["--x", "free-poisson(1)"],
    "cancellation": ["--x", "free-poisson(1)", "--max-order", "2"],
    "verify-closed-form": ["--x", "free-poisson(1)", "--max-order", "2"],
    "verify-fock": ["--rho", "atomic(1:1)", "--max-order", "2"],
    "fid-check": ["--sequence", "cumulants[0,1]"],
    "partitions": ["--n", "3", "--kind", "nc"],
    "cumulants": ["--x", "free-poisson(1)", "--max-order", "2"],
}


class TestRemovedFlags:
    """``--jobs`` and ``--seed`` are gone from every command, and ``--s-var``
    from verify-closed-form and cumulants, which never read it: each is an
    unknown argument there."""

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in _COMMANDS for flag in ("--jobs", "--seed")] + [
        ("verify-closed-form", "--s-var"), ("cumulants", "--s-var")])
    def test_exits_two_without_traceback(self, capsys, command, flag):
        code, out, err = run_main([command] + _COMMANDS[command] + [flag, "2"], capsys)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} 2" in err
        assert "Traceback" not in err


class TestBadArguments:
    """Bad numbers end in exit 2 with an argparse message, never in a
    traceback or a verdict over an empty range."""

    @pytest.mark.parametrize("literal", ["abc", "1/0"])
    @pytest.mark.parametrize("command", ["verify-additivity", "cancellation"])
    def test_bad_s_var_literal(self, capsys, command, literal):
        code, out, err = run_main(
            [command, "--x", "free-poisson(1)", "--s-var", literal, "--max-order", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "--s-var" in err and "Traceback" not in err

    def test_s_var_takes_exact_rationals(self, capsys):
        code, out, _ = run_main(
            ["cancellation", "--x", "free-poisson(1)", "--s-var", "3/2", "--max-order", "3"],
            capsys)
        assert code == 0
        assert json.loads(out)["s_var"] == "3/2"

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("argv,flag", [
        (["verify-additivity", "--x", "free-poisson(1)"], "--max-order"),
        (["cancellation", "--x", "free-poisson(1)"], "--max-order"),
        (["verify-closed-form", "--x", "free-poisson(1)"], "--max-order"),
        (["verify-fock", "--rho", "atomic(1:1)"], "--max-order"),
        (["fid-check", "--rho", "atomic(1:1)"], "--size"),
    ], ids=["verify-additivity", "cancellation", "verify-closed-form", "verify-fock",
            "fid-check"])
    def test_empty_range_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run_main(argv + [flag, value], capsys)
        assert code == 2
        assert out == ""
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["cumulants", "--x", "semicircle(1e5000)", "--max-order", "2"],
        ["cumulants", "--x", "semicircle(1e10000000)", "--max-order", "2"],
        ["verify-additivity", "--x", "free-poisson(1)", "--s-var", "1e5000"],
        ["cumulants", "--x", f"semicircle({'9' * 4000})", "--max-order", "8"],
    ], ids=["exponent-spec", "runaway-exponent-spec", "exponent-s-var", "too-long-to-print"])
    def test_huge_numbers_are_usage_errors(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert out == ""
        assert ("exponent notation" in err or "--s-var" in err or "digits" in err)
        assert "Traceback" not in err

    def test_cancellation_needs_order_two(self, capsys):
        code, out, err = run_main(
            ["cancellation", "--x", "free-poisson(1)", "--max-order", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "--max-order" in err and "Traceback" not in err


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["freeness-witness", "--x", "free-poisson(1)", "--wat"]) == 2

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run_main(["freeness-witness", "--x", "free-pois(1)"], capsys)
        assert code == 2
        assert "error:" in err

    def test_atomic_entry_without_colon_is_usage_error(self, capsys):
        code, out, err = run_main(["cumulants", "--x", "atomic(1/2)"], capsys)
        assert code == 2
        assert out == ""
        assert "atomic entries are weight:atom" in err

    def test_order_above_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        code, _, err = run_main(
            ["verify-additivity", "--x", "free-poisson(1)", "--max-order", "9"], capsys)
        assert code == 2
        assert "FREECOMMUTANT_MAX_ORDER" in err

    def test_cumulants_order_above_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        code, out, err = run_main(
            ["cumulants", "--x", "free-poisson(1)", "--max-order", "200"], capsys)
        assert code == 2
        assert out == ""
        assert "FREECOMMUTANT_MAX_ORDER" in err and "Traceback" not in err

    def test_fid_check_rho_order_above_cap_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        code, out, err = run_main(["fid-check", "--rho", "atomic(1:1)", "--size", "5"], capsys)
        assert code == 2
        assert out == ""
        assert "FREECOMMUTANT_MAX_ORDER" in err and "--size" in err
        assert "order_cap" not in err and "Traceback" not in err

    def test_fid_check_sequence_size_goes_through_the_cap(self, capsys, monkeypatch):
        argv = ["fid-check", "--sequence", "cumulants[0,1]", "--size", "5"]
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert out == ""
        assert "FREECOMMUTANT_MAX_ORDER" in err and "--size" in err
        assert "Traceback" not in err
        monkeypatch.setenv("FREECOMMUTANT_MAX_ORDER", "10")
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert json.loads(out)["entries"][0]["order"] == 10

    @pytest.mark.parametrize("kind,n", [
        ("all", 11), ("nc", 12), ("nc-irreducible", 13), ("interval", 18),
        ("interval-min2", 25)])
    def test_partitions_above_the_bound_are_usage_errors(self, capsys, monkeypatch, kind, n):
        # the bounds hold whatever order cap is set
        monkeypatch.setenv("FREECOMMUTANT_MAX_ORDER", "40")
        code, out, err = run_main(["partitions", "--n", str(n), "--kind", kind], capsys)
        assert code == 2
        assert out == ""
        assert f"<= {n - 1}, got {n}" in err and "Traceback" not in err
        code, out, err = run_main(["partitions", "--n", "0", "--kind", kind], capsys)
        assert (code, out) == (2, "") and "1 <= n" in err

    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_partitions_is_not_held_to_the_order_cap(self, capsys, monkeypatch, cap):
        argv = ["partitions", "--n", "4", "--kind", "nc"]
        default = run_main(argv, capsys)
        monkeypatch.setenv("FREECOMMUTANT_MAX_ORDER", cap)
        assert run_main(argv, capsys) == default
        assert default[0] == 0 and not default[2]

    def test_the_library_ignores_the_cap(self, monkeypatch):
        # only the command line reads the variable; a library call computes
        # whatever order it is asked for
        monkeypatch.setenv("FREECOMMUTANT_MAX_ORDER", "abc")
        pair = DistributionPair.standard(CumulantSequence.free_poisson(1, 12), 1, 12)
        assert all(r.holds for r in verify_additivity(pair, 12))
        assert len(cancellation_sums(pair, 10)) == 10
        assert cumulant_of_word_products(("sx",) * 9, pair.dist_s, pair.dist_x) == 0
        assert next(iter_partitions(13, PartitionKind.NC)).n == 13

    def test_env_override_raises_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("FREECOMMUTANT_MAX_ORDER", "10")
        # point mass x makes the commutator vanish, so order 9 stays cheap
        code, _, err = run_main(
            ["verify-additivity", "--x", "cumulants[5]", "--max-order", "9"], capsys)
        assert code == 0
        assert "above the default cap 8" in err  # a note, with no cost claim
        assert "slot assignments" not in err

    def test_injected_fault_flips_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("FREECOMMUTANT_INJECT_FAULT", "1")
        code, out, _ = run_main(
            ["verify-additivity", "--x", "free-poisson(1)", "--max-order", "3"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["reports"][0]["holds"] is False

    def test_injected_fault_on_witness(self, capsys, monkeypatch):
        monkeypatch.setenv("FREECOMMUTANT_INJECT_FAULT", "1")
        code, out, _ = run_main(["freeness-witness", "--x", "free-poisson(1)"], capsys)
        assert code == 1

    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "freecommutant.cli",
             "freeness-witness", "--x", "free-poisson(1)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["witness"] == "1"

    def test_subprocess_identity_failure(self):
        env = dict(os.environ, FREECOMMUTANT_INJECT_FAULT="1")
        proc = subprocess.run(
            [sys.executable, "-m", "freecommutant.cli",
             "fid-check", "--rho", "atomic(1:1)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1


class TestRunApi:
    def test_run_returns_payload_and_verdict(self, capsys):
        code, out, _ = run_main(["freeness-witness", "--x", "free-poisson(1)"], capsys)
        assert code == 0
        assert json.loads(out)["command"] == "freeness-witness"

    def test_fid_check_requires_target(self, capsys):
        assert main(["fid-check"]) == 2


# Spec entries tagged with whether they alone make the input bad.
_GOOD_ENTRIES = st.sampled_from(["1", "-2", "1/3", "0.25", " 3/4 ", "0", "9" * 300])
_BAD_ENTRIES = st.sampled_from(["1e3", "2E-1", "1e10000000", "9" * 5000, "1/0", ""])
_ENTRIES = st.one_of(_GOOD_ENTRIES.map(lambda e: (e, False)),
                     _BAD_ENTRIES.map(lambda e: (e, True)),
                     st.text(max_size=6).map(lambda e: (e, False)))


@st.composite
def _specs(draw):
    """Spec-shaped text and whether it is known to be bad."""
    head, brackets = draw(st.sampled_from([
        ("semicircle", "()"), ("free-poisson", "()"), ("atomic", "()"),
        ("cumulants", "[]"), ("rho-moments", "[]"), ("gaussian", "()")]))
    entries = draw(st.lists(_ENTRIES, min_size=1, max_size=2))
    if head == "atomic":
        body = ",".join(f"{w}:{a}" for (w, _), (a, _) in zip(entries, entries[1:] + entries))
    else:
        body = ",".join(e for e, _ in entries)
    bad = head == "gaussian" or any(b for _, b in entries)
    closed = draw(st.integers(0, 9)) > 0
    return f"{head}{brackets[0]}{body}{brackets[1] if closed else ''}", bad


_ORDERS = st.one_of(st.integers(1, 4).map(lambda v: (str(v), False)),
                    st.sampled_from(["0", "-1", "abc", "1e3", "9" * 5000]).map(
                        lambda v: (v, True)))
_CAPS = st.one_of(st.sampled_from([None, "8"]).map(lambda v: (v, False)),
                  st.sampled_from(["0", "-3", "x", "1e2", "9" * 5000]).map(lambda v: (v, True)))


class TestFuzzedInput:
    """Whatever the input, a command ends in exit 0, 1 or 2 with no
    traceback, and a bad literal, order, size or cap always ends in 2."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_specs().map(lambda sb: sb[0]), st.text(max_size=30)))
    def test_parse_spec_raises_only_spec_errors(self, text):
        try:
            parse_spec(text)
        except SpecSyntaxError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_specs())
    def test_known_bad_specs_are_refused(self, spec):
        text, bad = spec
        if bad:
            with pytest.raises(SpecSyntaxError):
                parse_spec(text)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["verify-additivity", "cancellation", "verify-closed-form",
                            "verify-fock", "fid-check", "cumulants"]),
           _specs(), _ORDERS, _CAPS)
    def test_main_exits_cleanly(self, command, spec, order, cap):
        (text, bad_spec), (order_text, bad_order) = spec, order
        cap_text, bad_cap = cap
        if command == "fid-check":
            argv = [command, "--rho" if "atomic" in text else "--sequence", text,
                    "--size", order_text]
        else:
            argv = [command, "--rho" if command == "verify-fock" else "--x", text,
                    "--max-order", order_text]
        env = {} if cap_text is None else {"FREECOMMUTANT_MAX_ORDER": cap_text}
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if cap_text is None:
                os.environ.pop("FREECOMMUTANT_MAX_ORDER", None)
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if bad_spec or bad_order or bad_cap:
            assert code == 2, (argv, env, err.getvalue())
