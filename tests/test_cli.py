"""Tests for the command-line front end and report serialization."""

import argparse
import csv
import functools
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import swqseries
from swqseries import characters, cli, forms, numeric
from swqseries.qseries import VerificationReport

F = Fraction


def report(status="pass", mismatch=None, params=None, order=F(30)):
    return VerificationReport(
        identity_id="durfee-half",
        params=params or {},
        order=order,
        status=status,
        first_mismatch=mismatch,
        runtime_ms=1.25,
    )


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = cli.RunConfig(command="verify")
        assert cfg.suite == "all" and cfg.format == "json"

    def test_rejections(self):
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="frobnicate")
        with pytest.raises(cli.UsageError, match="^unknown suite 'nope'$"):
            cli.RunConfig(command="verify", suite="nope")
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="verify", format="xml")
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="verify", m=0)
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="verify", order=F(-5))
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="char")
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="verify", tau=())
        for tol in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(cli.UsageError):
                cli.RunConfig(command="verify", tol=tol)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            cli.RunConfig(command="verify").m = 2


_CONFIG_DEFAULTS = {"m": 1, "module": None, "format": "json", "tol": 1e-8, "tau": cli._DEFAULT_TAUS}


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["char", "--module", "lambda:1"], {"order": F(10), "suite": "all", "module": ("lambda", 1)}),
        (
            ["superchar", "--m", "2", "--module", "pi:2"],
            {"m": 2, "order": F(10), "suite": "all", "module": ("pi", 2)},
        ),
        (["verify"], {"order": F(20), "suite": "all"}),
        (
            ["verify", "--suite", "aux", "--order", "51/2", "--format", "csv"],
            {"order": F(51, 2), "suite": "aux", "format": "csv"},
        ),
        (["gm", "--m", "3"], {"m": 3, "order": F(20), "suite": "gm"}),
        (["zhu"], {"order": F(20), "suite": "zhu"}),
        (["numeric"], {"order": F(300), "suite": "numeric"}),
        (
            ["numeric", "--tol", "1e-10", "--tau", "0.3+1.1j", "(-0.4+0.9j)"],
            {"order": F(300), "suite": "numeric", "tol": 1e-10, "tau": ((0.3, 1.1), (-0.4, 0.9))},
        ),
    ],
)
def test_argv_resolves_through_the_command_table(argv, fields):
    config = cli._config_from_args(cli._build_parser().parse_args(argv))
    expected = {**_CONFIG_DEFAULTS, "command": argv[0], **fields}
    if expected["module"] is not None:
        expected["module"] = characters.SWModuleId(expected["m"], *expected["module"])
    assert config._asdict() == expected


@pytest.mark.parametrize("command", ["verify", "gm", "zhu", "numeric"])
def test_run_config_defaults_match_the_parser(command):
    assert cli.RunConfig(command) == cli._config_from_args(cli._build_parser().parse_args([command]))


class TestCostBudget:
    def test_m_boundary(self):
        assert cli.RunConfig(command="gm", m=50).m == 50
        with pytest.raises(cli.UsageError, match="^m = 51 is over the budget of 50$"):
            cli.RunConfig(command="gm", m=51)
        with pytest.raises(cli.UsageError, match="^m = 500 is over the budget of 50$"):
            cli._config_from_args(cli._build_parser().parse_args(["gm", "--m", "500"]))

    def test_m_times_order_boundary(self):
        assert cli.RunConfig(command="verify", m=2, order=F(2000)).order == 2000
        with pytest.raises(cli.UsageError, match="^m \\* order = 8001/2 is over the budget of 4000$"):
            cli.RunConfig(command="verify", m=2, order=F(8001, 4))
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="char", m=50, order=F(81), module=characters.SWModuleId(50, "pi", 1))
        with pytest.raises(cli.UsageError):
            cli.RunConfig(command="verify", suite="numeric", m=1, order=F(4001))

    def test_gm_and_zhu_ignore_the_order(self):
        for command in ("gm", "zhu"):
            assert cli.RunConfig(command=command, m=50, order=F(10**6)).order == 10**6

    def test_every_benchmark_invocation_fits(self):
        path = os.path.join(os.path.dirname(__file__), "..", "swqbench", "workloads.json")
        with open(path) as f:
            workloads = json.load(f)
        for workload in workloads.values():
            for argv in workload["invocations"] + workload["smoke"]:
                argv = ["0.3+1.1j" if arg == "{taus}" else arg for arg in argv]
                cli._config_from_args(cli._build_parser().parse_args(argv))


class TestEmitJson:
    def test_empty(self):
        sink = io.StringIO()
        cli.emit_report([], "json", sink)
        assert sink.getvalue() == "[]\n"

    def test_schema_and_roundtrip(self):
        rep = report(
            status="fail",
            mismatch=(F(3, 2), F(1), F(2)),
            params={"m": 1, "shift": F(-5, 48)},
            order=F(51, 2),
        )
        sink = io.StringIO()
        cli.emit_report([rep], "json", sink)
        (obj,) = json.loads(sink.getvalue())
        assert list(obj) == [
            "identity_id",
            "params",
            "order",
            "status",
            "first_mismatch",
            "runtime_ms",
        ]
        assert obj["order"] == "51/2"
        assert obj["params"] == {"m": 1, "shift": "-5/48"}
        assert obj["first_mismatch"] == {"exponent": "3/2", "lhs": "1", "rhs": "2"}
        assert F(obj["order"]) == rep.order
        assert all(not isinstance(v, float) for v in (obj["order"], obj["status"]))

    def test_pass_has_null_mismatch(self):
        sink = io.StringIO()
        cli.emit_report([report()], "json", sink)
        (obj,) = json.loads(sink.getvalue())
        assert obj["first_mismatch"] is None


class TestEmitCsv:
    def test_header_only_when_empty(self):
        sink = io.StringIO()
        cli.emit_report([], "csv", sink)
        assert sink.getvalue() == "identity_id,params,order,status,mismatch_exponent,lhs,rhs,runtime_ms\n"

    def test_rows(self):
        reps = [
            report(params={"p": 3, "lambda": 2}),
            report(status="fail", mismatch=(F(3, 2), F(1), F(2))),
        ]
        sink = io.StringIO()
        cli.emit_report(reps, "csv", sink)
        rows = list(csv.reader(io.StringIO(sink.getvalue())))
        assert rows[0] == cli._CSV_HEADER
        assert rows[1][:4] == ["durfee-half", "lambda=2;p=3", "30", "pass"]
        assert rows[1][4:7] == ["", "", ""]
        assert rows[2][4:7] == ["3/2", "1", "2"]


class TestRun:
    def test_char_csv(self):
        cfg = cli.RunConfig(
            command="char",
            m=1,
            module=characters.SWModuleId(1, "lambda", 1),
            order=F(3),
            format="csv",
        )
        sink = io.StringIO()
        assert cli.run(cfg, sink) == 0
        rows = list(csv.reader(io.StringIO(sink.getvalue())))
        assert rows[0] == ["exponent", "coefficient"]
        series = characters.sw_char(characters.SWModuleId(1, "lambda", 1), F(3))
        assert rows[1:] == [[str(e), str(c)] for e, c in series.terms()]

    def test_superchar_json(self):
        cfg = cli.RunConfig(
            command="superchar",
            m=1,
            module=characters.SWModuleId(1, "pi", 1),
            order=F(3),
        )
        sink = io.StringIO()
        assert cli.run(cfg, sink) == 0
        obj = json.loads(sink.getvalue())
        assert obj["module"] == "pi:1"
        assert obj["terms"]

    def test_gm_suite_passes(self):
        sink = io.StringIO()
        assert cli.run(cli.RunConfig(command="verify", suite="gm", m=2), sink) == 0
        ids = [r["identity_id"] for r in json.loads(sink.getvalue())]
        assert ids == ["gm-conjecture", "gm-mod-p"]

    def test_gm_suite_skips_mod_p_for_composite_level(self):
        sink = io.StringIO()
        assert cli.run(cli.RunConfig(command="verify", suite="gm", m=4), sink) == 0
        ids = [r["identity_id"] for r in json.loads(sink.getvalue())]
        assert ids == ["gm-conjecture"]

    def test_warnaar_suite_reports_known_failures(self):
        sink = io.StringIO()
        code = cli.run(
            cli.RunConfig(command="verify", suite="warnaar", m=1, order=F(10)), sink
        )
        assert code == 1
        bad = [r for r in json.loads(sink.getvalue()) if r["status"] == "fail"]
        assert {(r["identity_id"], r["params"]["lambda"]) for r in bad} == {("warnaar-v2", 3)}

    def test_precondition_maps_to_exit_2(self, capsys):
        sink = io.StringIO()
        code = cli.run(cli.RunConfig(command="verify", suite="aux", order=F(5)), sink)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_output_modulo_runtime(self):
        def normalized():
            sink = io.StringIO()
            assert cli.run(cli.RunConfig(command="verify", suite="zhu", m=2), sink) == 0
            return [
                {k: v for k, v in r.items() if k != "runtime_ms"}
                for r in json.loads(sink.getvalue())
            ]

        assert normalized() == normalized()


class TestEveryM:
    @pytest.mark.parametrize("m", range(5, 9))
    def test_characters_suite_from_m_5(self, capsys, m):
        # the lowest weight -m^2/(2(2m+1)) falls below -1 from m = 5 on, while
        # ns_irr_char's factor q^(h+o) - q^(h'+o) stays at q^0 or above
        assert cli.main(["verify", "--suite", "characters", "--m", str(m), "--order", "20"]) == 0
        assert all(r["status"] == "pass" for r in json.loads(capsys.readouterr().out))

    def test_all_suites_for_m_1_to_12(self, capsys):
        for m in range(1, 13):
            assert cli.main(["verify", "--suite", "all", "--m", str(m), "--order", "12"]) == 1
            bad = [r for r in json.loads(capsys.readouterr().out) if r["status"] != "pass"]
            # only the known-false variant-2 case with lambda = p fails
            assert bad and {(r["identity_id"], r["params"].get("p"), r["params"].get("lambda")) for r in bad} == {
                ("warnaar-v2", 2 * m + 1, 2 * m + 1)
            }


def test_fermionic_suite_checks_every_module_outside_all(capsys):
    assert cli.main(["verify", "--suite", "fermionic", "--m", "2", "--order", "30"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [(r["identity_id"], r["params"]["module"], r["status"]) for r in reports] == [
        ("fermionic-char", label, "pass") for label in ("lambda:1", "lambda:2", "lambda:3", "pi:1", "pi:2")
    ]
    assert cli.main(["verify", "--suite", "all", "--m", "1", "--order", "10"]) == 1
    assert "fermionic-char" not in {r["identity_id"] for r in json.loads(capsys.readouterr().out)}


@pytest.mark.parametrize("m, order", [(3, "1"), (6, "2")])
def test_fermionic_suite_passes_below_the_pi_multi_sums(capsys, m, order):
    # the pi modules' multi-sums have no term up to these orders: both
    # sides are zero there, which is a pass, not a usage error
    assert cli.main(["verify", "--suite", "fermionic", "--m", str(m), "--order", order]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in reports] == ["pass"] * (2 * m + 1)


class TestRankReport:
    @pytest.mark.parametrize("m", [2, 3])
    def test_numeric_exits_0_with_full_rank(self, capsys, m):
        assert cli.main(["numeric", "--m", str(m)]) == 0
        (rank,) = [r for r in json.loads(capsys.readouterr().out) if r["identity_id"] == "ns-space-rank"]
        assert rank["status"] == "pass"
        assert rank["order"] == "300"
        assert rank["params"]["rank"] == 3 * m + 1
        assert rank["params"]["min_singular"] > 0

    @pytest.mark.parametrize("m, order", [(10, "9"), (8, "7")])
    def test_order_below_the_rank_prefix_keeps_full_rank(self, capsys, m, order):
        # the exact rank's prefix ends at 2m^2/(2m+1), above these orders
        assert cli.main(["numeric", "--m", str(m), "--order", order]) == 0
        (rank,) = [r for r in json.loads(capsys.readouterr().out) if r["identity_id"] == "ns-space-rank"]
        assert rank["status"] == "pass"
        assert rank["order"] == order
        assert rank["params"]["rank"] == 3 * m + 1

    def test_suite_all_below_the_rank_prefix_fails_only_by_design(self, capsys):
        assert cli.main(["verify", "--suite", "all", "--m", "11", "--order", "10"]) == 1
        failed = [r for r in json.loads(capsys.readouterr().out) if r["status"] != "pass"]
        # variant 2 with lambda = p fails by design
        assert [r["identity_id"] for r in failed] == ["warnaar-v2"]
        assert all(r["params"]["lambda"] == r["params"]["p"] for r in failed)

    def test_duplicated_character_column_fails(self, monkeypatch):
        form = characters.module_form

        def duplicated(module, superchar=False):
            # pi:1 gets the theta form, hence the character and its theta
            # combination, of lambda:1
            if module.kind == "pi" and module.index == 1:
                module = characters.SWModuleId(module.m, "lambda", 1)
            return form(module, superchar)

        monkeypatch.setattr(characters, "module_form", duplicated)
        # a cache of its own, so no character built before or after this test is shared
        monkeypatch.setattr(characters, "sw_char", functools.lru_cache(characters.sw_char.__wrapped__))
        rep = numeric._rank_report(2, F(60), 1e-8)
        assert rep.status == "fail"
        assert rep.params["rank"] == 6
        assert rep.first_mismatch == (F(0), F(6), F(7))
        assert rep.order == 60


class TestMain:
    def test_bad_order_exits_2(self, capsys):
        assert cli.main(["verify", "--suite", "warnaar", "--m", "1", "--order", "-5"]) == 2
        capsys.readouterr()

    def test_unparseable_order_exits_2(self, capsys):
        assert cli.main(["verify", "--order", "ten"]) == 2
        capsys.readouterr()

    def test_bad_module_selector_exits_2(self, capsys):
        assert cli.main(["char", "--m", "1", "--module", "sigma:1"]) == 2
        assert cli.main(["char", "--m", "1", "--module", "lambda:9"]) == 2
        capsys.readouterr()

    def test_bad_tau_exits_2(self, capsys):
        assert cli.main(["numeric", "--m", "1", "--tau", "0.3-1.1j"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["numeric", "verify"])
    def test_empty_tau_exits_2(self, capsys, command):
        # an empty --tau used to run the default points and exit 0
        assert cli.main([command, "--m", "1", "--order", "40", "--tau"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tau: expected at least one argument" in captured.err

    def test_documented_tau_form_exits_0(self, capsys):
        # a point with a leading minus is parenthesized, as the README shows
        argv = ["numeric", "--m", "1", "--order", "60", "--tol", "1e-8", "--tau", "0.3+1.1j", "(-0.4+0.9j)"]
        assert cli.main(argv) == 0
        assert all(r["status"] == "pass" for r in json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exits_2(self, capsys, tol):
        # an infinite tolerance used to pass every S/T law
        assert cli.main(["numeric", "--m", "1", "--order", "40", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_tol_under_floor_fails_before_any_suite(self, capsys, monkeypatch):
        def never(order):
            raise AssertionError("a suite ran before the tolerance check")

        monkeypatch.setattr(forms, "verify_form_identities", never)
        assert cli.main(["verify", "--suite", "all", "--m", "2", "--order", "300", "--tol", "1e-20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be finite and at least 1e-13\n"

    def test_tol_under_floor_is_fine_without_numeric(self, capsys):
        assert cli.main(["verify", "--suite", "forms", "--order", "12", "--tol", "1e-20"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "tau, message",
        [
            ("0+1e-20j", "error: Im tau = 1e-20 is too small: |q|^(1/24) rounds to 1, no tail bound\n"),
            ("0.3+1e200j", "error: -1/tau underflows in double precision at tau = (0.3+1e+200j)\n"),
        ],
    )
    def test_tau_out_of_double_range_exits_2(self, capsys, tau, message):
        assert cli.main(["numeric", "--m", "1", "--order", "40", "--tau", tau]) == 2
        assert capsys.readouterr() == ("", message)

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "swq" in capsys.readouterr().out

    def test_gm_shortcut(self, capsys):
        assert cli.main(["gm", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)[0]["identity_id"] == "gm-conjecture"

    def test_char_stdout(self, capsys):
        assert cli.main(["char", "--m", "1", "--module", "lambda:2", "--order", "4", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("exponent,coefficient\n")


# Each command below, in a fresh process, loads exactly the swqseries
# modules and the csv, decimal, fractions and json modules that _LOADED
# names for it, with the exit code given there, and none of the
# process-pool machinery, numpy, or dataclasses and the inspect module it
# pulls in.  `json` loads for JSON output only and `fractions` (with
# `decimal`) once an order is parsed, so `--help` and a usage error load
# neither.
_MODULES_PROBE = """
import contextlib, io, sys
from swqseries import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = set(sys.modules)
import json
unwanted = ("concurrent.futures.process", "multiprocessing", "numpy", "dataclasses", "inspect")
print(json.dumps([code, sorted(k for k in loaded if k.startswith("swqseries.")),
                  [k for k in unwanted if k in loaded],
                  [k for k in ("csv", "decimal", "fractions", "json") if k in loaded]]))
"""

_JSON = ["decimal", "fractions", "json"]
_CSV = ["csv", "decimal", "fractions"]
_LOADED = {
    ("--help",): (0, ["cli", "report"], []),
    ("frobnicate",): (2, ["cli", "report"], []),
    ("gm", "--m", "1"): (0, ["cli", "gmverify", "report", "zhupoly"], _JSON),
    ("zhu", "--m", "1"): (0, ["cli", "report", "zhupoly"], _JSON),
    ("zhu", "--m", "1", "--format", "csv"): (0, ["cli", "report", "zhupoly"], _CSV),
    ("char", "--m", "1", "--module", "lambda:1"): (0, ["characters", "cli", "forms", "qseries", "report"], _JSON),
    ("char", "--m", "1", "--module", "lambda:1", "--format", "csv"): (
        0,
        ["characters", "cli", "forms", "qseries", "report"],
        _CSV,
    ),
    ("numeric", "--m", "1"): (0, ["characters", "cli", "forms", "numeric", "qseries", "report"], _JSON),
    ("verify", "--suite", "fermionic", "--m", "1"): (
        0,
        ["characters", "cli", "fermionic", "forms", "qseries", "report"],
        _JSON,
    ),
    ("verify", "--suite", "all", "--m", "1", "--order", "10"): (
        1,
        ["characters", "cli", "fermionic", "forms", "gmverify", "numeric", "qseries", "report", "zhupoly"],
        _JSON,
    ),
}


def _probe(argv, script=_MODULES_PROBE):
    src = os.path.dirname(os.path.dirname(swqseries.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("argv", list(_LOADED))
def test_command_loads_only_its_modules(argv):
    code, modules, stdlib = _LOADED[argv]
    assert _probe(argv) == [code, [f"swqseries.{n}" for n in modules], [], stdlib]


def test_main_gives_arguments_to_its_command_only(capsys, monkeypatch):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording(self, *args, **kwargs):
        calls.append((self.prog, args[0]))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    assert cli.main(["gm", "--m", "1"]) == 0
    capsys.readouterr()
    # every command is still a subcommand with its -h, so help and usage keep their bytes
    assert sorted(prog for prog, flag in calls if flag == "-h") == sorted(["swq", *(f"swq {c}" for c in cli._COMMANDS)])
    assert [call for call in calls if call[1] != "-h"] == [("swq gm", "--m"), ("swq gm", "--order"), ("swq gm", "--format")]


@pytest.mark.parametrize(
    "argv, parses",
    [
        (["verify", "--suite", "gm"], True),
        (["verify", "--suite", "numeric", "--tau", "(0.2+1j)"], True),
        (["--", "gm", "--m", "2"], False),
        (["numeric", "--m", "1", "--order", "40"], True),
    ],
)
def test_one_command_parse_matches_the_full_parser(capsys, monkeypatch, argv, parses):
    # a flag value that names a command, or a -- before the command
    try:
        want = cli._config_from_args(cli._build_parser().parse_args(argv))
    except SystemExit as exc:
        want = exc.code
    want_err = capsys.readouterr().err
    configs = []
    monkeypatch.setattr(cli, "run", lambda config, sink: configs.append(config) or 0)
    code = cli.main(argv)
    got = configs[0] if configs else code
    assert (got, capsys.readouterr().err) == (want, want_err)
    assert isinstance(got, cli.RunConfig) == parses


def test_package_root_is_lazy():
    script = "import json, sys, swqseries; print(json.dumps(sorted(k for k in sys.modules if 'swqseries' in k)))"
    assert _probe([], script) == ["swqseries"]
    from swqseries import qseries, report

    assert swqseries.QSeries is qseries.QSeries
    assert swqseries.VerificationReport is report.VerificationReport is qseries.VerificationReport
    assert swqseries.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        swqseries.no_such_name


# Help texts, argparse usage errors and numeric's refusals (a tail bound
# over the tolerance, an overflowing -1/tau, a tolerance under the
# floor), byte for byte, at 80 columns.  tests/data/cli-usage.json maps
# shlex.join(argv) to the exit code, stdout and stderr of `swq <argv>`,
# written while the CLI still built all six subparsers and, for the
# refusals, before the S-law checker took one phase matrix per law.
_USAGE = json.loads((Path(__file__).parent / "data" / "cli-usage.json").read_text())
_USAGE_ARGVS = [
    ["--help"],
    ["-h", "gm"],
    *([command, "--help"] for command in cli._COMMANDS),
    [],
    ["frobnicate"],
    ["gm", "--bogus"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "gm", "--order"],
    ["numeric", "--m", "1", "--tau"],
    ["numeric", "--m", "1", "--order", "10", "--tau", "0+0.3j"],
    ["numeric", "--m", "1", "--tau", "0+1e-300j"],
    ["numeric", "--m", "1", "--tol", "1e-14"],
]


@pytest.mark.parametrize("argv", _USAGE_ARGVS, ids=shlex.join)
def test_help_and_usage_errors_keep_their_bytes(argv):
    src = os.path.dirname(os.path.dirname(swqseries.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from swqseries.cli import main; sys.exit(main())", *argv],
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"), capture_output=True, text=True, timeout=120,
    )
    want = _USAGE[shlex.join(argv)]
    assert {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr} == want
