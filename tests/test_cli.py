import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from cold import clear_teslab_caches
from teslab import cli, macdonald, specializations, verify
from teslab.cli import build_parser, main
from teslab.macdonald import PARTITION_SIZE_BUDGET, virtual_F
from teslab.qt_algebra import ONE, Q, LaurentPolyQT, RatFuncQT
from teslab.specializations import OrderedSetPartition
from teslab.tesler import (COUNT_ROWS_BUDGET, HOOKS_LENGTH_BUDGET, PACKED_BITS_BUDGET,
                           count_tesler, enumerate_tesler, parse_hooks, tes)
from teslab.verify import ENTRY_RANGE_BUDGET, N_MAX_BUDGETS, Bounds, run_suite
from teslab.young import partitions_of


def _blocks_reversed(U):
    array, pi = specializations.levande_map(U)
    return array, OrderedSetPartition(pi.blocks[::-1])


def _no_image_for_two_blocks(alpha, pi):
    return None if len(pi.blocks) == 2 else specializations.psi(alpha, pi)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spawn_cli(*argv, **kwargs):
    """The CLI in a child process, with this checkout's src first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    boot = (f"import runpy, sys; sys.path.insert(0, {src!r}); "
            "runpy.run_module('teslab.cli', run_name='__main__')")
    return subprocess.Popen([sys.executable, "-c", boot, *argv], **kwargs)


class TestTesCommand:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "tes", "--hooks", "1,1")
        assert code == 0 and out.strip() == "1 + q + t"

    def test_t0_spec(self, capsys):
        code, out, _ = run_cli(capsys, "tes", "--hooks", "1,1,0", "--spec", "t=0")
        assert code == 0 and out.strip() == "1 + 2*q + q^2"

    def test_qt11_spec(self, capsys):
        code, out, _ = run_cli(capsys, "tes", "--hooks", "2,0,3,1", "--spec", "q=t=1")
        assert code == 0 and out.strip() == "308"

    def test_packed_size_over_the_budget_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "tes", "--hooks", "190,1")
        assert code == 2 and out == ""
        assert f"over the budget of {PACKED_BITS_BUDGET:,}" in err

    def test_routes_agree(self, capsys):
        for route in ("enum", "macdonald"):
            code, out, _ = run_cli(capsys, "tes", "--hooks", "1,-1,2", "--route", route)
            assert code == 0
            assert out.strip() == str(tes((1, -1, 2)))

    def test_closed_route_needs_spec(self, capsys):
        code, _, err = run_cli(capsys, "tes", "--hooks", "1,1", "--route", "closed")
        assert code == 2 and "spec" in err

    def test_closed_routes(self, capsys):
        code, out, _ = run_cli(capsys, "tes", "--hooks", "1,1", "--route", "closed",
                               "--spec", "t=1")
        assert code == 0 and out.strip() == "2 + q"
        code, out, _ = run_cli(capsys, "tes", "--hooks", "1,1,0", "--route", "closed",
                               "--spec", "t=0")
        assert code == 0 and out.strip() == "1 + 2*q + q^2"
        code, out, _ = run_cli(capsys, "tes", "--hooks", "2,0,3,1", "--route", "closed",
                               "--spec", "q=t=1")
        assert code == 0 and out.strip() == "308"

    def test_closed_t0_rejects_general_hooks(self, capsys):
        code, _, err = run_cli(capsys, "tes", "--hooks", "2,1", "--route", "closed",
                               "--spec", "t=0")
        assert code == 2 and "0/1" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "tes", "--hooks", "1,1,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        terms = {(int(e0), int(e1)): int(c) for e0, e1, c in payload["terms"]}
        assert LaurentPolyQT(terms) == tes((1, 1, 1))

    def test_pole_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tes", "--hooks", "-1", "--spec", "t=0")
        assert code == 2 and "pole" in err

    def test_unparseable_hooks(self, capsys):
        code, _, err = run_cli(capsys, "tes", "--hooks", "1,x")
        assert code == 2


class TestEnumerateCommand:
    def test_count(self, capsys):
        assert run_cli(capsys, "enumerate", "--hooks", "1,1", "--format", "count")[1].strip() == "2"

    def test_zero_start(self, capsys):
        assert run_cli(capsys, "enumerate", "--hooks", "0,1", "--format", "count")[1].strip() == "0"

    def test_permutational_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--hooks", "1,1,1",
                               "--permutational", "--format", "count")
        assert code == 0 and out.strip() == "6"

    def test_json_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--hooks", "1,1")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows == [{"n": 2, "rows": [[1, 0], [0, 1]]},
                        {"n": 2, "rows": [[0, 1], [0, 2]]}]

    @pytest.mark.parametrize("hooks", ["1,1,1", "0,1", "2,-1,1,0,2", "-2,1,2,-1", "1,1,1,1,1"])
    def test_stream_bytes_match_joined_output(self, capsys, tmp_path, hooks):
        # the lines joined by "\n" plus one final "\n"; "\n" alone when empty
        for flags in ([], ["--permutational"]):
            joined = "\n".join(json.dumps(U.to_json()) for U in enumerate_tesler(
                parse_hooks(hooks), permutational=bool(flags))) + "\n"
            code, out, _ = run_cli(capsys, "enumerate", f"--hooks={hooks}", *flags)
            assert code == 0 and out == joined
            path = tmp_path / "stream.jsonl"
            assert run_cli(capsys, "enumerate", f"--hooks={hooks}", *flags,
                           "--out", str(path))[0] == 0
            assert path.read_bytes() == joined.encode()

    def test_json_over_cap_exits_2_before_writing(self, capsys, tmp_path):
        hooks = "1,1,1,1,1,1,1,1"
        code, out, err = run_cli(capsys, "enumerate", "--hooks", hooks)
        assert code == 2 and out == ""
        assert "2,766,572" in err and "1,000,000" in err and "--format count" in err
        path = tmp_path / "never.jsonl"
        assert run_cli(capsys, "enumerate", "--hooks", hooks, "--out", str(path))[0] == 2
        assert not path.exists()
        assert run_cli(capsys, "enumerate", "--hooks", hooks, "--format", "count")[1] == "2766572\n"

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        count = count_tesler((1, 1, 1))
        monkeypatch.setattr(cli, "ENUMERATE_JSON_CAP", count)
        code, out, _ = run_cli(capsys, "enumerate", "--hooks", "1,1,1")
        assert code == 0 and len(out.splitlines()) == count
        monkeypatch.setattr(cli, "ENUMERATE_JSON_CAP", count - 1)
        code, out, err = run_cli(capsys, "enumerate", "--hooks", "1,1,1")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_permutational_json_over_cap_exits_2_before_writing(self, capsys, monkeypatch,
                                                                 tmp_path):
        monkeypatch.setattr(cli, "ENUMERATE_JSON_CAP", 6)
        code, out, _ = run_cli(capsys, "enumerate", "--hooks", "1,1,1", "--permutational")
        assert code == 0 and len(out.splitlines()) == 6
        monkeypatch.setattr(cli, "ENUMERATE_JSON_CAP", 5)
        path = tmp_path / "never.jsonl"
        code, out, err = run_cli(capsys, "enumerate", "--hooks", "1,1,1", "--permutational",
                                 "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert "6 permutational Tesler matrices" in err and "--format count" in err

    @pytest.mark.parametrize("argv", [
        ["--hooks", "1000,1,1"],
        ["--hooks", ",".join(["1"] * 18), "--format", "count"],
    ], ids=["1000,1,1", "ones-18-count"])
    def test_over_the_count_budget_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "enumerate", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"{COUNT_ROWS_BUDGET:,} rows" in err

    def test_permutational_count_does_not_walk(self, capsys):
        # 12! matrices: counted by the recursion, never streamed
        code, out, _ = run_cli(capsys, "enumerate", "--hooks", ",".join(["1"] * 12),
                               "--permutational", "--format", "count")
        assert code == 0 and out == "479001600\n"
        code, out, err = run_cli(capsys, "enumerate", "--hooks", ",".join(["1"] * 12),
                                 "--permutational")
        assert code == 2 and out == "" and "479,001,600" in err


class TestWorkBudgets:
    """Hook vectors that would overflow the stack or build millions of
    records exit 2 with a message, well inside a second."""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--format", "count", "--hooks", ",".join(["1"] * 600)],
        ["tes", "--hooks", ",".join(["1"] * 1100)],
        ["tes", "--hooks", ",".join(["1"] * 400)],
    ], ids=["enumerate-count-ones-600", "tes-ones-1100", "tes-ones-400"])
    def test_over_the_hooks_length_budget_exits_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert f"over the length budget of {HOOKS_LENGTH_BUDGET}" in err

    def test_over_the_osp_budget_exits_2(self, capsys):
        # (1^9) at t = 1 sums over the 9! ordered set partitions into singletons
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "tes", "--hooks", ",".join(["1"] * 9),
                                 "--route", "closed", "--spec", "t=1")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "362,880 ordered set partitions" in err


class TestBrokenPipe:
    def test_reader_closing_after_one_line_exits_141(self):
        proc = spawn_cli("enumerate", "--hooks", "1,1,1,1,1,1",
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert json.loads(first)["n"] == 6
        assert err == b""

    def test_stdout_closed_before_the_first_write_exits_141(self):
        # the output fits in the buffer, so the pipe breaks at main's flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = spawn_cli("tes", "--hooks", "1,1", stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["tes", "--hooks", "1,1"],
        ["enumerate", "--hooks", "1,1"],
        ["hilb", "--f", "e:1", "--n", "2"],
        ["verify", "--suite", "cor-4-5", "--n-max", "2"],
    ], ids=["tes", "enumerate", "hilb", "verify"])
    def test_is_a_usage_error(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(missing))
        assert code == 2 and out == ""
        assert "error:" in err and str(missing) in err
        assert not missing.parent.exists()

    def test_verify_refuses_before_the_first_suite(self, capsys, monkeypatch, tmp_path):
        def no_suite(*args, **kwargs):
            raise AssertionError("run_suite ran before --out was checked")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        missing = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "verify", "--suite", "prop-6-3", "--out", str(missing))
        assert code == 2 and out == ""
        assert "not a writable directory" in err
        assert not missing.parent.exists()

    def test_child_process_prints_no_traceback(self, tmp_path):
        proc = spawn_cli("tes", "--hooks", "1,1", "--out", str(tmp_path / "missing" / "x"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2 and out == b""
        assert err.startswith(b"error: ") and b"Traceback" not in err


class TestHilbCommand:
    def test_e1(self, capsys):
        code, out, _ = run_cli(capsys, "hilb", "--f", "e:1", "--n", "3")
        assert code == 0
        assert out.strip() == "3 + 3*q + 3*t + q^2 + q*t + t^2"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_is_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, "hilb", "--f", "e:1", "--n", n)
        assert code == 2 and out == ""
        assert f"n must be at least 1, got {n}" in err

    def test_over_the_partition_size_budget_exits_2_at_once(self, capsys):
        # hilb at n = budget + 1, and tes through Theorem 3.1 on a vector of
        # length budget, whose sum runs over the partitions of budget + 1
        n = PARTITION_SIZE_BUDGET + 1
        ones = ",".join(["1"] * (n - 1))
        for argv in (["hilb", "--f", "e:1", "--n", str(n)],
                     ["tes", "--hooks", ones, "--route", "macdonald"]):
            misses = virtual_F.cache_info().misses
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert code == 2 and out == ""
            assert f"n={n} is over the partition-size budget of {PARTITION_SIZE_BUDGET}" in err
            assert virtual_F.cache_info().misses == misses

    @pytest.mark.parametrize("n, routes", [(5, ["tesler", "eigen"]), (6, ["tesler"])])
    def test_prints_the_chosen_route_and_cross_checks_at_n5(self, capsys, monkeypatch, n, routes):
        ran = []

        def record(f, target, n, route):
            ran.append(route)
            return LaurentPolyQT.const(7)

        monkeypatch.setattr(cli, "hilb_delta_prime", record)
        code, out, _ = run_cli(capsys, "hilb", "--f", "e:2", "--n", str(n))
        assert code == 0 and out == "7\n"
        assert ran == routes

    @pytest.mark.parametrize("wrong", ["eigen", "tesler"])
    def test_route_cross_check_failure_exits_1(self, capsys, monkeypatch, wrong):
        right = cli.hilb_delta_prime

        def one_route_wrong(f, target, n, route):
            value = right(f, target, n, route)
            return value + 1 if route == wrong else value

        monkeypatch.setattr(cli, "hilb_delta_prime", one_route_wrong)
        code, out, err = run_cli(capsys, "hilb", "--f", "s:2,1", "--n", "4")
        assert code == 1 and out == ""
        assert err == "route cross-check failed\n"

    def test_over_the_tesler_route_budget_exits_2_at_once(self, capsys):
        # the eigen route gives the value in about 0.1 s; the n <= 5
        # cross-check is refused before its first tes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "hilb", "--f", "m:20,20", "--n", "5")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "the Tesler route at n=5" in err and "over its budget" in err

    def test_m_minus1(self, capsys):
        code, out, _ = run_cli(capsys, "hilb", "--f", "m:-1", "--n", "4")
        assert code == 0
        assert out.strip() == "-q^-3*t^-3 + 3*q^-2*t^-2 - 3*q^-1*t^-1 + 1"

    def test_prime_constant(self, capsys):
        code, out, _ = run_cli(capsys, "hilb", "--f", "e:0", "--n", "5", "--prime")
        assert code == 0 and out.strip() == "1"

    @pytest.mark.parametrize("target", ["en", "pn"])
    def test_prime_constant_at_n1(self, capsys, target):
        # n = 1 cross-checks both routes: the p-target's one hook vector is (),
        # whose one empty matrix weighs 1
        code, out, err = run_cli(capsys, "hilb", "--f", "e:0", "--n", "1", "--prime",
                                 "--target", target)
        assert code == 0 and out == "1\n" and err == ""

    def test_prime_p_target(self, capsys):
        # scaled p-target of the primed operator at m_{-1}: the single
        # surviving hook vector gives tes((-1, 0)) = 1/(q^2 t^2)
        code, out, _ = run_cli(capsys, "hilb", "--f", "m:-1", "--n", "3",
                               "--prime", "--target", "pn")
        assert code == 0 and out.strip() == "q^-2*t^-2"

    def test_p_target_needs_prime(self, capsys):
        code, _, err = run_cli(capsys, "hilb", "--f", "e:1", "--n", "3",
                               "--target", "pn")
        assert code == 2 and "primed" in err

    def test_parse_failure(self, capsys):
        code, _, _ = run_cli(capsys, "hilb", "--f", "p:2", "--n", "3")
        assert code == 2


class TestVerifyCommand:
    def test_single_suite(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "verify", "--suite", "thm-3-1",
                               "--n-max", "3", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["suite"] == "thm-3-1"
        assert payload["cases_run"] == 155
        assert payload["failures"] == []

    def test_all_lists_every_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n-max", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) >= 12

    def test_entry_range_with_leading_dash(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm-3-1",
                               "--n-max", "4", "--entry-range", "-2..2")
        assert code == 0
        assert json.loads(out)["cases_run"] == 175

    def test_parsed_defaults_build_the_default_bounds(self):
        args = build_parser().parse_args(["verify", "--suite", "thm-3-1"])
        assert cli._bounds(args) == Bounds()

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        # argparse refuses it before run_suite, which refuses it too
        with pytest.raises(KeyError, match="unknown suite 'nope'"):
            run_suite("nope")

    @pytest.mark.parametrize("value, note", [(RatFuncQT.from_laurent(Q ** -1), "not in Z[q,t]"),
                                             (RatFuncQT.from_binomials((), [ONE - Q]), "not Laurent")],
                             ids=["laurent", "fraction"])
    def test_f_observations_note_each_violation(self, monkeypatch, value, note):
        monkeypatch.setattr(verify, "virtual_F", lambda alpha, mu: value)
        notes = verify._f_observations([(1, 1), (1, 1)])
        assert notes["f_instances"] == 3 and notes["f_poly_when_entries_nonneg"] == 0
        assert notes["violations"] == [f"F(1, 1)_{mu} {note}" for mu in partitions_of(3)]

    @pytest.mark.parametrize("argv", [
        ["--suite", "prop-6-2", "--entry-range", "2..-2"],
        ["--suite", "prop-6-2", "--n-max", "-1"],
        ["--suite", "prop-6-2", "--n-max", "0"],
        ["--suite", "thm-4-1", "--entry-range", "0..0"],
    ])
    def test_bounds_that_check_nothing_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("suite", sorted(N_MAX_BUDGETS))
    def test_n_max_budget_exits_2_before_any_case(self, capsys, monkeypatch, suite):
        def build(bounds):
            raise AssertionError(f"{suite} built its cases over the n_max budget")

        budget = N_MAX_BUDGETS[suite]
        verify._check_budget(suite, Bounds(n_max=budget))
        monkeypatch.setitem(verify.SUITES, suite, build)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", str(budget + 1))
        assert code == 2 and out == ""
        assert f"suite {suite} has an n_max budget of {budget}," in err

    @pytest.mark.parametrize("suite, cap, n_max", [
        ("cor-4-4", 8, 9), ("cor-4-5", 8, 9),
        *((suite, 3, 4) for suite in ("thm-4-1", "cor-4-4", "cor-4-5", "cor-5-1")),
        ("thm-3-1", 4, 4), ("cor-3-2", 4, 4),
        # no --n-max: the suite's own default is over the budget
        ("cor-4-4", 4, None), ("cor-5-1", 4, None),
    ])
    def test_n_max_over_the_cap_exits_2_before_any_case(self, capsys, monkeypatch,
                                                         suite, cap, n_max):
        def build(bounds):
            raise AssertionError(f"{suite} built its cases over the partition-size budget")

        monkeypatch.setattr(macdonald, "PARTITION_SIZE_BUDGET", cap)
        # the cells of the largest partition the suite builds: thm-3-1 and
        # cor-3-2 run vectors of length n_max on partitions of n_max + 1 cells,
        # and cor-4-4 and cor-5-1 default to n_max 6 and 7
        if n_max is None:
            argv, cells = (), {"cor-4-4": 6, "cor-5-1": 7}[suite]
        else:
            argv = ("--n-max", str(n_max))
            cells = n_max + 1 if suite in ("thm-3-1", "cor-3-2") else n_max
            verify._check_budget(suite, Bounds(n_max=n_max - 1))
        monkeypatch.setitem(verify.SUITES, suite, build)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, *argv)
        assert code == 2 and out == ""
        assert f"n={cells} is over the partition-size budget of {cap}" in err

    def test_n_max_budget_speaks_before_the_partition_size_budget(self):
        # every suite on the Macdonald route builds partitions within the
        # budget at its n_max budget; thm-3-1 and cor-3-2 at any n_max
        for suite, cells in verify.MACDONALD_CELLS.items():
            if suite in N_MAX_BUDGETS:
                assert cells(Bounds(n_max=N_MAX_BUDGETS[suite])) <= PARTITION_SIZE_BUDGET, suite
            else:
                assert max(cells(Bounds(n_max=n)) for n in range(1, 100)) <= PARTITION_SIZE_BUDGET

    def test_all_checks_every_budget_before_any_suite(self, capsys, monkeypatch):
        def build(bounds):
            raise AssertionError("a suite ran before the budgets were checked")

        for suite in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, suite, build)
        n_max = str(min(N_MAX_BUDGETS.values()) + 1)
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", n_max)
        assert code == 2 and out == "" and "n_max budget" in err

    # the suites that read the entry range; the budget binds every suite
    @pytest.mark.parametrize("suite", ["thm-3-1", "cor-3-2", "thm-4-1", "lemmas-4-6-4-7",
                                       "prop-6-2", "prop-6-4", "all"])
    def test_entry_range_budget_exits_2_before_any_case(self, capsys, monkeypatch, suite):
        def build(bounds):
            raise AssertionError(f"{suite} built its cases over the entry-range budget")

        b = ENTRY_RANGE_BUDGET
        for name in verify.SUITES:
            verify._check_budget(name, Bounds(entry_range=(-b, b)))
            monkeypatch.setitem(verify.SUITES, name, build)
        for lo, hi in ((-b - 1, 0), (0, b + 1), (-9, 9)):
            code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                     "--entry-range", f"{lo}..{hi}")
            assert code == 2 and out == ""
            assert f"entry range {lo}..{hi} is over the budget" in err

    def test_all_has_its_own_entry_range_budget(self, capsys, monkeypatch):
        ran = []
        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, lambda bounds, name=name: ran.append(name)
                                or verify.Report(name, 1, [], 0))
        b = verify.ALL_ENTRY_RANGE_BUDGET
        assert b < ENTRY_RANGE_BUDGET
        code, out, err = run_cli(capsys, "verify", "--suite", "all",
                                 "--entry-range", f"-{b + 1}..{b + 1}")
        assert code == 2 and out == "" and ran == []
        assert f"entry range -{b + 1}..{b + 1} is over the budget of --suite all" in err
        code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--entry-range", f"-{b}..{b}")
        assert code == 0 and ran == list(verify.SUITES)

    @pytest.mark.parametrize("text", ["abc", "1", "1..x", ""])
    def test_malformed_entry_range_exits_2(self, capsys, text):
        code, _, err = run_cli(capsys, "verify", "--suite", "prop-6-2", "--entry-range", text)
        assert code == 2
        assert "--entry-range" in err and "invalid literal" not in err

    def test_cache_state_does_not_change_results(self):
        from teslab import macdonald

        warm = run_suite("cor-3-2", Bounds(n_max=2))
        for memo in (macdonald.pieri_d, macdonald.skew_pieri_c, macdonald.virtual_F):
            memo.cache_clear()
        cold = run_suite("cor-3-2", Bounds(n_max=2))
        assert warm.failures == cold.failures == []
        assert warm.cases_run == cold.cases_run

    def test_notes_do_not_depend_on_earlier_suites(self):
        before = run_suite("thm-3-1", Bounds(n_max=2)).notes
        run_suite("thm-4-1", Bounds(n_max=3))
        after = run_suite("thm-3-1", Bounds(n_max=2)).notes
        assert before == after
        assert before["f_instances"] == 85

    def test_report_is_pure_apart_from_stats_and_time(self):
        first, second = (run_suite("thm-3-1", Bounds(n_max=3)).to_json() for _ in range(2))
        for report in (first, second):
            del report["elapsed_ms"]
        first.pop("stats")
        stats = second.pop("stats")
        assert first == second
        times = [case["elapsed_ms"] for case in stats["slowest"]]
        assert len(times) == 5 and times == sorted(times, reverse=True)
        caches = stats["caches"]
        assert caches["teslab.macdonald.virtual_F"]["hits"] > 0
        # the first run filled every memo the suite uses
        assert all(c["misses"] == c["currsize"] == 0 for c in caches.values())

    def test_equal_case_compares_every_value_with_the_first(self):
        inputs = {"n": 1}
        assert verify._equal_case(inputs, lambda: 1, lambda: 1, lambda: 1)[1]() is None
        _, check = verify._equal_case(inputs, lambda: 1, lambda: 1, lambda: 2)
        assert check() == {"inputs": inputs, "lhs": "1", "rhs": "2"}

    @pytest.mark.parametrize("name, broken, identity", [
        ("inv_stat", lambda pi: 0, None),
        ("hilb_delta_prime", lambda *args: LaurentPolyQT(), "q-stirling"),
    ])
    def test_cor_5_1_checks_its_last_route(self, monkeypatch, name, broken, identity):
        # the ordered-set-partition sum and the delta-prime value are the
        # third values of their cases
        monkeypatch.setattr(verify, name, broken)
        failures = run_suite("cor-5-1", Bounds(n_max=3)).failures
        assert failures
        assert all(f["inputs"].get("identity") == identity for f in failures)

    def test_vectors_lists_every_length_shortest_first(self):
        assert verify._vectors((0, 1), 2) == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_alpha_cases_binds_each_vector(self):
        cases = verify._alpha_cases([(1,), (2,)], lambda a: a, lambda a: (1,), identity="x")
        assert [inputs for inputs, _ in cases] == [{"alpha": [1], "identity": "x"},
                                                   {"alpha": [2], "identity": "x"}]
        failures = [f for f in (check() for _, check in cases) if f is not None]
        assert failures == [{"inputs": {"alpha": [2], "identity": "x"},
                             "lhs": "(2,)", "rhs": "(1,)"}]

    @pytest.mark.parametrize("suite, name, mutant, n_max", [
        ("lemma-5-2", "levande_map", _blocks_reversed, 3),
        ("prop-6-1", "psi", _no_image_for_two_blocks, 3),
        ("prop-6-3", "area", lambda pf, cars: specializations.area(pf, cars) + 1, 3),
        ("thm-3-1", "tes_via_theorem", lambda a: macdonald.tes_via_theorem(a[::-1]), 2),
        ("cor-3-2", "hilb_tilde", lambda a, target: macdonald.hilb_tilde(a[::-1], target), 2),
        ("cor-5-1", "tes_t0", lambda a: specializations.tes_t0(a[::-1]), 3),
        ("prop-6-2", "tes_t1", lambda a: specializations.tes_t1(a[::-1]), 3),
        ("prop-6-4", "wt_alpha", lambda a, pf: specializations.wt_alpha(a[::-1], pf), 3),
    ], ids=["lemma-5-2", "prop-6-1", "prop-6-3", "thm-3-1", "cor-3-2", "cor-5-1", "prop-6-2",
            "prop-6-4"])
    def test_partition_sum_suites_fail_on_a_mutant(self, monkeypatch, suite, name, mutant,
                                                   n_max):
        # a psi with no image is a failure record, not an exception
        monkeypatch.setattr(verify, name, mutant)
        failures = run_suite(suite, Bounds(n_max=n_max)).failures
        assert failures
        assert all(set(f) == {"inputs", "lhs", "rhs"} for f in failures)

    def test_seed_controls_random_cases(self):
        a = run_suite("lemmas-4-6-4-7", Bounds(n_max=2, seed=1))
        b = run_suite("lemmas-4-6-4-7", Bounds(n_max=2, seed=1))
        assert a.cases_run == b.cases_run == 400
        assert a.failures == b.failures == []


class TestParserReuse:
    """main builds its parser once per process (build_parser is an lru_cache);
    a sequence of calls must read the same whether it shares that parser or
    rebuilds it before each call.  set_defaults(fn=...) binds the cmd_*
    handlers when the parser is built, so a test that patches a handler must
    clear build_parser's cache first."""

    @staticmethod
    def _argvs(tmp_path, session):
        return [
            ["tes", "--hooks", "1,1", "--bogus"],                      # argparse usage error
            ["hilb", "--f", "e:1"],                                    # argparse: --n missing
            ["tes", "--hooks", "1,1", "--route", "closed"],            # domain error
            ["hilb", "--f", "e:1", "--n", "3", "--target", "pn"],      # domain error
            ["tes", "--hooks", "2,0,3,1", "--format", "json",
             "--out", str(tmp_path / f"{session}.json")],
            ["verify", "--suite", "prop-6-3", "--entry-range", "-2..2"],
            ["enumerate", "--hooks", "1,1,1", "--format", "count"],
            ["tes", "--hooks", "1,1", "--spec", "t=1"],
            ["tes", "--hooks", "1,1"],                                 # no --spec left over
        ]

    def _session(self, capsys, monkeypatch, tmp_path, rebuild):
        # every session starts cold and reads a fixed clock, so that verify's
        # stats and times do not tell the two apart
        clear_teslab_caches()
        monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        session = "rebuilt" if rebuild else "shared"
        results = []
        for argv in self._argvs(tmp_path, session):
            if rebuild:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results, (tmp_path / f"{session}.json").read_text()

    def test_shared_parser_reads_like_a_new_one_each_call(self, capsys, monkeypatch, tmp_path):
        shared, shared_out = self._session(capsys, monkeypatch, tmp_path, rebuild=False)
        rebuilt, rebuilt_out = self._session(capsys, monkeypatch, tmp_path, rebuild=True)
        assert shared == rebuilt and shared_out == rebuilt_out
        assert [code for code, _, _ in shared] == [2, 2, 2, 2, 0, 0, 0, 0, 0]
        assert "unrecognized arguments: --bogus" in shared[0][2]
        assert json.loads(shared_out)["terms"] and shared[4][1] == ""
        report = json.loads(shared[5][1])
        assert report["suite"] == "prop-6-3" and report["failures"] == []
        assert shared[6][1] == "7\n"
        assert shared[7][1] == "2 + q\n" and shared[8][1] == "1 + q + t\n"

    def test_one_parser_per_process(self, capsys):
        build_parser.cache_clear()
        for _ in range(3):
            run_cli(capsys, "tes", "--hooks", "1,1")
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
