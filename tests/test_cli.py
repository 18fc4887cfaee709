import json

import pytest

from teslab.cli import main
from teslab.qt_algebra import parse_poly_json
from teslab.tesler import enumerate_tesler, parse_hooks, tes
from teslab.verify import Bounds, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert parse_poly_json(payload["terms"]) == tes((1, 1, 1))

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

    @pytest.mark.parametrize("hooks", ["1,1,1", "0,1"])
    def test_stream_bytes_match_joined_output(self, capsys, tmp_path, hooks):
        # the lines joined by "\n" plus one final "\n"; "\n" alone when empty
        joined = "\n".join(json.dumps(U.to_json())
                           for U in enumerate_tesler(parse_hooks(hooks))) + "\n"
        code, out, _ = run_cli(capsys, "enumerate", "--hooks", hooks)
        assert code == 0 and out == joined
        path = tmp_path / "stream.jsonl"
        assert run_cli(capsys, "enumerate", "--hooks", hooks, "--out", str(path))[0] == 0
        assert path.read_bytes() == joined.encode()


class TestHilbCommand:
    def test_e1(self, capsys):
        code, out, _ = run_cli(capsys, "hilb", "--f", "e:1", "--n", "3")
        assert code == 0
        assert out.strip() == "3 + 3*q + 3*t + q^2 + q*t + t^2"

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_nmax_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("TESLAB_NMAX", raw)
        code, out, err = run_cli(capsys, "hilb", "--f", "e:1", "--n", "3")
        assert code == 2 and out == ""
        assert "TESLAB_NMAX must be an integer of at least 1" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_is_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, "hilb", "--f", "e:1", "--n", n)
        assert code == 2 and out == ""
        assert f"n must be at least 1, got {n}" in err

    def test_m_minus1(self, capsys):
        code, out, _ = run_cli(capsys, "hilb", "--f", "m:-1", "--n", "4")
        assert code == 0
        assert out.strip() == "-q^-3*t^-3 + 3*q^-2*t^-2 - 3*q^-1*t^-1 + 1"

    def test_prime_constant(self, capsys):
        code, out, _ = run_cli(capsys, "hilb", "--f", "e:0", "--n", "5", "--prime")
        assert code == 0 and out.strip() == "1"

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

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

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

    def test_seed_controls_random_cases(self):
        a = run_suite("lemmas-4-6-4-7", Bounds(n_max=2, seed=1))
        b = run_suite("lemmas-4-6-4-7", Bounds(n_max=2, seed=1))
        assert a.cases_run == b.cases_run == 400
        assert a.failures == b.failures == []
