import json
from dataclasses import replace

import pytest

from flowauction.auction import price_raising
from flowauction.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, build_parser, run
from flowauction.model import instance_from_dict

EXAMPLE1 = {
    "objects": [{"id": "alpha", "supply": 1}, {"id": "beta", "supply": 1}],
    "buyers": [{"id": "b1", "demand": 2, "valuations": {"alpha": 5, "beta": 1}}],
}

FIG1 = {
    "objects": [
        {"id": "alpha", "supply": 1},
        {"id": "beta", "supply": 1},
        {"id": "gamma", "supply": 4},
    ],
    "buyers": [
        {"id": "j1", "demand": 4, "valuations": {"alpha": 3, "beta": 2, "gamma": 1}},
        {"id": "j2", "demand": 2, "valuations": {"beta": 2}},
    ],
}


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(EXAMPLE1))
    return str(path)


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(FIG1))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_example1(self, example1_file, capsys):
        code, payload = run_json(capsys, ["solve", example1_file])
        assert code == EXIT_OK
        assert payload["prices"] == {"alpha": 0, "beta": 0}
        assert payload["allocation"] == {"alpha": {"b1": 1}, "beta": {"b1": 1}}

    def test_empty_instance(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"objects": [], "buyers": []}))
        code, payload = run_json(capsys, ["solve", str(path)])
        assert code == EXIT_OK
        assert payload["prices"] == {}
        assert payload["allocation"] == {}

    def test_modes_print_identical_prices(self, fig1_file, capsys):
        code_a, unit = run_json(capsys, ["solve", fig1_file, "--mode", "unit"])
        code_b, adapted = run_json(capsys, ["solve", fig1_file, "--mode", "adapted"])
        assert code_a == code_b == EXIT_OK
        assert unit["prices"] == adapted["prices"] == {"alpha": 0, "beta": 1, "gamma": 0}

    def test_canonical_output_is_stable(self, fig1_file, capsys):
        run(["solve", fig1_file])
        first = capsys.readouterr().out
        run(["solve", fig1_file])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_roundtrip(self, fig1_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code, payload = run_json(capsys, ["solve", fig1_file, "--trace", str(trace_path)])
        assert code == EXIT_OK
        trace = json.loads(trace_path.read_text())
        assert trace["final"]["prices"] == payload["prices"]
        assert [rec["iter"] for rec in trace["iterations"]] == list(
            range(len(trace["iterations"]))
        )
        _, solved = price_raising(instance_from_dict(FIG1))
        assert len(trace["iterations"]) == len(solved.iterations)
        for rec, record in zip(trace["iterations"], solved.iterations):
            assert set(rec) == {
                "iter", "prices", "raised_set", "cut_nodes", "alpha", "flow_value", "cap_s",
                "handoff_gap",
            }
            assert rec["cut_nodes"] == list(record.cut_nodes)
            assert rec["handoff_gap"] == record.handoff_gap
            assert rec["handoff_gap"] is not None
        cold_path = tmp_path / "cold.json"
        run_json(capsys, ["solve", fig1_file, "--no-warm-start", "--trace", str(cold_path)])
        cold = json.loads(cold_path.read_text())["iterations"]
        assert cold and all(rec["handoff_gap"] is None for rec in cold)
        # replaying from any intermediate prices reaches the same final prices
        for rec in trace["iterations"]:
            start_path = tmp_path / f"start{rec['iter']}.json"
            start_path.write_text(json.dumps(rec["prices"]))
            code, replay = run_json(
                capsys, ["solve", fig1_file, "--start-prices", str(start_path)]
            )
            assert code == EXIT_OK
            assert replay["prices"] == payload["prices"]

    def test_nonzero_start_prices_warn(self, fig1_file, tmp_path, capsys):
        start_path = tmp_path / "start.json"
        start_path.write_text(json.dumps({"beta": 1}))
        code = run(["solve", fig1_file, "--start-prices", str(start_path)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "warning" in captured.err

    def test_start_price_on_an_unsupplied_object_neither_warns_nor_moves_the_dump(self, tmp_path, capsys):
        """The auction starts an object without supply at 0, so a start
        price on it alone is a zero start: no warning, and the dump shows
        the network the auction starts from (at Z = 5, A would be j's
        margin object instead)."""
        path = tmp_path / "unsupplied.json"
        path.write_text(json.dumps({
            "objects": [{"id": "A", "supply": 1}, {"id": "Z", "supply": 0}],
            "buyers": [{"id": "j", "demand": 3, "valuations": {"A": 5, "Z": 3}}],
        }))
        start_path = tmp_path / "start.json"
        start_path.write_text(json.dumps({"Z": 5}))
        zero_dump, start_dump = tmp_path / "zero.txt", tmp_path / "start.txt"
        code, zero = run_json(capsys, ["solve", str(path), "--dump-network", str(zero_dump)])
        assert code == EXIT_OK
        argv = ["solve", str(path), "--start-prices", str(start_path), "--dump-network", str(start_dump)]
        assert run(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out) == zero
        assert zero["prices"] == {"A": 0, "Z": 0} and zero["iterations"] == 0
        assert captured.err == ""
        assert start_dump.read_text() == zero_dump.read_text()
        assert "s -> j' [1, 1]" in zero_dump.read_text()
        assert "j' -> A [1, 1]" in zero_dump.read_text()

    def test_network_dump_golden(self, fig1_file, tmp_path, capsys):
        dump_path = tmp_path / "net.txt"
        code = run(["solve", fig1_file, "--dump-network", str(dump_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        dump = dump_path.read_text()
        assert "s -> j1' [2, 2]" in dump
        assert "s -> j2' [0, 0]" in dump
        assert "j1'' -> gamma [2, 2]" in dump
        assert "gamma -> t [4, 2]" in dump

    def test_missing_file(self, capsys):
        assert run(["solve", "no-such-file.json"]) == EXIT_PARSE

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert run(["solve", str(path)]) == EXIT_PARSE

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"objects": [], "buyers": [], "frobs": 2}))
        assert run(["solve", str(path)]) == EXIT_PARSE

    @pytest.mark.parametrize("key", ["objects", "buyers"])
    @pytest.mark.parametrize("value", [5, None])
    def test_entries_that_are_not_a_list_are_an_input_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({key: value}))
        assert run(["solve", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {key!r} must be a list, got {value!r}\n"

    def test_start_prices_stay_within_64_bits(self, tmp_path, capsys):
        path = tmp_path / "market.json"
        path.write_text(json.dumps({
            "objects": [{"id": "a", "supply": 1}],
            "buyers": [{"id": "b", "demand": 1, "valuations": {"a": 2**63 - 1}}],
        }))
        start_path = tmp_path / "start.json"
        start_path.write_text(json.dumps({"a": 2**63}))
        assert run(["solve", str(path), "--start-prices", str(start_path)]) == EXIT_PARSE
        assert f"error: price of 'a' exceeds the 64-bit bound {2**63 - 1}" in capsys.readouterr().err
        start_path.write_text(json.dumps({"a": 2**63 - 1}))
        code, payload = run_json(capsys, ["solve", str(path), "--start-prices", str(start_path)])
        assert code == EXIT_OK
        assert payload["prices"] == {"a": 2**63 - 1}
        assert payload["allocation"] == {"a": {"b": 1}}

    def test_unknown_flag(self, example1_file, capsys):
        assert run(["solve", example1_file, "--frotz"]) == EXIT_PARSE

    def test_missing_verb(self, capsys):
        assert run([]) == EXIT_PARSE

    def test_start_prices_above_the_minimum_are_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "market.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [{"id": "o1", "supply": 2}, {"id": "o2", "supply": 3}],
                    "buyers": [{"id": "b1", "demand": 3, "valuations": {"o1": 1}}],
                }
            )
        )
        start_path = tmp_path / "start.json"
        start_path.write_text(json.dumps({"o2": 3}))
        assert run(["solve", str(path), "--start-prices", str(start_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"error: the start prices in {start_path} are above the minimum competitive prices" in err
        assert "guarantee saturation" not in err

    def test_budget_is_not_a_solve_argument(self, example1_file, capsys):
        assert run(["solve", example1_file, "--budget", "5"]) == EXIT_PARSE


class TestVerify:
    def test_example1_passes(self, example1_file, capsys):
        code, payload = run_json(capsys, ["verify", example1_file])
        assert code == EXIT_OK
        assert payload["passed"] is True
        names = {check["name"] for check in payload["checks"]}
        assert {
            "stability",
            "market-clearing-quantity",
            "positive-price-sellout",
            "competitive-flow-criterion",
            "hall-condition",
            "bruteforce-minimum-agreement",
            "unit-adapted-agreement",
            "warm-cold-agreement",
            "iteration-bound",
        } <= names
        assert all(check["passed"] for check in payload["checks"])

    def test_fig1_passes_both_modes(self, fig1_file, capsys):
        for mode in ("unit", "adapted"):
            code, payload = run_json(capsys, ["verify", fig1_file, "--mode", mode])
            assert code == EXIT_OK and payload["passed"]

    def test_unit_trace_one_record_short_fails_the_iteration_bound(self, fig1_file, capsys, monkeypatch):
        import flowauction.cli as cli

        solve = cli.solve

        def one_record_short(instance, options):
            equilibrium = solve(instance, options)
            trace = replace(equilibrium.trace, iterations=equilibrium.trace.iterations[:-1])
            return replace(equilibrium, trace=trace)

        monkeypatch.setattr(cli, "solve", one_record_short)
        for mode, passed in (("unit", False), ("adapted", True)):
            code, payload = run_json(capsys, ["verify", fig1_file, "--mode", mode])
            (bound,) = [c for c in payload["checks"] if c["name"] == "iteration-bound"]
            assert (bound["passed"], payload["passed"]) == (passed, passed)
            assert bound["detail"] == "0 raises, largest increase 1"
            assert code == (EXIT_OK if passed else EXIT_VERIFY)

    def test_iteration_bound_counts_an_unsupplied_object_from_zero(self, tmp_path, capsys):
        """An object without supply starts at 0 whatever the start prices say."""
        path = tmp_path / "unsupplied.json"
        path.write_text(json.dumps({
            "objects": [{"id": "a", "supply": 0}],
            "buyers": [{"id": "x", "demand": 1, "valuations": {"a": 5}}],
        }))
        start_path = tmp_path / "start.json"
        start_path.write_text(json.dumps({"a": 3}))
        for mode in ("unit", "adapted"):
            argv = ["verify", str(path), "--mode", mode, "--start-prices", str(start_path)]
            code, payload = run_json(capsys, argv)
            assert code == EXIT_OK and payload["passed"] is True
            (bound,) = [c for c in payload["checks"] if c["name"] == "iteration-bound"]
            assert bound["detail"] == "0 raises, largest increase 0"

    def test_grid_check_searches_only_below_competitive_prices(self, tmp_path, capsys, monkeypatch):
        """Both objects are unsupplied, so the prices are 0; the whole grid,
        (840 + 2) ** 2 = 709k vectors, is within the default budget, but
        only the one vector below the competitive auction prices is tried."""
        import flowauction.verify as verify

        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({
            "objects": [{"id": "o1", "supply": 0}, {"id": "o2", "supply": 0}],
            "buyers": [
                {"id": "b1", "demand": 3, "valuations": {"o1": 840, "o2": 79}},
                {"id": "b2", "demand": 0, "valuations": {"o1": 0, "o2": 0}},
            ],
        }))
        flowcheck, checked = verify.is_competitive_flowcheck, []

        def counted(instance, prices):
            checked.append(prices.as_dict())
            return flowcheck(instance, prices)

        monkeypatch.setattr(verify, "is_competitive_flowcheck", counted)
        code, payload = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_OK and payload["passed"] is True
        (brute,) = [c for c in payload["checks"] if c["name"] == "bruteforce-minimum-agreement"]
        assert brute["passed"] is True
        # The bound, the one grid vector and the minimum found.
        assert checked == [{"o1": 0, "o2": 0}] * 3

    def test_negative_budget_is_a_parse_error(self, fig1_file, capsys):
        assert run(["verify", fig1_file, "--budget", "-1"]) == EXIT_PARSE
        assert "--budget: expected an integer of at least 0, got '-1'" in capsys.readouterr().err

    def test_small_budget_skips_bruteforce(self, fig1_file, capsys):
        """The box below fig1's prices {alpha: 0, beta: 1, gamma: 0} holds
        two vectors, one more than the budget."""
        code, payload = run_json(capsys, ["verify", fig1_file, "--budget", "1"])
        assert code == EXIT_OK
        brute = [c for c in payload["checks"] if c["name"] == "bruteforce-minimum-agreement"]
        assert brute[0]["passed"] is None and brute[0]["skipped"] is True
        assert brute[0]["detail"] == "price grid of 2 vectors exceeds budget 1"

    def test_grid_check_runs_where_the_box_fits(self, tmp_path, capsys):
        """The whole grid, 1002 ** 3 vectors, is beyond the default budget,
        but the box below the auction prices, 999 * 6 * 1 vectors, is not;
        it holds the minimum, a = 997, below the start a = 998."""
        path = tmp_path / "market.json"
        path.write_text(json.dumps({
            "objects": [{"id": "a", "supply": 1}, {"id": "b", "supply": 1}, {"id": "c", "supply": 5}],
            "buyers": [
                {"id": "x", "demand": 1, "valuations": {"a": 1000, "b": 3}},
                {"id": "y", "demand": 1, "valuations": {"a": 997, "b": 5}},
                {"id": "w", "demand": 1, "valuations": {"b": 7}},
                {"id": "z", "demand": 2, "valuations": {"a": 6, "b": 2, "c": 1000}},
            ],
        }))
        start_path = tmp_path / "start.json"
        start_path.write_text(json.dumps({"a": 998, "b": 5}))
        code, payload = run_json(capsys, ["verify", str(path), "--start-prices", str(start_path)])
        assert code == EXIT_VERIFY and payload["passed"] is False
        assert payload["prices"] == {"a": 998, "b": 5, "c": 0}
        (brute,) = [c for c in payload["checks"] if c["name"] == "bruteforce-minimum-agreement"]
        assert brute["passed"] is False
        assert brute["detail"] == "auction {'a': 998, 'b': 5, 'c': 0}, bruteforce {'a': 997, 'b': 5, 'c': 0}"

    def test_skipped_hall_check_says_why(self, tmp_path, capsys):
        objects = [{"id": f"o{k}", "supply": 1} for k in range(17)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "objects": objects,
            "buyers": [{"id": "b", "demand": 1, "valuations": {"o0": 1}}],
        }))
        code, payload = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_OK and payload["passed"] is True
        (hall,) = [c for c in payload["checks"] if c["name"] == "hall-condition"]
        assert hall["passed"] is None and hall["skipped"] is True
        assert hall["detail"] == "17 objects exceed the enumeration budget of 16"


class TestBrute:
    def test_example1(self, example1_file, capsys):
        code, payload = run_json(capsys, ["brute", example1_file])
        assert code == EXIT_OK
        assert payload["prices"] == {"alpha": 0, "beta": 0}

    def test_budget_exceeded(self, fig1_file, capsys):
        assert run(["brute", fig1_file, "--budget", "3"]) == EXIT_BUDGET

    def test_negative_budget_is_a_parse_error(self, fig1_file, capsys):
        assert run(["brute", fig1_file, "--budget", "-1"]) == EXIT_PARSE
        assert "exceeds budget" not in capsys.readouterr().err

    def test_mode_is_not_a_brute_argument(self, example1_file, capsys):
        assert run(["brute", example1_file, "--mode", "adapted"]) == EXIT_PARSE


class TestMonotone:
    def test_small_sweep(self, example1_file, capsys):
        code = run(["monotone", example1_file, "--pairs", "12", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "12/12 passed" in out
        assert out.count("pass") >= 12

    def test_negative_pairs_is_a_parse_error(self, example1_file, capsys):
        assert run(["monotone", example1_file, "--pairs", "-5"]) == EXIT_PARSE
        assert "passed" not in capsys.readouterr().out

    def test_deterministic_given_seed(self, example1_file, capsys):
        run(["monotone", example1_file, "--pairs", "6", "--seed", "5"])
        first = capsys.readouterr().out
        run(["monotone", example1_file, "--pairs", "6", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestDuplicateDemo:
    def test_example1_gap(self, example1_file, capsys):
        code, payload = run_json(capsys, ["duplicate-demo", example1_file])
        assert code == EXIT_OK
        assert payload["original"]["prices"] == {"alpha": 0, "beta": 0}
        assert payload["duplicated"]["prices"] == {"alpha#1": 4, "beta#1": 0}

    def test_start_prices_seed_only_the_original(self, example1_file, tmp_path, capsys):
        """The start prices name the original objects; the duplicated
        market is solved from zero prices."""
        start_path = tmp_path / "start.json"
        for start in ({}, {"beta": 0}):
            start_path.write_text(json.dumps(start))
            argv = ["duplicate-demo", example1_file, "--start-prices", str(start_path)]
            code, payload = run_json(capsys, argv)
            assert code == EXIT_OK
            assert payload["original"]["prices"] == {"alpha": 0, "beta": 0}
            assert payload["duplicated"]["prices"] == {"alpha#1": 4, "beta#1": 0}


def test_each_verb_takes_only_the_arguments_it_reads():
    verbs = next(action for action in build_parser()._actions if action.dest == "verb").choices
    solving = {"instance", "mode", "warm_start", "start_prices"}
    expected = {
        "solve": solving | {"trace", "dump_network"},
        "verify": solving | {"budget"},
        "brute": {"instance", "budget"},
        "monotone": solving | {"seed", "pairs"},
        "duplicate-demo": solving,
    }
    taken = {
        verb: {action.dest for action in sub._actions if action.dest != "help"}
        for verb, sub in verbs.items()
    }
    assert taken == expected
    assert sum(len(dests) for dests in taken.values()) == 23


class TestExitCodes:
    def test_verify_exit_code_values(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_VERIFY, EXIT_BUDGET) == (0, 1, 2, 3)

    def test_monotone_failure_exits_two(self, example1_file, capsys, monkeypatch):
        import flowauction.cli as cli

        monkeypatch.setattr(cli, "check_monotonicity_pair", lambda *args: False)
        assert run(["monotone", example1_file, "--pairs", "2"]) == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_verify_failure_exits_two(self, example1_file, capsys, monkeypatch):
        import flowauction.cli as cli

        monkeypatch.setattr(cli, "is_competitive_flowcheck", lambda *args: False)
        assert run(["verify", example1_file]) == EXIT_VERIFY
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
