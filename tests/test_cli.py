import hashlib
import json
import os
import stat
from dataclasses import replace

import pytest

from flowauction.auction import SolveOptions, price_raising
from flowauction.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, build_parser, run, run_verification
from flowauction.model import PriceVector, instance_from_dict
from flowauction.verify import DEFAULT_BUDGET
from conftest import HUGE_VALUES, pinned_markets

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


@pytest.fixture
def huge_value_file(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_VALUES))
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
            # No flow is carried between networks; the field keeps the layout.
            assert rec["handoff_gap"] is None
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
        the network the auction starts from."""
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
        assert "s -> j'' [1, 1]" in zero_dump.read_text()
        assert "j'' -> A [1, 1]" in zero_dump.read_text()

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

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf-8", "too-deep"])
    @pytest.mark.parametrize("role", ["instance", "start-prices"])
    def test_undecodable_file_is_an_input_error(self, example1_file, tmp_path, capsys, role, content):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        if role == "instance":
            argv = ["solve", str(path)]
        else:
            argv = ["solve", example1_file, "--start-prices", str(path)]
        assert run(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON (")

    def test_ids_that_read_as_node_labels_are_an_input_error(self, tmp_path, capsys):
        # Buyer x's tier would print as x', object x' as well, and the
        # source and sink as s and t.
        path = tmp_path / "labels.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [{"id": "s", "supply": 1}, {"id": "x'", "supply": 1}],
                    "buyers": [
                        {"id": "x", "demand": 1, "valuations": {"s": 2}},
                        {"id": "t", "demand": 1, "valuations": {"x'": 2}},
                    ],
                }
            )
        )
        dump_path = tmp_path / "net.txt"
        assert run(["solve", str(path), "--dump-network", str(dump_path)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: id 's' is reserved\n"
        assert not dump_path.exists()

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

    def test_a_unit_trace_beyond_the_record_budget_exits_three(self, huge_value_file, tmp_path, capsys):
        """A unit solve of 10^9 raises reports them; only writing its trace
        stops at the record budget, before the file is opened."""
        code, payload = run_json(capsys, ["solve", huge_value_file])
        assert code == EXIT_OK and payload["iterations"] == 1000000000
        trace_path = tmp_path / "trace.json"
        assert run(["solve", huge_value_file, "--trace", str(trace_path)]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the trace would hold 1000000000 records, beyond the budget of 1000000\n"
        assert not trace_path.exists()
        code, payload = run_json(capsys, ["solve", huge_value_file, "--mode", "adapted"])
        assert code == EXIT_OK and payload["iterations"] == 2

    def test_a_run_stopped_by_the_record_budget_writes_no_file(self, huge_value_file, tmp_path, capsys):
        """The network dump is written only after the solve and the trace's
        budget check, so a run that exits 3 leaves neither file."""
        dump_path, trace_path = tmp_path / "net.txt", tmp_path / "trace.json"
        argv = ["solve", huge_value_file, "--dump-network", str(dump_path), "--trace", str(trace_path)]
        assert run(argv) == EXIT_BUDGET
        assert capsys.readouterr().out == ""
        assert not dump_path.exists() and not trace_path.exists()

    @pytest.mark.parametrize("bad", ["--dump-network", "--trace"])
    def test_a_file_that_cannot_be_written_leaves_the_other_unwritten(self, tmp_path, capsys, bad):
        """A run whose dump or trace cannot be written exits 1 and creates
        neither file, and leaves no temporary file behind."""
        path = tmp_path / "market.json"
        path.write_text(json.dumps({
            "objects": [{"id": "a", "supply": 1}],
            "buyers": [{"id": j, "demand": 1, "valuations": {"a": 3}} for j in ("x", "y")],
        }))
        good, missing = tmp_path / "out.txt", tmp_path / "nodir" / "out.txt"
        argv = ["solve", str(path)]
        for flag in ("--dump-network", "--trace"):
            argv += [flag, str(missing if flag == bad else good)]
        assert run(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["market.json"]

    def test_a_directory_in_place_of_a_file_changes_neither(self, fig1_file, tmp_path, capsys):
        """A trace path that names a directory fails before the dump is
        moved into place, so an existing dump keeps its bytes."""
        dump_path, trace_dir = tmp_path / "net.txt", tmp_path / "trace"
        dump_path.write_text("old\n")
        trace_dir.mkdir()
        assert run(["solve", fig1_file, "--dump-network", str(dump_path), "--trace", str(trace_dir)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{trace_dir}'\n"
        assert dump_path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1.json", "net.txt", "trace"]

    def test_a_trace_through_a_symlink_reaches_its_target(self, fig1_file, tmp_path, capsys):
        """A trace path that is a symlink stays a link, and the file it
        points to gets the trace."""
        direct, target, link = tmp_path / "direct.json", tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run(["solve", fig1_file, "--trace", str(direct)]) == EXIT_OK
        assert run(["solve", fig1_file, "--trace", str(link)]) == EXIT_OK
        capsys.readouterr()
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == direct.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.json", "fig1.json", "link.json", "target.json"]

    @pytest.mark.parametrize("through_link", [False, True])
    def test_a_trace_and_a_dump_to_one_file_are_an_input_error(self, fig1_file, tmp_path, capsys, through_link):
        """Two files at one regular or new path would leave only the one
        written last, so the run exits 1 before it solves and writes
        nothing."""
        out = tmp_path / "out.txt"
        trace = tmp_path / "link.txt" if through_link else out
        if through_link:
            trace.symlink_to(out)
        assert run(["solve", fig1_file, "--trace", str(trace), "--dump-network", str(out)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trace and --dump-network name the same file: {os.path.realpath(out)}\n"
        assert not out.exists()

    def test_a_trace_and_a_dump_both_to_the_null_device_solve(self, fig1_file, capsys):
        assert run(["solve", fig1_file, "--trace", os.devnull, "--dump-network", os.devnull]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["prices"] == {"alpha": 0, "beta": 1, "gamma": 0}

    def test_a_dump_to_the_null_device_leaves_it_a_device(self, fig1_file, tmp_path, capsys):
        """A path that is not a regular file is written in place."""
        trace_path = tmp_path / "trace.json"
        assert run(["solve", fig1_file, "--dump-network", os.devnull, "--trace", str(trace_path)]) == EXIT_OK
        capsys.readouterr()
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)
        assert json.loads(trace_path.read_text())["final"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1.json", "trace.json"]

    def test_budget_is_not_a_solve_argument(self, example1_file, capsys):
        assert run(["solve", example1_file, "--budget", "5"]) == EXIT_PARSE


BUYER = {"id": "b", "demand": 1}
BAD_INPUTS = {
    "top-level-array": ([], None, []),
    "object-id-not-a-string": ({"objects": [{"id": 1, "supply": 1}]}, None, []),
    "duplicate-object-ids": ({"objects": [{"id": "a", "supply": 1}, {"id": "a", "supply": 2}]}, None, []),
    "unknown-buyer-key": ({"buyers": [{**BUYER, "budget": 3}]}, None, []),
    "null-buyer-id": ({"buyers": [{**BUYER, "id": None}]}, None, []),
    "duplicate-buyer-ids": ({"buyers": [BUYER, BUYER]}, None, []),
    "valuations-not-a-mapping": ({"buyers": [{**BUYER, "valuations": [1]}]}, None, []),
    "total-supply-beyond-64-bits": (
        {"objects": [{"id": "a", "supply": 2**62}, {"id": "c", "supply": 2**62}]}, None, []
    ),
    "start-prices-not-an-object": (EXAMPLE1, [1], []),
    "budget-not-a-number": (EXAMPLE1, None, ["--budget", "abc"]),
}


@pytest.mark.parametrize("instance, start, extra", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_an_input_error(tmp_path, capsys, instance, start, extra):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(instance))
    argv = ["verify", str(path), *extra]
    if start is not None:
        start_path = tmp_path / "start.json"
        start_path.write_text(json.dumps(start))
        argv += ["--start-prices", str(start_path)]
    assert run(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
            "iteration-bound",
        } == names
        assert all(check["passed"] for check in payload["checks"])

    def test_fig1_passes_both_modes(self, fig1_file, capsys):
        for mode in ("unit", "adapted"):
            code, payload = run_json(capsys, ["verify", fig1_file, "--mode", mode])
            assert code == EXIT_OK and payload["passed"]

    def test_unit_trace_one_record_short_fails_the_iteration_bound(self, fig1_file, capsys, monkeypatch):
        import flowauction.cli as cli

        solve = cli.solve

        def one_walk_short(instance, options):
            equilibrium = solve(instance, options)
            trace = replace(equilibrium.trace, walks=equilibrium.trace.walks[:-1])
            return replace(equilibrium, trace=trace)

        monkeypatch.setattr(cli, "solve", one_walk_short)
        for mode, passed in (("unit", False), ("adapted", True)):
            code, payload = run_json(capsys, ["verify", fig1_file, "--mode", mode])
            (bound,) = [c for c in payload["checks"] if c["name"] == "iteration-bound"]
            assert (bound["passed"], payload["passed"]) == (passed, passed)
            assert bound["detail"] == "0 raises, largest increase 1"
            assert code == (EXIT_OK if passed else EXIT_VERIFY)

    def test_verify_climbs_once(self, fig1_file, capsys, monkeypatch):
        """The mode picks only a view of the climb's walks, so verify runs
        no climb besides the solve's, through the CLI or the library.  The
        CLI does not bind ``price_raising``, so every climb it runs passes
        through ``auction``'s."""
        import flowauction.auction as auction
        import flowauction.cli as cli

        climb = auction.price_raising
        calls = []

        def counted(instance, options):
            calls.append(options.mode)
            return climb(instance, options)

        monkeypatch.setattr(auction, "price_raising", counted)
        assert not hasattr(cli, "price_raising")
        instance = instance_from_dict(FIG1)
        for mode in ("unit", "adapted"):
            calls.clear()
            code, payload = run_json(capsys, ["verify", fig1_file, "--mode", mode])
            assert code == EXIT_OK and payload["passed"]
            assert calls == [mode]
            calls.clear()
            report = run_verification(instance, SolveOptions(mode=mode), DEFAULT_BUDGET)
            assert report["passed"] and calls == [mode]

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
        only the one vector below the competitive auction prices is tried,
        and only once: the verdict of the flow-criterion check is the
        grid's."""
        import flowauction.cli as cli
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
        monkeypatch.setattr(cli, "is_competitive_flowcheck", counted)
        code, payload = run_json(capsys, ["verify", str(path)])
        assert code == EXIT_OK and payload["passed"] is True
        (brute,) = [c for c in payload["checks"] if c["name"] == "bruteforce-minimum-agreement"]
        assert brute["passed"] is True
        # The bound only, checked once: it is the one grid vector and the
        # minimum found.
        assert checked == [{"o1": 0, "o2": 0}]

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

    def test_unit_runs_beyond_the_record_budget_verify_and_duplicate(self, huge_value_file, capsys):
        """Unit runs of 10^9 raises write no trace, so no budget stops them."""
        bounds = {}
        for mode in ("unit", "adapted"):
            code, payload = run_json(capsys, ["verify", huge_value_file, "--mode", mode])
            assert code == EXIT_OK and payload["passed"] is True
            checks = {c["name"]: c for c in payload["checks"]}
            # Only the grid, far beyond the budget, is not enumerated.
            assert [name for name, c in checks.items() if c["passed"] is not True] == [
                "bruteforce-minimum-agreement"
            ]
            assert checks["bruteforce-minimum-agreement"]["skipped"] is True
            bounds[mode] = checks["iteration-bound"]["detail"]
        assert bounds == {
            "unit": "1000000000 raises, largest increase 1000000000",
            "adapted": "2 raises, largest increase 1000000000",
        }
        code, payload = run_json(capsys, ["duplicate-demo", huge_value_file])
        assert code == EXIT_OK
        assert payload["duplicated"]["prices"] == {"a#1": 10**9, "b#1": 10**9 - 1}

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

    def test_a_market_too_large_to_duplicate_exceeds_the_budget(self, tmp_path, capsys, monkeypatch):
        """The duplicated market holds a value per unit copy and unit buyer,
        so (supply + 1) x (demand + 1) beyond the budget stops the demo
        before anything is solved or duplicated."""
        import flowauction.cli as cli

        def refuse(*args):
            raise AssertionError("the demo went on past its budget check")

        monkeypatch.setattr(cli, "solve", refuse)
        monkeypatch.setattr(cli, "duplicate_instance", refuse)
        path = tmp_path / "large.json"
        path.write_text(json.dumps({
            "objects": [{"id": "a", "supply": 1000}],
            "buyers": [{"id": "b", "demand": 1000, "valuations": {"a": 5}}],
        }))
        assert run(["duplicate-demo", str(path)]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicating supply 1000 and demand 1000 exceeds budget 1000000\n"


def test_each_verb_takes_only_the_arguments_it_reads():
    """A verb takes a solver flag only where its output shows the effect:
    the mode sets `solve`'s iterations and records and `verify`'s
    iteration bound."""
    verbs = next(action for action in build_parser()._actions if action.dest == "verb").choices
    seeded = {"instance", "start_prices"}
    expected = {
        "solve": seeded | {"mode", "trace", "dump_network"},
        "verify": seeded | {"mode", "budget"},
        "brute": {"instance", "budget"},
        "monotone": seeded | {"seed", "pairs"},
        "duplicate-demo": seeded,
    }
    taken = {
        verb: {action.dest for action in sub._actions if action.dest != "help"}
        for verb, sub in verbs.items()
    }
    assert taken == expected
    assert sum(len(dests) for dests in taken.values()) == 17


@pytest.mark.parametrize(
    "argv",
    [
        "monotone --mode unit",
        "monotone --warm-start",
        "monotone --no-warm-start",
        "duplicate-demo --mode unit",
        "duplicate-demo --warm-start",
        "duplicate-demo --no-warm-start",
        "verify --warm-start",
        "verify --no-warm-start",
        "solve --warm-start",
        "solve --no-warm-start",
    ],
)
def test_a_solver_flag_whose_effect_a_verb_does_not_show_is_a_parse_error(example1_file, capsys, argv):
    verb, *flags = argv.split()
    assert run([verb, example1_file, *flags]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(flags)}\n"


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


PINNED_REPORT_DIGEST = "d4bdba9371b13fc6"


def test_verify_reports_are_pinned():
    """A digest of ``run_verification`` reports as canonical JSON, in unit
    and adapted mode with a grid budget of 3000, over the first 75 pairs of
    the pinned sweep: each market from zero prices, then its twin restarted
    from the market's prices.  A change that moves it changes what a check
    reports; re-recording it needs a line in CHANGES.md saying why."""
    digest = hashlib.sha256()
    for base, twin in list(pinned_markets())[:75]:
        for mode in ("unit", "adapted"):
            start = None
            for inst in (base, twin):
                options = SolveOptions(mode=mode, start_prices=start)
                report = run_verification(inst, options, 3000)
                digest.update(json.dumps(report, indent=2, sort_keys=True).encode())
                start = PriceVector(report["prices"])
    assert digest.hexdigest()[:16] == PINNED_REPORT_DIGEST
