"""CLI surface: scenario-file parsing and round-tripping, subcommands,
output schemas, determinism, and exit codes."""

import csv
import hashlib
import json
import math
import re

import numpy as np
import pytest

import twohop.cli
from twohop import (contact_rate, enumerate_saturating, grid_search, ratio_bound,
                    threshold_objective)
from twohop.cli import (
    CSV_FIELDS,
    main,
    parse_scenario,
    render_scenario,
    sample_scalability_scenario,
    sample_table_scenario,
)
from twohop.model import _log_miss_slopes
from conftest import make_scenario


def scenario_doc(**overrides):
    doc = {
        "deadline_s": 500.0,
        "slot_len_s": 100.0,
        "arena_radius_m": 500.0,
        "budget": 0.18126924692201815,
        "resolution": 1,
        "technologies": [{"id": "zigbee", "beacon_cost": 0.0}],
        "classes": [{
            "population": 1,
            "ttl_slots": 2,
            "speed_mps": 1.5,
            "range_m": 15.0,
            "tx_cost": 1.0,
            "technology": "zigbee",
        }],
    }
    doc.update(overrides)
    return doc


def two_class_doc():
    base = scenario_doc()["classes"][0]
    return scenario_doc(deadline_s=600.0, budget=0.3,
                        classes=[base, dict(base, speed_mps=3.0)])


def doc_with(fields):
    """scenario_doc with each "key" or "list.key" (in the list's first
    object) of ``fields`` set to its value."""
    doc = scenario_doc()
    for path, value in fields.items():
        part, _, key = path.rpartition(".")
        (doc[part][0] if part else doc)[key] = value
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_preset_pedestrian_zigbee_rate():
    sc = parse_scenario(scenario_doc())
    assert contact_rate(sc.classes[0], sc) == pytest.approx(3.1382e-4, rel=1e-4)


def test_parse_errors_carry_field_paths():
    with pytest.raises(ValueError, match="classes: at least one class"):
        parse_scenario(scenario_doc(classes=[]))
    with pytest.raises(ValueError, match=r"scenario\.budget"):
        parse_scenario({k: v for k, v in scenario_doc().items() if k != "budget"})
    doc = scenario_doc()
    doc["classes"][0]["speed_mps"] = "fast"
    with pytest.raises(ValueError, match=r"classes\[0\]\.speed_mps"):
        parse_scenario(doc)
    doc = scenario_doc()
    doc["classes"][0]["technology"] = "lte"
    with pytest.raises(ValueError, match="unknown technology"):
        parse_scenario(doc)
    doc = scenario_doc()
    doc["classes"][0]["population"] = 0
    with pytest.raises(ValueError, match=r"classes\[0\]"):
        parse_scenario(doc)


@pytest.mark.parametrize("fields, message", [
    ({"deadline_s": math.inf}, r"scenario: deadline must be finite"),
    ({"slot_len_s": math.inf}, r"scenario: slot_len must be finite"),
    ({"arena_radius_m": math.inf}, r"scenario: arena_radius must be finite"),
    ({"speed_constant": math.inf}, r"scenario: speed_constant must be finite"),
    ({"technologies.beacon_cost": math.inf}, r"technologies\[0\]: .*beacon_cost must be finite"),
    ({"classes.ttl_slots": math.nan}, r"classes\[0\]\.ttl_slots: expected a finite number"),
    ({"classes.ttl_slots": math.inf}, r"classes\[0\]\.ttl_slots: expected a finite number"),
    ({"classes.speed_mps": math.inf}, r"classes\[0\]: speed must be finite"),
    ({"classes.range_m": math.inf}, r"classes\[0\]: range_m must be finite"),
    ({"classes.tx_cost": math.inf}, r"classes\[0\]: tx_cost must be finite"),
    # numbers a float cannot hold, given or made by the TTL's scaling
    ({"budget": 10**400}, r"scenario\.budget: out of range"),
    ({"classes.population": 10**400}, r"classes\[0\]\.population: out of range"),
    ({"classes.ttl_slots": 1e308, "resolution": 5},
     r"classes\[0\]\.ttl_slots: 1e\+308 not representable at resolution 5"),
    # finite factors whose contact rate is not a finite number > 0
    ({"classes.speed_mps": 1e308}, r"classes\[0\]: contact rate must be finite and > 0"),
    ({"arena_radius_m": 1e-300}, r"classes\[0\]: contact rate must be finite and > 0"),
    ({"arena_radius_m": 1e200}, r"classes\[0\]: contact rate must be finite and > 0"),
], ids=["deadline", "slot-len", "arena", "speed-constant", "beacon-cost", "ttl-nan",
        "ttl-inf", "speed", "range", "tx-cost", "budget-overflow", "population-overflow",
        "ttl-overflow", "rate-overflow", "arena-underflow", "arena-overflow"])
def test_non_finite_scenario_number_is_input_error(tmp_path, capsys, fields, message):
    doc = doc_with(fields)
    with pytest.raises(ValueError, match=message):
        parse_scenario(doc)
    assert main(["solve", "--scenario", write_doc(tmp_path, doc)]) == 1
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("resolution", [0, -2])
def test_bad_resolution_names_its_field(tmp_path, capsys, resolution):
    # checked before it scales the TTLs, so no TTL takes the blame
    doc = scenario_doc(resolution=resolution)
    message = f"scenario.resolution: expected an integer >= 1, got {resolution}"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scenario(doc)
    assert main(["solve", "--scenario", write_doc(tmp_path, doc)]) == 1
    assert f"error: {message}\n" == capsys.readouterr().err


def test_infinite_budget_gives_the_all_full_profile(tmp_path):
    doc = two_class_doc()
    doc["budget"] = math.inf
    out = tmp_path / "reports.json"
    assert main(["solve", "--scenario", write_doc(tmp_path, doc), "--format", "json",
                 "--algorithm", ",".join(twohop.cli.ALGORITHMS), "--out", str(out)]) == 0
    sc = parse_scenario(doc)
    for rep in json.loads(out.read_text()):
        assert rep["thresholds_subslots"] == [float(sc.max_threshold)] * 2
        assert rep["feasible"] is True


def test_resolution_scales_grid_and_ttl():
    sc1 = parse_scenario(scenario_doc())
    sc5 = parse_scenario(scenario_doc(resolution=5))
    assert sc5.subslots == 5 * sc1.subslots
    assert sc5.eff_slot == pytest.approx(sc1.eff_slot / 5)
    assert sc5.classes[0].ttl_slots == 5 * sc1.classes[0].ttl_slots


def test_round_trip_exact():
    sc = parse_scenario(scenario_doc(resolution=3))
    assert parse_scenario(render_scenario(sc)) == sc
    rng = np.random.default_rng(1)
    ident, sampled = sample_table_scenario(rng)
    assert parse_scenario(render_scenario(sampled)) == sampled


def _rendered_draws():
    """The first 200 A4 draws at seeds 601 and 810 with beacons on even
    draws (the benchmark's table stream), ten scalability draws, a TTL of 7
    sub-slots at resolution 5 and an infinite budget."""
    out = []
    for seed in (601, 810):
        rng = np.random.default_rng(seed)
        out += [sample_table_scenario(rng, with_beacons=i % 2 == 0)[1] for i in range(200)]
    rng = np.random.default_rng(3)
    out += [sample_scalability_scenario(rng, 1 + i)[1] for i in range(10)]
    return out + [parse_scenario(doc_with({"resolution": 5, "classes.ttl_slots": 1.4})),
                  parse_scenario(scenario_doc(budget=math.inf))]


def test_rendered_scenario_text_golden():
    # benchmark request keys digest the rendered scenario text, so every
    # byte of it is pinned, and every rendered document reads back the same
    texts = []
    for sc in _rendered_draws():
        doc = render_scenario(sc)
        assert parse_scenario(doc) == sc
        texts.append(json.dumps(doc, sort_keys=True))
    assert '"ttl_slots": 1.4' in texts[-2] and '"budget": Infinity' in texts[-1]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "edd707071becd42b8e32c9995404da4dbcc67e50a547a905f6b9b6629080fa21"


@pytest.mark.parametrize("fields, message", [
    ({"classes.ttl_slots": "x", "classes.population": "y"},
     "classes[0].ttl_slots: expected a finite number, got 'x'"),
    ({"deadline_s": "x", "budget": "y"}, "scenario.deadline_s: expected a number, got 'x'"),
    ({"technologies.id": 5, "technologies.beacon_cost": "y"},
     "technologies[0].id: expected str, got int"),
], ids=["ttl-before-population", "deadline-before-budget", "id-before-beacon-cost"])
def test_scenario_errors_name_the_first_bad_field(fields, message):
    # two bad fields: the error names the first in reading order
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_scenario(doc_with(fields))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_solve_csv_and_json(tmp_path, capsys):
    path = write_doc(tmp_path, scenario_doc())
    out = tmp_path / "row.csv"
    assert main(["solve", "--scenario", path, "--algorithm", "grid",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert list(rows[0].keys()) == list(CSV_FIELDS)
    assert rows[0]["algorithm"] == "grid"
    assert float(rows[0]["objective"]) > 0.0
    assert float(rows[0]["ratio"]) <= 1.0

    out_json = tmp_path / "report.json"
    assert main(["solve", "--scenario", path, "--algorithm", "grid",
                 "--format", "json", "--out", str(out_json)]) == 0
    rep = json.loads(out_json.read_text())
    sc = parse_scenario(scenario_doc())
    lam_slot = contact_rate(sc.classes[0], sc) * sc.slot_len
    expect_h = -math.log1p(-sc.budget) / lam_slot
    assert rep["thresholds_subslots"][0] == pytest.approx(min(expect_h, 4.0), abs=1e-6)
    assert rep["feasible"] is True


def test_solve_uses_scenario_resolution(tmp_path):
    path = write_doc(tmp_path, scenario_doc(resolution=2))
    out = tmp_path / "report.json"
    assert main(["solve", "--scenario", path, "--format", "json", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["thresholds_slots"] == [h / 2 for h in rep["thresholds_subslots"]]


def test_solve_enumerates_once(tmp_path, monkeypatch):
    calls = []
    original = twohop.cli.grid_search

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(twohop.cli, "grid_search", counted)
    doc = two_class_doc()
    path = write_doc(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["solve", "--scenario", path, "--algorithm", "grid,greedy1",
                 "--format", "json", "--out", str(out)]) == 0
    assert len(calls) == 1
    reports = json.loads(out.read_text())
    direct = grid_search(parse_scenario(doc))
    assert reports[0]["algorithm"] == "grid"
    assert reports[0]["thresholds_subslots"] == list(direct.policy.thresholds)
    assert reports[0]["objective"] == direct.objective
    assert all(r["upper_bound"] == direct.upper_bound for r in reports)


def test_solve_bound_timeout_leaves_bound_empty(tmp_path):
    path = write_doc(tmp_path, two_class_doc())
    out = tmp_path / "report.json"
    assert main(["solve", "--scenario", path, "--algorithm", "greedy1", "--timeout", "0",
                 "--format", "json", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["algorithm"] == "greedy1"
    assert rep["upper_bound"] is None and rep["ratio"] is None


def test_solve_grid_timeout_is_request_error(tmp_path, capsys):
    path = write_doc(tmp_path, two_class_doc())
    assert main(["solve", "--scenario", path, "--algorithm", "grid", "--timeout", "0"]) == 2
    assert "grid search exceeded 0 s" in capsys.readouterr().err


def test_solve_all_algorithms(tmp_path):
    path = write_doc(tmp_path, scenario_doc())
    out = tmp_path / "rows.csv"
    assert main(["solve", "--scenario", path, "--out", str(out),
                 "--algorithm", "grid,greedy1,greedy2,combined,arrival,uniform"]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["algorithm"] for r in rows] == [
        "grid", "greedy1", "greedy2", "combined", "arrival", "uniform"]
    grid_obj = float(rows[0]["objective"])
    for r in rows[1:]:
        assert float(r["objective"]) <= grid_obj + 1e-9


def test_solve_grid_with_a_very_fast_class(tmp_path):
    # lam dt = 837 for the first class: e^x overflows the prune margin's
    # rounding bound and e^-x underflows in the slope table
    doc = two_class_doc()
    doc["classes"][0]["speed_mps"] = 40_000.0
    sc = parse_scenario(doc)
    assert sc.rates[0] * sc.eff_slot > 745.0
    assert np.all(np.isfinite(_log_miss_slopes(0, sc)))
    out = tmp_path / "rows.csv"
    assert main(["solve", "--scenario", write_doc(tmp_path, doc), "--out", str(out),
                 "--algorithm", "grid,greedy1"]) == 0
    grid_row, greedy_row = csv.DictReader(out.open())
    assert float(grid_row["objective"]) >= float(greedy_row["objective"])
    rep = grid_search(sc)
    best, count = 0.0, 0
    for frac_c in range(2):
        for assigned, r in enumerate_saturating(sc, frac_c):
            hs = [r if c == frac_c else float(assigned.get(c, 0)) for c in range(2)]
            best = max(best, threshold_objective(hs, sc))
            count += 1
    assert rep.enumerated == count
    assert rep.objective == float(grid_row["objective"]) == pytest.approx(best, abs=1e-12)


def test_solve_greedy2_rejected_with_beacons(tmp_path, capsys):
    doc = scenario_doc()
    doc["technologies"][0]["beacon_cost"] = 0.01
    path = write_doc(tmp_path, doc)
    assert main(["solve", "--scenario", path, "--algorithm", "greedy2"]) == 2
    assert "beacon" in capsys.readouterr().err


@pytest.mark.parametrize("error", [FloatingPointError, ValueError])
def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(twohop.cli, "grid_search", fail)
    assert main(["solve", "--scenario", write_doc(tmp_path, scenario_doc())]) == 3
    assert capsys.readouterr().err.startswith("internal numeric failure")


def test_run_algorithm_rejects_unknown_name():
    with pytest.raises(twohop.cli.CliInputError, match="unknown algorithm 'bogus'"):
        twohop.cli.run_algorithm("bogus", parse_scenario(scenario_doc()))


def test_solve_missing_file_is_input_error(capsys):
    assert main(["solve", "--scenario", "/nonexistent.json"]) == 1


@pytest.mark.parametrize("kind", ["scenario", "policy"])
@pytest.mark.parametrize("content", [None, "directory", b"\xff\xfe{}", b'{"budget": ', b"[" * 200_000],
                         ids=["missing", "directory", "non-utf8", "invalid-json", "deep-nesting"])
def test_unreadable_json_file_is_input_error(tmp_path, capsys, kind, content):
    # every way a scenario or policy file fails to decode exits 1 and names the file
    bad = tmp_path / "bad.json"
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    if kind == "scenario":
        argv = ["solve", "--scenario", str(bad)]
    else:
        argv = ["simulate", "--scenario", write_doc(tmp_path, scenario_doc()),
                "--policy-file", str(bad), "--trials", "10"]
    assert main(argv) == 1
    assert f"error: cannot read {kind} file {bad}: " in capsys.readouterr().err


def test_bad_flag_is_input_error(capsys):
    assert main(["solve", "--nope"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--trials", "0"], "--trials"),
    (["bound", "--slots", "0"], "--slots"),
    (["solve", "--timeout", "-1"], "--timeout"),
    (["solve", "--timeout", "nan"], "--timeout"),
    (["solve", "--resolution", "0"], "--resolution"),
    (["validate-enum", "--limit", "0"], "--limit"),
    (["sweep", "--count", "0"], "--count"),
    (["sweep", "--mode", "scalability", "--classes", "a"], "--classes"),
    (["sweep", "--mode", "scalability", "--classes", "2,x"], "--classes"),
    (["bound", "--slots", "5", "--classes", "abc"], "--classes"),
    (["bound", "--slots", "5", "--classes", "0.5"], "--classes"),
    (["bound", "--slots", "5", "--classes", "nan"], "--classes"),
    (["bound", "--slots", "9" * 401], "--slots"),
    (["sweep", "--seed", "-1"], "--seed"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["solve", "--ub-cap", "-5"], "--ub-cap"),
], ids=["trials", "slots", "timeout-negative", "timeout-nan", "resolution", "limit", "count",
        "sweep-classes-text", "sweep-classes-list", "bound-classes-text", "bound-classes-below-one",
        "bound-classes-nan", "slots-overflow", "sweep-seed", "simulate-seed", "ub-cap"])
def test_bad_numeric_flag_is_input_error(tmp_path, capsys, argv, flag):
    if argv[0] not in ("bound", "sweep"):
        argv = argv + ["--scenario", write_doc(tmp_path, two_class_doc())]
    assert main(argv) == 1
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--algorithm", "", "--format", "json"], "--algorithm: expected one or more of"),
    (["solve", "--algorithm", ","], "--algorithm: expected one or more of"),
    (["solve", "--algorithm", "grid,simplex"], "--algorithm: expected one or more of"),
    (["sweep", "--algorithms", ""], "--algorithms: expected one or more of"),
    (["simulate", "--algorithm", "bogus"], "--algorithm: invalid choice: 'bogus'"),
    (["simulate", "--algorithm", "bogus", "--policy-file"], "--algorithm: invalid choice: 'bogus'"),
], ids=["solve-empty", "solve-comma", "solve-unknown", "sweep-empty", "simulate-unknown",
        "simulate-unknown-with-policy-file"])
def test_algorithm_list_needs_known_names(tmp_path, capsys, monkeypatch, argv, message):
    # refused while the flags are read: no scenario is solved, sampled or
    # simulated, even where a policy file leaves the algorithm unused
    for name in ("_solve_instance", "run_algorithm", "validate"):
        monkeypatch.setattr(twohop.cli, name, None)
    if argv[-1] == "--policy-file":
        argv = argv + [write_doc(tmp_path, {"thresholds": [1.0, 1.0]}, name="policy.json")]
    if argv[0] != "sweep":
        argv = argv + ["--scenario", write_doc(tmp_path, two_class_doc())]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {message}" in captured.err


def test_solve_rejects_grid_beyond_subslot_limit(tmp_path, capsys, monkeypatch):
    # six slots at resolution 2001 are 12,006 sub-slots: refused before any
    # table is built; a grid at the limit itself is solved
    path = write_doc(tmp_path, two_class_doc())
    assert main(["solve", "--scenario", path, "--resolution", "2001"]) == 1
    err = capsys.readouterr().err
    assert "12006 sub-slots" in err and "MAX_SUBSLOTS = 10000" in err
    monkeypatch.setattr(twohop.cli, "MAX_SUBSLOTS", 12)
    assert main(["solve", "--scenario", path, "--resolution", "2"]) == 0
    assert main(["solve", "--scenario", path, "--resolution", "3"]) == 1
    assert "18 sub-slots exceed MAX_SUBSLOTS = 12" in capsys.readouterr().err


def test_sweep_rejects_grid_beyond_subslot_limit(tmp_path, capsys, monkeypatch):
    # scalability instances span 100 slots
    args = ["sweep", "--mode", "scalability", "--classes", "2", "--algorithms", "greedy1",
            "--out", str(tmp_path / "scal.csv")]
    assert main(args + ["--resolution", "101"]) == 1
    assert "10100 sub-slots exceed MAX_SUBSLOTS = 10000" in capsys.readouterr().err
    assert not (tmp_path / "scal.csv").exists()
    monkeypatch.setattr(twohop.cli, "MAX_SUBSLOTS", 300)
    assert main(args + ["--resolution", "3"]) == 0
    assert main(args + ["--resolution", "4"]) == 1
    assert "400 sub-slots exceed MAX_SUBSLOTS = 300" in capsys.readouterr().err


def test_simulate_rejects_solving_beyond_subslot_limit(tmp_path, capsys, monkeypatch):
    # the limit guards the tables a solve builds; a policy file builds none
    path = write_doc(tmp_path, two_class_doc())
    args = ["simulate", "--scenario", path, "--trials", "10"]
    assert main(args + ["--resolution", "2001"]) == 1
    assert "12006 sub-slots exceed MAX_SUBSLOTS = 10000" in capsys.readouterr().err
    monkeypatch.setattr(twohop.cli, "MAX_SUBSLOTS", 12)
    assert main(args + ["--resolution", "2", "--algorithm", "greedy1"]) == 0
    assert main(args + ["--resolution", "3", "--algorithm", "greedy1"]) == 1
    assert "18 sub-slots exceed MAX_SUBSLOTS = 12" in capsys.readouterr().err
    pol_path = tmp_path / "policy.json"
    pol_path.write_text(json.dumps({"thresholds": [1.5, 2.0]}))
    assert main(args + ["--resolution", "3", "--policy-file", str(pol_path)]) == 0


def test_bound_command(capsys):
    assert main(["bound", "--slots", "2", "--resolution", "10"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == 1.0 - 2.0 ** -10
    assert main(["bound", "--slots", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.5


def test_bound_on_a_grid_past_float_range(capsys):
    # (slots - 1) * resolution = 10**400 has no float; the bound is 1.0
    assert main(["bound", "--slots", str(10**200), "--resolution", str(10**200)]) == 0
    assert capsys.readouterr().out == "1.0\n"


def test_bound_json_keeps_class_text(capsys):
    # an empty --classes is the many-class limit, like inf; the JSON echoes the text
    for text, q in (("", math.inf), (" inf", math.inf), ("3", 3)):
        assert main(["bound", "--slots", "4", "--classes", text, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classes"] == text
        assert doc["ratio_bound"] == ratio_bound(4, 1, q)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bound_out_writes_what_stdout_would(tmp_path, capsys, fmt):
    # --format alone chooses the format; --out only moves the text to a file
    argv = ["bound", "--slots", "4", "--classes", "3", "--format", fmt]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    value = ratio_bound(4, 1, 3)
    assert (json.loads(shown)["ratio_bound"] if fmt == "json" else float(shown)) == value
    out = tmp_path / "bound.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text() == shown


def _without_wall_times(text: str):
    """A command's output with its wall times removed."""
    if text.startswith(("{", "[")):
        doc = json.loads(text)
        for report in doc if isinstance(doc, list) else [doc]:
            report.pop("wall_time_s", None)
        return doc
    if text.startswith("instance_id,"):
        return [{k: v for k, v in row.items() if k != "wall_time_s"}
                for row in csv.DictReader(text.splitlines())]
    return text


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    # the parser is built once per process; flags, formats, defaults and
    # errors of one call must not reach the next
    assert twohop.cli._build_parser() is twohop.cli._build_parser()
    path = write_doc(tmp_path, scenario_doc())
    sequence = [
        ["solve", "--scenario", path, "--format", "json"],
        ["solve", "--scenario", path, "--nope"],
        ["simulate", "--scenario", path, "--resolution", "2", "--trials", "2000"],
        ["bound", "--slots", "2"],
        ["solve", "--scenario", path],
    ]
    rounds = []
    for _ in range(2):
        replies = []
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            replies.append((code, _without_wall_times(captured.out), captured.err))
        rounds.append(replies)
    assert rounds[0] == rounds[1]
    solve_json, bad_flag, simulate, bound, solve_csv = rounds[0]
    assert solve_json[0] == 0 and solve_json[1]["algorithm"] == "grid"
    assert bad_flag[0] == 1 and "--nope" in bad_flag[2]
    assert simulate[0] == 0 and simulate[1][0]["trials"] == "2000"
    assert bound == (0, "0.5\n", "")   # resolution 1 and plain output
    assert solve_csv[0] == 0 and solve_csv[1][0]["objective"] == repr(solve_json[1]["objective"])


def test_sweep_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--mode", "table", "--count", "3", "--seed", "11",
            "--resolution", "2", "--algorithms", "greedy1,arrival,uniform"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_table_csv_golden(capsys):
    # pins the CSV columns (objective, upper bound, ratio, energy, work) on
    # 25 instances, nine of them three-class; thresholds are not CSV columns,
    # so the JSON golden below pins them
    assert main(["sweep", "--mode", "table", "--count", "25", "--seed", "7",
                 "--resolution", "5"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "bdcd84bc992813c3613ce6888b6c349237a0a5858c265beaf30827f6d762f176"


def test_sweep_table_json_golden(capsys):
    # pins every report field but the wall time, thresholds, feasibility,
    # the greedy certificates and the common threshold included
    assert main(["sweep", "--mode", "table", "--count", "25", "--seed", "7",
                 "--resolution", "5", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ce29b02c64be60254403ee8c3a2f38c18f1835194a83ffb084cdc666bb589ca2"


def test_sweep_json_lists_reports(capsys):
    args = ["sweep", "--mode", "table", "--count", "1", "--seed", "1", "--resolution", "1",
            "--algorithms", "greedy1"]
    assert main(args + ["--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(reports) == len(rows) == 1
    assert reports[0]["status"] == "ok" and reports[0]["algorithm"] == "greedy1"
    assert repr(reports[0]["objective"]) == rows[0]["objective"]
    assert "wall_time_s" not in reports[0]


def test_sweep_rows_for_inapplicable_algorithms(capsys):
    # both draws charge beacons, which greedy2 and combined cannot serve
    args = ["sweep", "--count", "2", "--seed", "7", "--algorithms", "greedy2,combined,arrival"]
    assert main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert main(args + ["--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["algorithm"] for r in rows] == [r["algorithm"] for r in reports] == [
        "greedy2", "combined", "arrival"] * 2
    for row, report in zip(rows, reports):
        if row["algorithm"] == "arrival":
            assert row["status"] == report["status"] == "ok"
        else:
            assert row["status"] == report["status"] == "inapplicable"
            assert [k for k, v in row.items() if v] == ["instance_id", "algorithm", "status"]
            assert sorted(report) == ["algorithm", "instance_id", "status"]
    assert main(args + ["--no-beacons"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert {r["status"] for r in rows if r["algorithm"] == "greedy2"} == {"ok"}


def test_sweep_table_with_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "table", "--count", "2", "--seed", "5",
                 "--resolution", "2", "--algorithms", "grid,greedy1",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    for row in rows:
        if row["algorithm"] == "grid":
            assert row["ratio"] != ""
            assert 0.0 < float(row["ratio"]) <= 1.0


def test_sweep_bound_without_grid(tmp_path):
    greedy_rows = {}
    for algorithms in ("greedy1", "grid,greedy1"):
        out = tmp_path / f"{algorithms}.csv"
        assert main(["sweep", "--mode", "table", "--count", "2", "--seed", "5",
                     "--resolution", "2", "--algorithms", algorithms,
                     "--out", str(out)]) == 0
        greedy_rows[algorithms] = [r for r in csv.DictReader(out.open())
                                   if r["algorithm"] == "greedy1"]
    assert len(greedy_rows["greedy1"]) == 2
    assert greedy_rows["greedy1"] == greedy_rows["grid,greedy1"]
    for row in greedy_rows["greedy1"]:
        assert 0.0 < float(row["ratio"]) <= 1.0
        assert float(row["objective"]) <= float(row["upper_bound"])


def test_sweep_scalability_timeout_row(tmp_path):
    out = tmp_path / "scal.csv"
    assert main(["sweep", "--mode", "scalability", "--classes", "2,5",
                 "--seed", "3", "--resolution", "2",
                 "--algorithms", "grid,greedy1", "--timeout", "0.5",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    status = {(r["algorithm"], r["instance_id"].split("_")[1]): r["status"]
              for r in rows}
    assert status[("grid", "C5")] == "timeout"
    assert status[("greedy1", "C5")] == "ok"


def test_sweep_empty_range_rejected(tmp_path, capsys):
    assert main(["sweep", "--mode", "scalability", "--classes", "",
                 "--seed", "1"]) == 1
    assert main(["sweep", "--mode", "table", "--count", "0", "--seed", "1"]) == 1


def test_simulate_with_algorithm_policy(tmp_path):
    path = write_doc(tmp_path, scenario_doc())
    out = tmp_path / "val.csv"
    assert main(["simulate", "--scenario", path, "--algorithm", "grid",
                 "--trials", "20000", "--seed", "9", "--out", str(out)]) == 0
    row = next(csv.DictReader(out.open()))
    assert row["flagged"] == "false"
    assert abs(float(row["empirical_energy"]) - float(row["analytic_energy"])) \
        <= 3 * float(row["energy_ci"])


def test_simulate_policy_file_roundtrip(tmp_path):
    path = write_doc(tmp_path, scenario_doc())
    pol_path = tmp_path / "policy.json"
    pol_path.write_text(json.dumps({"thresholds": [1.5]}))
    assert main(["simulate", "--scenario", path, "--policy-file", str(pol_path),
                 "--trials", "1000", "--seed", "2", "--out",
                 str(tmp_path / "v.csv")]) == 0


def test_simulate_policy_file_wrong_length(tmp_path, capsys):
    path = write_doc(tmp_path, scenario_doc())
    pol_path = tmp_path / "policy.json"
    pol_path.write_text(json.dumps({"thresholds": [1.0, 1.0]}))
    assert main(["simulate", "--scenario", path, "--policy-file",
                 str(pol_path)]) == 1
    assert "expected 1 entries" in capsys.readouterr().err


@pytest.mark.parametrize("policy", [
    {"policy": [[1.5, 0.0, 0.0, 0.0, 0.0]]},
    {"policy": [["high", 0.0, 0.0, 0.0, 0.0]]},
    {"thresholds": [None]},
], ids=["out-of-range", "non-numeric", "null-threshold"])
def test_simulate_malformed_policy_file_is_input_error(tmp_path, capsys, policy):
    path = write_doc(tmp_path, scenario_doc())
    pol_path = write_doc(tmp_path, policy, name="policy.json")
    assert main(["simulate", "--scenario", path, "--policy-file", pol_path]) == 1
    assert "policy." in capsys.readouterr().err


@pytest.mark.parametrize("policy, where", [
    ({"thresholds": ["1", True, "2.5"]}, "policy.thresholds[0]"),
    ({"thresholds": [1.0, True, 2.5]}, "policy.thresholds[1]"),
    ({"policy": [[0.0] * 5, [1.0, "0.5", 0.0, 0.0, 0.0], [0.0] * 5]}, "policy.policy[1][1]"),
    ({"policy": [[0.0] * 5, [0.0] * 5, [True, 0.0, 0.0, 0.0, 0.0]]}, "policy.policy[2][0]"),
    ({"thresholds": [1.0, 2.0, 10**400]}, "policy.thresholds[2]: out of range"),
    ({"policy": [[0.0] * 5, [0.0, 10**400, 0.0, 0.0, 0.0], [0.0] * 5]}, "policy.policy[1][1]"),
], ids=["string-threshold", "bool-threshold", "string-cell", "bool-cell", "overflow-threshold",
        "overflow-cell"])
def test_simulate_non_numeric_policy_entry_is_input_error(tmp_path, capsys, policy, where):
    base = scenario_doc()["classes"][0]
    doc = scenario_doc(classes=[base, dict(base, speed_mps=3.0), dict(base, speed_mps=6.0)])
    path = write_doc(tmp_path, doc)
    pol_path = write_doc(tmp_path, policy, name="policy.json")
    assert main(["simulate", "--scenario", path, "--policy-file", pol_path,
                 "--trials", "100"]) == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, policy, message", [
    ("solve", scenario_doc(classes=[1]), None, "error: classes[0]: expected an object"),
    ("solve", [scenario_doc()], None, "error: scenario: top level must be an object"),
    ("simulate", scenario_doc(), {"thresholds": [4.5]}, "error: policy.thresholds: threshold"),
    ("simulate", scenario_doc(), {"policy": [[0.0] * 4]},
     "error: policy.policy: expected a 1 x 5 matrix"),
    ("simulate", scenario_doc(), {"threshold": [1.0]},
     "error: policy file needs a 'thresholds' or 'policy' key"),
    ("validate-enum", scenario_doc(), None, "error: validate-enum needs at least two classes"),
], ids=["class-not-object", "top-level-list", "threshold-off-grid", "matrix-shape",
        "policy-without-key", "validate-enum-one-class"])
def test_malformed_input_is_input_error(tmp_path, capsys, command, doc, policy, message):
    # each input check exits 1 with its own message
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if policy is not None:
        argv += ["--trials", "10", "--policy-file", write_doc(tmp_path, policy, name="policy.json")]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_validate_enum_command(tmp_path, capsys):
    path = write_doc(tmp_path, two_class_doc())
    assert main(["validate-enum", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "mismatches: 0" in out


def test_validate_enum_with_a_costless_class(tmp_path, capsys):
    # a class without transmission or beacon cost is pinned to full
    # transmission: it is never the fractional class, and the brute force's
    # profiles are compared on the costly classes only
    base = scenario_doc()["classes"][0]
    doc = scenario_doc(budget=0.1, classes=[base, dict(base, speed_mps=3.0),
                                            dict(base, tx_cost=0.0)])
    path = write_doc(tmp_path, doc)
    assert main(["validate-enum", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "mismatches: 0" in out
    assert int(re.search(r"profiles checked: (\d+)", out).group(1)) > 0


def test_validate_enum_out_and_json(tmp_path, capsys):
    path = write_doc(tmp_path, two_class_doc())
    out = tmp_path / "ve.txt"
    assert main(["validate-enum", "--scenario", path, "--out", str(out), "--format", "json"]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["mismatches"] == 0 and doc["profiles_checked"] > 0


def test_validate_enum_too_large(tmp_path, capsys):
    path = write_doc(tmp_path, two_class_doc())
    assert main(["validate-enum", "--scenario", path, "--limit", "2"]) == 1
