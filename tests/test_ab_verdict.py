"""The verdict rules of ``scripts/ab.py``, each at its boundary, and
the script end to end against stub checkouts.

``verdict()`` decides every paired performance claim, so each outcome
is pinned where it gives way to the next: ``unresolved`` (parent IQR
over the bound, runs overlapping), ``improved`` (9 in 10 wins and a gap
over the parent's IQR), ``worse`` (median worse by more than the bound)
and ``within bound``.  The ``seed3`` rows are a recorded 5-pair round
(``benchmarks/trajectories/ab-campaign-dense-seed3-parent-change.txt``)
in which one disturbed parent run widened the parent's IQR.

The end-to-end tests run ``main()`` on checkouts under ``tmp_path``
that hold the repository's ``BENCHMARK.json`` and a stub
``perfbench/run.py`` printing a canned result, so no benchmark runs.
The last tests read the recorded reports under
``benchmarks/trajectories/``: each agrees with its file name, and each
recorded verdict follows from its recorded runs under today's rules.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import shutil

import pytest

_REPO = pathlib.Path(__file__).resolve().parent.parent
_PATH = _REPO / "scripts" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

LOWER = {"name": "latency_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_per_s", "better": "higher", "bound": 0.20}

SEED3_LATENCY = ([30.92, 31.14, 31.63, 39.32, 31.02],
                 [27.09, 27.16, 28.24, 27.79, 27.86])
SEED3_THROUGHPUT = ([62.94, 61.57, 60.57, 34.09, 63.88],
                    [69.56, 68.44, 66.74, 65.0, 67.06])
#: Quartiles 85 and 115 around a median of 100: IQR share 0.30.
WIDE = [80.0, 90.0, 100.0, 110.0, 120.0]


def word(metric, parent, change) -> str:
    return ab.verdict(metric, parent, change)["verdict"]


def test_wins_at_every_pair_but_a_gap_inside_the_iqr_is_within_bound():
    parent, change = SEED3_LATENCY
    row = ab.verdict(LOWER, parent, change)
    assert row["wins"] == 5
    assert row["parent"] - row["change"] < row["iqr"]
    assert row["verdict"] == "within bound"


def test_a_wide_parent_iqr_gives_way_to_a_fully_separated_change():
    parent, change = SEED3_THROUGHPUT
    row = ab.verdict(HIGHER, parent, change)
    assert row["iqr"] / row["parent"] > HIGHER["bound"]
    assert min(change) > max(parent)
    assert row["verdict"] == "within bound"
    # One change run inside the parent's range: the spread decides.
    assert word(HIGHER, parent, change[:-1] + [63.0]) == "unresolved"


@pytest.mark.parametrize("bound, expected", [
    (0.30, "within bound"),     # IQR share equal to the bound
    (0.29, "unresolved"),       # IQR share just over it
])
def test_unresolved_needs_the_iqr_share_strictly_over_the_bound(
        bound, expected):
    metric = dict(LOWER, bound=bound)
    assert word(metric, WIDE, [100.0] * 5) == expected


def test_unresolved_comes_before_worse():
    # The change's median is 50% worse, but the parent spread is too
    # wide to judge and the runs overlap.
    assert word(LOWER, WIDE, [150.0, 150.0, 150.0, 110.0, 150.0]) \
        == "unresolved"


@pytest.mark.parametrize("wins, expected", [
    (10, "improved"),
    (9, "improved"),            # ceil(0.9 * 10)
    (8, "within bound"),
])
def test_improved_needs_nine_in_ten_wins(wins, expected):
    parent = [10.0] * 10
    change = [9.0] * wins + [10.0] * (10 - wins)    # a tie wins nothing
    row = ab.verdict(LOWER, parent, change)
    assert row["wins"] == wins
    assert row["verdict"] == expected


def test_improved_needs_the_gap_strictly_over_the_parent_iqr():
    parent = [9.0, 10.0, 10.0, 10.0, 11.0]     # quartiles 9.5, 10.5
    assert ab.verdict(LOWER, parent, [8.0] * 5)["iqr"] == 1.0
    # Each change run beats its pair's parent run; only the gap differs.
    assert word(LOWER, parent, [8.5, 8.99, 8.99, 8.99, 9.5]) == "improved"
    gap_is_iqr = ab.verdict(LOWER, parent, [8.5, 9.0, 9.0, 9.0, 9.5])
    assert (gap_is_iqr["wins"], gap_is_iqr["verdict"]) == (5, "within bound")


@pytest.mark.parametrize("metric, change, expected", [
    (LOWER, 125.0, "within bound"),     # exactly the bound worse
    (LOWER, 126.0, "worse"),
    (HIGHER, 80.0, "within bound"),
    (HIGHER, 79.0, "worse"),
])
def test_worse_needs_the_median_strictly_past_the_bound(
        metric, change, expected):
    assert word(metric, [100.0] * 4, [change] * 4) == expected


def test_a_change_that_reads_better_on_a_higher_is_better_metric():
    row = ab.verdict(HIGHER, [100.0] * 10, [110.0] * 10)
    assert (row["wins"], row["delta_pct"], row["verdict"]) \
        == (10, 10.0, "improved")


SPEC = json.loads((_REPO / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]


@pytest.mark.parametrize("values, expected", [
    ([7.0], (7.0, 7.0)),                # one run: no spread
    ([1.0, 2.0, 3.0, 4.0], (1.25, 3.75)),
    (WIDE, (85.0, 115.0)),
])
def test_quartiles(values, expected):
    assert ab.quartiles(values) == expected


@pytest.mark.parametrize("step, expected", [
    (-0.5, "improved"),         # half the bound the metric's better way
    (0.5, "within bound"),      # half the bound its worse way
    (2.0, "worse"),             # twice the bound its worse way
], ids=["better", "slightly-worse", "worse"])
@pytest.mark.parametrize("metric", END_TO_END, ids=lambda m: m["name"])
def test_each_end_to_end_metric_is_judged_in_its_declared_direction(
        metric, step, expected):
    # ``step`` is in bounds, signed so that positive reads worse.
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = 100.0 * (1.0 + sign * step * metric["bound"])
    row = ab.verdict(metric, [100.0] * 10, [change] * 10)
    assert row["wins"] == (10 if step < 0 else 0)
    assert row["verdict"] == expected


def test_a_zero_parent_median_reads_no_delta_and_judges_nothing():
    row = ab.verdict(LOWER, [0.0] * 4, [5.0] * 4)
    assert (row["delta_pct"], row["verdict"]) == (0.0, "within bound")


def test_identical_runs_tie_at_every_pair():
    row = ab.verdict(HIGHER, WIDE, list(WIDE))
    assert (row["wins"], row["delta_pct"], row["verdict"]) \
        == (0, 0.0, "unresolved")
    assert ab.verdict(LOWER, [10.0] * 4, [10.0] * 4)["verdict"] \
        == "within bound"


def test_a_separated_change_can_be_improved_despite_a_wide_parent_iqr():
    # IQR 30 on a median of 100: over the 25% bound, but every change
    # run reads better than every parent run, by more than the IQR.
    assert word(LOWER, WIDE, [60.0] * 5) == "improved"
    assert word(LOWER, WIDE, [70.0] * 5) == "within bound"   # gap == IQR


def test_separation_only_counts_when_the_change_reads_better():
    # Every change run reads worse than every parent run: the wide
    # parent spread still leaves the metric unresolved.
    assert word(LOWER, WIDE, [200.0] * 5) == "unresolved"
    assert word(dict(LOWER, bound=0.5), WIDE, [200.0] * 5) == "worse"


#: Prints the header and result line of a ``--trace 0`` run from the
#: ``canned.json`` beside it (or its ``stdout`` verbatim), and logs
#: which checkout ran and with which arguments.
STUB_RUN = """\
import argparse, json, pathlib, sys
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
here = pathlib.Path(__file__).resolve().parent
canned = json.loads((here / "canned.json").read_text())
with open(here.parent.parent / "runs.log", "a") as log:
    log.write(here.parent.name + "\\n")
with open(here.parent.parent / "argv.log", "a") as log:
    log.write(" ".join(sys.argv[1:]) + "\\n")
if "stdout" in canned:
    print(canned["stdout"], end="")
else:
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(json.dumps({"correct": canned["correct"], "attempted": 1,
                      "failed": 0 if canned["correct"] else 1,
                      "metrics": canned["metrics"]}))
raise SystemExit(canned["exit"])
"""


def stub_tree(root, name, value=10.0, correct=True, exit_code=0,
              stdout=None):
    """A checkout named ``name`` whose every run reads ``value`` on each
    end-to-end metric (or prints ``stdout`` instead)."""
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "src").mkdir()
    shutil.copy(_REPO / "BENCHMARK.json", tree)
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    canned = {"correct": correct, "exit": exit_code,
              "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                          for m in spec["end_to_end"]}}
    if stdout is not None:
        canned["stdout"] = stdout
    (tree / "perfbench" / "canned.json").write_text(json.dumps(canned))
    (tree / "perfbench" / "run.py").write_text(STUB_RUN)
    return tree


def runs(root) -> list[str]:
    log = root / "runs.log"
    return log.read_text().split() if log.exists() else []


def main_exit(*argv) -> int:
    """``ab.main``'s exit code, also when argparse exits."""
    try:
        return ab.main([str(arg) for arg in argv])
    except SystemExit as exc:
        return exc.code


def test_a_round_writes_one_report_and_alternates_the_first_side(
        tmp_path, capsys):
    parent = stub_tree(tmp_path, "parent", value=10.0)
    change = stub_tree(tmp_path, "change", value=9.0)
    out = tmp_path / "reports" / "round.txt"
    assert main_exit(parent, change, "--workload", "sim-long",
                     "--pairs", 2, "--out", out) == 0
    assert list(out.parent.iterdir()) == [out]
    text = out.read_text()
    assert text == capsys.readouterr().out
    pairs = [line for line in text.splitlines() if line.startswith("pair")]
    assert [("parent*" in line, "change*" in line) for line in pairs] \
        == [(True, False), (False, True)]
    assert runs(tmp_path) == ["parent", "change", "change", "parent"]


def test_an_existing_report_is_refused_and_left_as_it_was(tmp_path):
    parent, change = stub_tree(tmp_path, "parent"), stub_tree(tmp_path,
                                                              "change")
    out = tmp_path / "round.txt"
    out.write_bytes(b"an earlier round\n")
    assert main_exit(parent, change, "--workload", "sim-long",
                     "--pairs", 2, "--out", out) == 2
    assert out.read_bytes() == b"an earlier round\n"
    assert runs(tmp_path) == []


@pytest.mark.parametrize("fault", [{"correct": False},
                                   {"exit_code": 3}])
def test_a_failed_or_incorrect_run_gives_exit_1_and_no_report(
        tmp_path, fault):
    parent = stub_tree(tmp_path, "parent")
    change = stub_tree(tmp_path, "change", **fault)
    out = tmp_path / "round.txt"
    assert main_exit(parent, change, "--workload", "sim-long",
                     "--pairs", 2, "--out", out) == 1
    assert not out.exists()
    assert runs(tmp_path) == ["parent", "change"]


def test_the_default_report_lives_under_benchmarks_trajectories(
        tmp_path, capsys):
    recorded = (_REPO / "benchmarks" / "trajectories"
                / "ab-sim-long-seed0-25a9bee-2c0a326.txt")
    assert recorded.exists()
    parent = stub_tree(tmp_path, "25a9bee")
    change = stub_tree(tmp_path, "2c0a326")
    assert main_exit(parent, change, "--workload", "sim-long",
                     "--seed", 0) == 2
    assert str(recorded) in capsys.readouterr().err
    assert runs(tmp_path) == []


RESULT = json.dumps({"correct": True, "metrics": {
    m["name"]: {"value": 1.5, "unit": m["unit"]} for m in END_TO_END}})


def test_a_run_reads_the_metrics_of_its_last_line(tmp_path):
    tree = stub_tree(tmp_path, "parent", stdout="warming up\n"
                     "# sim-long seed=0 seconds=20 trace=0\n" + RESULT + "\n")
    assert ab.run_once(tree, "sim-long", 0, 20.0) \
        == {m["name"]: 1.5 for m in END_TO_END}


@pytest.mark.parametrize("stdout", [
    "",
    "# sim-long seed=0 seconds=20 trace=0\n",
    "# sim-long seed=0 seconds=20 trace=0\ndone\n",
    RESULT + "\nbye\n",
    json.dumps({"metrics": {}}) + "\n",
    json.dumps({"correct": "true", "metrics": {}}) + "\n",
], ids=["no-output", "header-only", "not-json", "result-not-last",
        "no-correct-field", "correct-not-true"])
def test_output_without_a_correct_result_line_is_refused(tmp_path, stdout):
    tree = stub_tree(tmp_path, "parent", stdout=stdout)
    with pytest.raises(ab.RunFailed):
        ab.run_once(tree, "sim-long", 0, 20.0)


def test_a_refusal_names_the_tree_the_exit_code_and_the_output(tmp_path):
    tree = stub_tree(tmp_path, "b480ffa", exit_code=3)
    with pytest.raises(ab.RunFailed) as info:
        ab.run_once(tree, "sim-long", 0, 20.0)
    message = str(info.value)
    assert message.startswith("b480ffa: run exited 3, correct=True")
    assert "# sim-long seed=0 seconds=20 trace=0" in message


@pytest.mark.parametrize("argv", [
    ["PARENT", "CHANGE", "--workload", "sim-long", "--pairs", 0],
    ["PARENT", "CHANGE", "--workload", "no-such-workload"],
    ["MISSING", "CHANGE", "--workload", "sim-long"],
    ["PARENT", "NOT_A_CHECKOUT", "--workload", "sim-long"],
], ids=["no-pairs", "unknown-workload", "missing-parent",
        "change-without-benchmark"])
def test_bad_arguments_give_exit_2_before_any_run(tmp_path, argv):
    trees = {"PARENT": stub_tree(tmp_path, "parent"),
             "CHANGE": stub_tree(tmp_path, "change"),
             "MISSING": tmp_path / "missing",
             "NOT_A_CHECKOUT": tmp_path}
    argv = [trees.get(arg, arg) for arg in argv]
    assert main_exit(*argv, "--out", tmp_path / "round.txt") == 2
    assert not (tmp_path / "round.txt").exists()
    assert runs(tmp_path) == []


def test_every_run_gets_the_parents_run_length_and_trace_0(tmp_path):
    parent = stub_tree(tmp_path, "parent")
    change = stub_tree(tmp_path, "change")
    spec = json.loads((change / "BENCHMARK.json").read_text())
    (change / "BENCHMARK.json").write_text(
        json.dumps(dict(spec, run_seconds=1)))
    assert main_exit(parent, change, "--workload", "campaign-dense",
                     "--seed", 7, "--pairs", 2,
                     "--out", tmp_path / "round.txt") == 0
    argv = (tmp_path / "argv.log").read_text().splitlines()
    assert argv == ["--workload campaign-dense --seed 7 --seconds 20 "
                    "--trace 0"] * 4
    assert (tmp_path / "round.txt").read_text().startswith(
        "Paired A/B: perfbench/run.py --workload campaign-dense --seed 7 "
        "--seconds 20 --trace 0, 2 pairs\nparent: parent\nchange: change\n")


def test_both_trees_are_byte_compiled_before_the_runs(tmp_path):
    trees = [stub_tree(tmp_path, "parent"), stub_tree(tmp_path, "change")]
    assert main_exit(*trees, "--workload", "sim-long", "--pairs", 1,
                     "--out", tmp_path / "round.txt") == 0
    for tree in trees:
        assert list((tree / "perfbench" / "__pycache__").glob("run.*.pyc"))


def test_the_report_has_one_row_per_end_to_end_metric(tmp_path):
    parent = stub_tree(tmp_path, "parent", value=10.0)
    change = stub_tree(tmp_path, "change", value=9.0)
    out = tmp_path / "round.txt"
    assert main_exit(parent, change, "--workload", "serve-mix",
                     "--pairs", 2, "--out", out) == 0
    rows = {line.split()[0]: line for line in out.read_text().splitlines()
            if line.split() and line.split()[0] in
            {m["name"] for m in END_TO_END}}
    assert list(rows) == [m["name"] for m in END_TO_END]
    for metric in END_TO_END:
        row = rows[metric["name"]]
        assert "-10.0%" in row
        if metric["better"] == "lower":
            assert " 2/2 " in row and row.endswith("  improved")
        else:
            assert " 0/2 " in row and row.endswith("  within bound")


@pytest.mark.parametrize("workload, seed", [
    ("sim-long", 0), ("campaign-dense", 3), ("serve-mix", 11)])
def test_the_default_report_is_named_by_workload_seed_and_trees(
        tmp_path, monkeypatch, workload, seed):
    repo = tmp_path / "repo"
    monkeypatch.setattr(ab, "ROOT", repo)
    parent = stub_tree(tmp_path, "8d98938")
    change = stub_tree(tmp_path, "228f667")
    assert main_exit(parent, change, "--workload", workload,
                     "--seed", seed, "--pairs", 1) == 0
    assert [path.name for path in
            (repo / "benchmarks" / "trajectories").iterdir()] \
        == [f"ab-{workload}-seed{seed}-8d98938-228f667.txt"]


def parse_report(text):
    """A recorded report's header, verdict rows and per-pair runs."""
    lines = text.splitlines()
    header = re.fullmatch(r"Paired A/B: perfbench/run\.py --workload (\S+) "
                          r"--seed (\d+) --seconds \S+ --trace 0, "
                          r"(\d+) pairs", lines[0])
    rows = {line.split()[0]: line for line in lines
            if line.split() and line.split()[0] in
            {m["name"] for m in END_TO_END}}
    pairs = {"parent": [], "change": []}
    for line in lines:
        if line.startswith("pair "):
            for cell in line.split(":", 1)[1].split("|"):
                side, *values = cell.split()
                pairs[side.rstrip("*")].append(
                    dict((k, float(v)) for k, v in
                         (value.split("=") for value in values)))
    return header, lines[1:3], rows, pairs


STORE = _REPO / "benchmarks" / "trajectories"


def test_the_store_holds_only_reports_that_agree_with_their_names():
    reports = sorted(STORE.iterdir())
    assert reports
    workloads = "|".join(w["name"] for w in SPEC["workloads"])
    for path in reports:
        name = re.fullmatch(rf"ab-({workloads})-seed(\d+)-([^-]+)-([^-]+)"
                            r"(-round\d+)?\.txt", path.name)
        assert name, path.name
        header, trees, rows, pairs = parse_report(path.read_text())
        assert header.group(1, 2) == name.group(1, 2), path.name
        assert trees == [f"parent: {name[3]}", f"change: {name[4]}"]
        assert list(rows) == [m["name"] for m in END_TO_END], path.name
        assert len(pairs["parent"]) == len(pairs["change"]) \
            == int(header[3]), path.name


def test_every_recorded_verdict_follows_from_its_recorded_runs():
    for path in sorted(STORE.iterdir()):
        _, _, rows, pairs = parse_report(path.read_text())
        for metric in END_TO_END:
            name = metric["name"]
            row = ab.verdict(metric, [run[name] for run in pairs["parent"]],
                             [run[name] for run in pairs["change"]])
            # The runs are recorded to 4 digits, which can tie a pair
            # (so the wins column is not rederived), but no verdict
            # sits that close to a rule's edge.
            assert rows[name].split("  ")[-1] == row["verdict"], \
                (path.name, name)
