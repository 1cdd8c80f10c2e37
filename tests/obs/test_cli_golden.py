"""Golden-file regression test: the JSON schema of every CLI command.

Each ``repro <command> --json`` payload is reduced to a structural
schema — the sorted set of ``key-path :: type`` pairs, with list indices
collapsed to ``[]`` and data-dependent key families (counters,
histograms, per-``n`` scheduler rows) collapsed to ``*`` — and compared
against a checked-in golden.  A schema drift is an API change for every
consumer of ``--json`` and must be deliberate: regenerate with

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/obs/test_cli_golden.py

and review the golden diff.
"""

import json
import os
import pathlib

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "goldens"

#: Dict paths whose keys are data (not schema): collapse to one entry.
DYNAMIC_KEY_PATHS = frozenset({
    ".obs.counters",
    ".obs.histograms",
    ".obs.scheduler.by_n",
    ".stats.responses",            # serve: per-status-code counts
    ".stats.pool.failure_kinds",   # serve: failure-kind counts
})


def _type_name(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    raise TypeError(f"unexpected JSON scalar {value!r}")


def schema_of(value, path: str = "") -> set[str]:
    if isinstance(value, dict):
        out = {f"{path} :: object"}
        collapse = path in DYNAMIC_KEY_PATHS
        for key, child in value.items():
            out |= schema_of(child, f"{path}.{'*' if collapse else key}")
        return out
    if isinstance(value, list):
        out = {f"{path} :: array"}
        for child in value:
            out |= schema_of(child, path + "[]")
        return out
    return {f"{path} :: {_type_name(value)}"}


def _run_cli(argv_tail, tmp_path) -> dict:
    out = tmp_path / "payload.json"
    rc = main([*argv_tail, "--json", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


def _diff_argv(tmp):
    """Generate two small traces, then diff them."""
    from repro.obs.exporters import write_jsonl
    from repro.obs.profile import run_profile

    paths = []
    for sync in ("lockfree", "lockbased"):
        prof = run_profile(workload="step", sync=sync,
                           horizon_us=10_000, seed=5)
        path = tmp / f"{sync}.jsonl"
        write_jsonl(path, prof.observer)
        paths.append(str(path))
    return ["diff", *paths]


# Fast deterministic invocations, one per CLI command.  The campaign
# commands get a --journal so the engine (and its obs block) engages.
COMMANDS = {
    "quick": lambda tmp: ["quick", "--tasks", "4", "--objects", "3",
                          "--horizon-ms", "20", "--seed", "3"],
    "figure": lambda tmp: ["figure", "fig10", "--repeats", "1",
                           "--horizon-ms", "5",
                           "--journal", str(tmp / "figure.jsonl")],
    "faults": lambda tmp: ["faults", "--bursts", "0,1", "--repeats", "1",
                           "--horizon-ms", "5",
                           "--journal", str(tmp / "faults.jsonl")],
    "profile": lambda tmp: ["profile", "--tasks", "5", "--objects", "4",
                            "--horizon-ms", "10", "--seed", "0"],
    "sojourn": lambda tmp: ["sojourn", "--r", "10", "--s", "5"],
    "diff": _diff_argv,
    # Serve: start, idle 0.2s, drain — the config echo + stats schema.
    "serve": lambda tmp: ["serve", "--duration", "0.2",
                          "--drain-grace", "1",
                          "--cache-dir", str(tmp / "serve-cache")],
    # Load: short self-hosted run with verification on, so the report
    # schema includes the verification block in its populated form.
    "load": lambda tmp: ["load", "--self-host", "--rate", "20",
                         "--duration", "0.5", "--consumers", "2",
                         "--scenarios", "2", "--tasks", "4",
                         "--horizon-ms", "10", "--verify", "--seed", "3",
                         "--cache-dir", str(tmp / "load-cache")],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_json_schema_matches_golden(command, tmp_path, capsys):
    payload = _run_cli(COMMANDS[command](tmp_path), tmp_path)
    capsys.readouterr()   # swallow the human-facing table output
    assert payload["command"] == command
    # Every payload carries the obs block (satellite: repro --json
    # includes the obs summary).
    assert "obs" in payload and "enabled" in payload["obs"]

    schema = sorted(schema_of(payload))
    golden = GOLDEN_DIR / f"cli_{command}.schema.json"
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(json.dumps(schema, indent=2) + "\n")
    assert golden.exists(), (
        f"golden {golden} missing; regenerate with REPRO_REGEN_GOLDENS=1")
    expected = json.loads(golden.read_text())
    assert schema == expected, (
        f"--json schema drift for {command!r}; if intentional, "
        f"regenerate goldens with REPRO_REGEN_GOLDENS=1 and review")
