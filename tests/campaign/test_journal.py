"""Journal tests: write-ahead records, torn tails, tag pinning, resume."""

import json

import pytest

from repro.campaign import CampaignConfig, CampaignEngine, JournalError
from repro.campaign.journal import CampaignJournal, load_journal
from repro.campaign.spec import TrialFailure, TrialOutcome

CALLS: dict[str, int] = {}


def trial_counted(key, seed):
    CALLS[key] = CALLS.get(key, 0) + 1
    return {"seed": seed, "payload": [seed, seed ** 2]}


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


class TestRoundTrip:
    def test_record_and_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.open(path, "tag-a") as journal:
            journal.record(TrialOutcome(index=0, ok=True,
                                        value={"x": 1}, attempts=1))
            journal.record(TrialOutcome(
                index=1, ok=False, attempts=3,
                failures=[TrialFailure(index=1, attempt=a, kind="transient",
                                       message="m") for a in range(3)]))
        snapshot = load_journal(path)
        assert snapshot.tag == "tag-a"
        assert snapshot.values == {0: {"x": 1}}
        assert [f.kind for f in snapshot.failed[1]] == ["transient"] * 3
        assert snapshot.torn_lines == 0
        assert snapshot.completed == 1

    def test_later_success_supersedes_failure(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.open(path, "t") as journal:
            journal.record(TrialOutcome(
                index=4, ok=False, attempts=1,
                failures=[TrialFailure(index=4, attempt=0, kind="crash")]))
            journal.record(TrialOutcome(index=4, ok=True, value="v",
                                        attempts=1))
        snapshot = load_journal(path)
        assert snapshot.values == {4: "v"}
        assert 4 not in snapshot.failed

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.open(path, "t") as journal:
            journal.record(TrialOutcome(index=0, ok=True, value=1, attempts=1))
        with CampaignJournal.open(path, "t") as journal:
            journal.record(TrialOutcome(index=1, ok=True, value=2, attempts=1))
        assert load_journal(path).values == {0: 1, 1: 2}


class TestCorruptionHandling:
    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.open(path, "t") as journal:
            journal.record(TrialOutcome(index=0, ok=True, value="a",
                                        attempts=1))
            journal.record(TrialOutcome(index=1, ok=True, value="b",
                                        attempts=1))
        # Simulate a kill mid-append: chop the last record in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        snapshot = load_journal(path)
        assert snapshot.values == {0: "a"}
        assert snapshot.torn_lines == 1

    def test_torn_tail_with_missing_tag_line_resumes_cleanly(
            self, tmp_path):
        """A kill during journal *creation* can leave a file whose tag
        (header) line never landed and whose only record is torn.  That
        must resume as an empty journal, not raise."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"type": "trial", "index": 0, "ok": true, "pa')
        snapshot = load_journal(path)
        assert snapshot.tag == ""
        assert snapshot.values == {} and snapshot.failed == {}
        assert snapshot.torn_lines == 1

        # The engine resumes from it cleanly and recomputes everything;
        # reopening for append re-pins the tag for later resumes.
        engine = CampaignEngine(
            CampaignConfig(journal=str(path), resume=str(path)), tag="t")
        result = engine.map(trial_counted, [("k1", 3), ("k2", 5)])
        engine.close()
        assert CALLS == {"k1": 1, "k2": 1}
        assert not any(o.from_journal for o in result.outcomes)
        healed = load_journal(path)
        assert healed.tag == "t"
        assert healed.completed == 2
        # A second resume replays everything from the healed journal.
        CALLS.clear()
        resumed = CampaignEngine(
            CampaignConfig(resume=str(path)), tag="t")
        replay = resumed.map(trial_counted, [("k1", 3), ("k2", 5)])
        resumed.close()
        assert CALLS == {}
        assert replay.values == result.values

    def test_empty_journal_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            load_journal(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"type": "trial", "index": 0}\n')
        with pytest.raises(JournalError, match="header"):
            load_journal(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"type": "header", "version": 99,
                                    "tag": "t"}) + "\n")
        with pytest.raises(JournalError, match="version"):
            load_journal(path)

    def test_tag_mismatch_on_append_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignJournal.open(path, "campaign-a").close()
        with pytest.raises(JournalError, match="campaign-a"):
            CampaignJournal.open(path, "campaign-b")


class TestDurability:
    """Regression: ``open()`` must fsync the parent directory, or a
    freshly created journal's *name* can vanish in a crash even though
    its bytes were fsynced — the classic create-without-dir-fsync
    hole."""

    @pytest.fixture
    def fsync_calls(self, monkeypatch):
        import repro.campaign.io as io_mod

        calls: list = []
        real = io_mod._fsync_dir

        def recording(path):
            calls.append(path)
            real(path)

        monkeypatch.setattr(io_mod, "_fsync_dir", recording)
        return calls

    def test_open_fsyncs_parent_dir_on_create(self, tmp_path, fsync_calls):
        path = tmp_path / "c.jsonl"
        CampaignJournal.open(path, "t").close()
        assert tmp_path in fsync_calls

    def test_open_fsyncs_parent_dir_on_reopen(self, tmp_path, fsync_calls):
        path = tmp_path / "c.jsonl"
        CampaignJournal.open(path, "t").close()
        fsync_calls.clear()
        CampaignJournal.open(path, "t").close()
        assert tmp_path in fsync_calls

    def test_open_fsyncs_after_torn_tail_repair(self, tmp_path,
                                                fsync_calls):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.open(path, "t") as journal:
            journal.record(TrialOutcome(index=0, ok=True, value="a",
                                        attempts=1))
        # Tear the newline off the final record, then reopen: the repair
        # path rewrites the tail and must still reach the dir fsync.
        path.write_text(path.read_text().rstrip("\n"))
        fsync_calls.clear()
        CampaignJournal.open(path, "t").close()
        assert tmp_path in fsync_calls
        assert load_journal(path).completed == 1


class TestEngineResume:
    def test_resume_replays_without_recomputation(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = CampaignEngine(CampaignConfig(journal=str(path)), tag="t")
        args = [("k1", 3), ("k2", 5)]
        values = first.map(trial_counted, args).values
        first.close()
        assert CALLS == {"k1": 1, "k2": 1}

        resumed = CampaignEngine(
            CampaignConfig(journal=str(path), resume=str(path)), tag="t")
        result = resumed.map(trial_counted, args)
        resumed.close()
        assert result.values == values
        assert all(o.from_journal for o in result.outcomes)
        assert CALLS == {"k1": 1, "k2": 1}      # nothing re-ran
        assert resumed.stats().from_journal == 2

    def test_resume_after_torn_tail_recomputes_only_the_torn_trial(
            self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = CampaignEngine(CampaignConfig(journal=str(path)), tag="t")
        args = [("k1", 3), ("k2", 5), ("k3", 7)]
        uninterrupted = first.map(trial_counted, args).values
        first.close()

        # Kill-mid-write simulation: tear the final record's line.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])

        CALLS.clear()
        resumed = CampaignEngine(
            CampaignConfig(journal=str(path), resume=str(path)), tag="t")
        result = resumed.map(trial_counted, args)
        resumed.close()
        assert result.values == uninterrupted
        assert CALLS == {"k3": 1}               # only the torn trial re-ran
        assert [o.from_journal for o in result.outcomes] == [
            True, True, False]
        # The journal is now complete again: a further resume re-runs
        # nothing.
        assert load_journal(path).completed == 3

    def test_resume_tag_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignEngine(CampaignConfig(journal=str(path)), tag="t").close()
        with pytest.raises(JournalError):
            CampaignEngine(CampaignConfig(resume=str(path)), tag="other")
