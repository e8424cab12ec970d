"""The write-ahead update journal: record codec, torn-tail handling,
protocol state, crash injection, and the storage backends.

Federation-level recovery behavior (replays, quarantine interplay, the
chaos property) lives in ``test_chaos.py``; this file pins the journal
itself.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalError, MemberUnavailableError
from repro.multidb import (
    FakeClock,
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
    ResiliencePolicy,
)
from repro.multidb.journal import (
    CrashInjector,
    CrashPoint,
    FileJournal,
    InMemoryJournal,
    NullJournal,
    decode_record,
    encode_record,
)
from repro.workloads.stocks import StockWorkload


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


class TestRecordCodec:
    def test_roundtrip(self):
        record = {"type": "intent", "update": 3, "members": {"a": {"r": []}}}
        assert decode_record(encode_record(record)) == record

    def test_truncated_line_decodes_to_none(self):
        line = encode_record({"type": "commit", "update": 1})
        assert decode_record(line[: len(line) // 2]) is None

    def test_corrupt_checksum_decodes_to_none(self):
        line = encode_record({"type": "commit", "update": 1})
        envelope = json.loads(line)
        envelope["rec"]["update"] = 2  # bit-flip the payload, keep the crc
        assert decode_record(json.dumps(envelope)) is None

    def test_non_envelope_json_decodes_to_none(self):
        assert decode_record("[1, 2, 3]") is None
        assert decode_record('"just a string"') is None
        assert decode_record("") is None

    def test_encoding_is_canonical(self):
        # Key order must not matter: the checksum is over canonical JSON.
        a = encode_record({"type": "commit", "update": 1})
        b = encode_record({"update": 1, "type": "commit"})
        assert a == b


# ---------------------------------------------------------------------------
# Crash injection
# ---------------------------------------------------------------------------


class TestCrashInjector:
    def test_arm_zero_crashes_at_first_visit(self):
        crash = CrashInjector().arm(0)
        with pytest.raises(CrashPoint) as excinfo:
            crash.visit("journal.append")
        assert excinfo.value.site == "journal.append"

    def test_armed_budget_lets_n_visits_pass(self):
        crash = CrashInjector().arm(2)
        crash.visit("a")
        crash.visit("b")
        assert crash.will_fire()
        with pytest.raises(CrashPoint) as excinfo:
            crash.visit("c")
        assert excinfo.value.op_index == 2

    def test_fired_injector_keeps_firing(self):
        crash = CrashInjector().arm(0)
        with pytest.raises(CrashPoint):
            crash.visit("a")
        with pytest.raises(CrashPoint):
            crash.visit("b")

    def test_unarmed_injector_only_records_sites(self):
        crash = CrashInjector()
        crash.visit("a")
        crash.visit("b")
        assert crash.sites == ["a", "b"]
        assert not crash.will_fire()

    def test_will_fire_is_non_consuming(self):
        crash = CrashInjector().arm(1)
        assert not crash.will_fire()
        assert not crash.will_fire()
        crash.visit("a")
        assert crash.will_fire()

    def test_crash_point_is_not_an_ordinary_exception(self):
        # Retry loops and cleanup layers catch Exception; a simulated
        # process death must sail through them.
        assert not issubclass(CrashPoint, Exception)
        assert issubclass(CrashPoint, BaseException)


# ---------------------------------------------------------------------------
# Protocol state (in-memory backend)
# ---------------------------------------------------------------------------


DESIRED = {
    "alpha": {"r": [{"x": 1}]},
    "beta": {"r": [{"x": 2}]},
}


class TestProtocol:
    def test_begin_assigns_monotonic_update_ids(self):
        journal = InMemoryJournal()
        assert journal.begin(DESIRED) == 1
        assert journal.begin(DESIRED) == 2
        assert journal.status()["next_update_id"] == 3

    def test_full_lifecycle_commits(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.record_member(uid, "alpha", "applied")
        journal.record_member(uid, "beta", "applied")
        journal.commit(uid)
        assert journal.is_committed(uid)
        assert journal.pending() == []
        kinds = [r["type"] for r in journal.records()]
        assert kinds == ["intent", "member", "member", "commit"]

    def test_intent_covers_exactly_the_staged_members(self):
        """Narrowed intents: the federation stages only an update's
        declared write set, and the journal must neither add members to
        the intent nor expect outcomes from anyone outside it."""
        journal = InMemoryJournal()
        uid = journal.begin({"alpha": {"r": [{"x": 1}]}})
        (intent,) = [r for r in journal.records() if r["type"] == "intent"]
        assert sorted(intent["members"]) == ["alpha"]
        (update,) = journal.pending()
        assert update.remaining == ["alpha"]
        journal.record_member(uid, "alpha", "applied")
        (update,) = journal.pending()
        assert update.complete

    def test_pending_reports_remaining_members(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.record_member(uid, "beta", "applied")
        (update,) = journal.pending()
        assert update.update_id == uid
        assert update.remaining == ["alpha"]
        assert update.applied == {"beta": "flush"}
        assert not update.complete

    def test_failed_outcome_keeps_member_owed(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.record_member(uid, "alpha", "failed")
        (update,) = journal.pending()
        assert "alpha" in update.remaining
        assert update.failed == {"alpha"}
        # A later successful apply clears the failure.
        journal.record_member(uid, "alpha", "applied", via="resync")
        (update,) = journal.pending()
        assert update.failed == set()
        assert update.remaining == ["beta"]

    def test_unknown_update_id_raises(self):
        journal = InMemoryJournal()
        with pytest.raises(JournalError):
            journal.commit(99)
        with pytest.raises(JournalError):
            journal.record_member(99, "alpha", "applied")

    def test_resolved_update_rejects_further_protocol(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.commit(uid)
        with pytest.raises(JournalError):
            journal.commit(uid)
        with pytest.raises(JournalError):
            journal.abort(uid)
        with pytest.raises(JournalError):
            journal.record_member(uid, "alpha", "applied")

    def test_abort_resolves_without_commit(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.abort(uid, "superseded")
        assert journal.pending() == []
        assert not journal.is_committed(uid)
        assert journal.status()["aborted"] == 1

    def test_resolve_member_settles_and_commits(self):
        journal = InMemoryJournal()
        first = journal.begin({"alpha": {"r": []}})
        second = journal.begin(DESIRED)
        journal.record_member(second, "beta", "applied")
        touched = journal.resolve_member("alpha", via="resync")
        assert touched == [first, second]
        # first owed only alpha -> committed; second still owes nothing
        # after alpha either -> committed too.
        assert journal.is_committed(first)
        assert journal.is_committed(second)
        assert journal.pending() == []

    def test_status_shape(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        status = journal.status()
        assert status["backend"] == "InMemoryJournal"
        assert status["updates"] == 1
        assert status["pending"] == [uid]
        assert status["committed"] == 0
        assert status["truncated_tails"] == 0


class TestReopenAndTornTail:
    def test_reopen_restores_protocol_state(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.record_member(uid, "alpha", "applied")
        reopened = journal.reopen()
        (update,) = reopened.pending()
        assert update.update_id == uid
        assert update.remaining == ["beta"]
        # Counters continue, they do not restart.
        assert reopened.begin(DESIRED) == uid + 1

    def test_torn_tail_is_truncated_not_replayed(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.commit(uid)
        line = encode_record({"type": "intent", "update": 2, "members": {}})
        journal.buffer.append(line[: len(line) // 2])
        reopened = journal.reopen()
        assert reopened.truncated_tails == 1
        assert reopened.dropped_records == 1
        assert len(reopened.buffer) == 2  # the torn line is gone
        assert reopened.pending() == []
        assert reopened.status()["updates"] == 1

    def test_valid_records_after_corruption_raise(self):
        journal = InMemoryJournal()
        uid = journal.begin(DESIRED)
        journal.buffer.insert(0, "not json at all")
        with pytest.raises(JournalError):
            journal.reopen()
        del uid

    def test_compact_keeps_pending_updates_only(self):
        journal = InMemoryJournal()
        first = journal.begin(DESIRED)
        journal.record_member(first, "alpha", "applied")
        journal.record_member(first, "beta", "applied")
        journal.commit(first)
        second = journal.begin(DESIRED)
        journal.compact()
        assert [r["update"] for r in journal.records()] == [second]
        (update,) = journal.pending()
        assert update.update_id == second
        # Ids stay monotonic across compaction + reopen.
        assert journal.reopen().begin(DESIRED) == second + 1


class TestCrashDuringAppend:
    def test_crash_at_append_leaves_no_record(self):
        journal = InMemoryJournal()
        journal.crash = CrashInjector().arm(0)
        with pytest.raises(CrashPoint):
            journal.begin(DESIRED)
        assert journal.buffer == []
        assert journal.reopen().pending() == []

    def test_torn_crash_half_writes_the_line(self):
        journal = InMemoryJournal()
        journal.crash = CrashInjector().arm(0, torn=True)
        with pytest.raises(CrashPoint):
            journal.begin(DESIRED)
        assert len(journal.buffer) == 1
        assert decode_record(journal.buffer[0]) is None
        reopened = InMemoryJournal(buffer=journal.buffer)
        assert reopened.truncated_tails == 1
        assert reopened.pending() == []


# ---------------------------------------------------------------------------
# File backend
# ---------------------------------------------------------------------------


class TestFileJournal:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "updates.wal"
        journal = FileJournal(path, fsync=False)
        uid = journal.begin(DESIRED)
        journal.record_member(uid, "alpha", "applied")
        journal.close()
        reopened = FileJournal(path, fsync=False)
        (update,) = reopened.pending()
        assert update.remaining == ["beta"]
        assert reopened.begin(DESIRED) == uid + 1
        reopened.close()

    def test_torn_tail_is_physically_truncated(self, tmp_path):
        path = tmp_path / "updates.wal"
        journal = FileJournal(path, fsync=False)
        uid = journal.begin(DESIRED)
        journal.commit(uid)
        journal.close()
        intact = path.read_text()
        line = encode_record({"type": "intent", "update": 9, "members": {}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[: len(line) // 2])
        reopened = FileJournal(path, fsync=False)
        assert reopened.truncated_tails == 1
        assert reopened.pending() == []
        reopened.close()
        assert path.read_text() == intact

    def test_missing_file_starts_empty(self, tmp_path):
        journal = FileJournal(tmp_path / "fresh.wal", fsync=False)
        assert journal.pending() == []
        assert journal.begin(DESIRED) == 1
        journal.close()


# ---------------------------------------------------------------------------
# Null backend
# ---------------------------------------------------------------------------


class TestNullJournal:
    def test_everything_is_a_no_op(self):
        journal = NullJournal()
        uid = journal.begin(DESIRED)
        assert uid == 1
        assert journal.begin(DESIRED) == 2  # ids still monotonic
        journal.record_member(uid, "alpha", "applied")
        journal.commit(uid)
        journal.abort(2)
        assert journal.records() == []
        assert journal.pending() == []
        assert journal.resolve_member("alpha") == []
        assert journal.reopen() is journal
        assert journal.status()["backend"] == "NullJournal"


# ---------------------------------------------------------------------------
# Memory held for resolved updates
# ---------------------------------------------------------------------------


class TestResolvedUpdatesDropRows:
    """A resolved update is never replayed, so the journal keeps only
    its member names — a long-running federation must not hold every
    committed update's staged rows."""

    STYLES = ("euter", "chwab", "ource")

    def build(self):
        workload = StockWorkload(n_stocks=3, n_days=2, seed=7)
        federation = Federation.from_config(FederationConfig())
        faulty = {}
        for style in self.STYLES:
            faulty[style] = FaultyConnector(
                InMemoryConnector(workload.relations_for(style)))
            federation.add_member(
                style, style, connector=faulty[style],
                policy=ResiliencePolicy(max_attempts=1, jitter=0.0),
                clock=FakeClock(),
            )
        federation.install()
        return federation, faulty

    @staticmethod
    def resolved(journal):
        return [state for state in journal._states.values()
                if state.status != "pending"]

    def test_committed_updates_keep_member_names_only(self):
        federation, _ = self.build()
        for day in range(5):
            federation.insert_quote("nova", f"9/{day + 1}/99", 9.0 + day)
        journal = federation.journal
        resolved = self.resolved(journal)
        assert len(resolved) == 5
        for state in resolved:
            assert not isinstance(state.desired, dict)
            assert state.desired and all(
                isinstance(member, str) for member in state.desired)
        assert journal.pending() == []
        assert journal.status()["committed"] == 5
        # The log itself stays append-only: every intent is still there.
        intents = [r for r in journal.records() if r["type"] == "intent"]
        assert len(intents) == 5 and all(r["members"] for r in intents)

    def test_pending_and_recover_still_see_rows(self):
        federation, faulty = self.build()
        federation.insert_quote("nova", "9/1/99", 9.0)
        faulty["euter"].fail_next(1)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/2/99", 10.0)
        journal = federation.journal
        (update,) = journal.pending()
        assert "euter" in update.remaining
        assert isinstance(update.desired["euter"], dict)
        assert update.desired["euter"]["r"]
        assert journal.status()["pending"] == [update.update_id]
        replayed = federation.recover()
        assert "euter" in replayed[update.update_id]
        assert journal.pending() == []
        assert journal.is_committed(update.update_id)
        for state in self.resolved(journal):
            assert not isinstance(state.desired, dict)
        # The replayed member holds the journaled post-state.
        rows = faulty["euter"].scan()["r"]
        assert any(row["stkCode"] == "nova" and row["date"] == "9/2/99"
                   for row in rows)


# ---------------------------------------------------------------------------
# Change-set intents and the pre-change-set format
# ---------------------------------------------------------------------------


class TestChangeSetIntents:
    """Intents carry per-member change sets; an intent written in the
    older full-state format still decodes and recovers, as the exact
    replace it always meant."""

    def build(self, rows, journal=None):
        federation = Federation.from_config(FederationConfig(
            journal=journal if journal is not None else InMemoryJournal()))
        federation.add_member(
            "euter", "euter", connector=InMemoryConnector({"r": rows}),
            policy=ResiliencePolicy(max_attempts=1, jitter=0.0),
            clock=FakeClock(),
        )
        federation.install()
        return federation

    def test_intent_records_only_the_changed_rows(self):
        workload = StockWorkload(n_stocks=3, n_days=4, seed=2)
        rows = workload.relations_for("euter")["r"]
        federation = self.build(rows)
        update_id = federation.insert_quote("nova", "9/9/99", 3.0).update_id
        (intent,) = [r for r in federation.journal.records()
                     if r["type"] == "intent" and r["update"] == update_id]
        assert intent["format"] == "changes"
        assert intent["members"] == {"euter": {"r": {"ins": [
            {"date": "9/9/99", "stkCode": "nova", "clsPrice": 3.0}]}}}
        assert "exact" not in intent

    def test_old_full_state_intent_recovers_as_exact_replace(self, tmp_path):
        workload = StockWorkload(n_stocks=3, n_days=4, seed=2)
        rows = workload.relations_for("euter")["r"]
        desired = rows[1:] + [
            {"date": "9/9/99", "stkCode": "nova", "clsPrice": 3.0}]
        # A journal line as written before change sets existed: no
        # format marker, the member's full post-state as {rel: rows}.
        path = tmp_path / "old.wal"
        path.write_text(encode_record({
            "type": "intent", "update": 1, "origin": "update", "seq": 1,
            "members": {"euter": {"r": desired, "gone": []}},
        }) + "\n", encoding="utf-8")
        journal = FileJournal(path, fsync=False)
        (update,) = journal.pending()
        changes = update.changes("euter")
        assert changes.exact
        assert changes.relations == {"r": {"put": desired},
                                     "gone": {"put": []}}

        federation = self.build(rows)
        replayed = federation.recover(journal=journal)
        assert replayed == {1: ["euter"]}
        assert journal.is_committed(1)
        held = federation.connectors["euter"].connector.scan()
        assert sorted(held) == ["gone", "r"]
        def canon(rows):
            return sorted(json.dumps(row, sort_keys=True) for row in rows)

        assert canon(held["r"]) == canon(desired)
        # The universe was re-scanned from the rolled-forward member.
        quotes = set(federation.unified_quotes())
        assert ("9/9/99", "nova", 3.0) in quotes
        first = rows[0]
        assert (first["date"], first["stkCode"], first["clsPrice"]) \
            not in quotes
        journal.close()

    def test_plain_full_state_begin_is_journaled_exact(self):
        journal = InMemoryJournal()
        journal.begin({"alpha": {"r": [{"x": 1}]}})
        (intent,) = journal.records()
        assert intent["exact"] == ["alpha"]
        assert intent["members"] == {"alpha": {"r": {"put": [{"x": 1}]}}}
        (update,) = journal.reopen().pending()
        assert update.changes("alpha").exact
