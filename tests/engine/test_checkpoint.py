"""Tests for journaled checkpoints and --resume (repro.engine.checkpoint)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    CheckpointJournal,
    InstanceResult,
    MemoCache,
    load_journal,
)
from repro.workloads.synthetic import GeneratorConfig, chain_batch


def _chains(count=6, num_tasks=8, sr=0.5, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


def _assert_same_arrays(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name].periods, b[name].periods)
        np.testing.assert_array_equal(a[name].big_used, b[name].big_used)
        np.testing.assert_array_equal(a[name].little_used, b[name].little_used)


_KEY = ("fp0", (10, 4), "fertac")
#: An awkward float: shortest-repr JSON must round-trip it bitwise.
_RESULT = InstanceResult(period=0.1 + 0.2, big_used=3, little_used=1)
#: ``_KEY -> _RESULT`` as journals older than the k-type platform layer
#: spelled it (read-only today: the writer emits ``counts``/``used``).
_LEGACY_LINE = json.dumps(
    {
        "fp": "fp0",
        "big": 10,
        "little": 4,
        "strategy": "fertac",
        "period": _RESULT.period,
        "big_used": 3,
        "little_used": 1,
    }
)


class TestJournalFile:
    def test_roundtrip_is_bitwise(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
            journal.commit()
        rows = load_journal(path)
        assert rows[_KEY].period == _RESULT.period  # exact, not approx
        assert rows[_KEY] == _RESULT

    def test_missing_file_is_empty(self, tmp_path):
        assert load_journal(tmp_path / "absent.jsonl") == {}

    def test_torn_tail_is_skipped(self, tmp_path):
        """A crash mid-write leaves a truncated final line — never fatal."""
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        full_line = path.read_text()
        path.write_text(full_line + full_line[: len(full_line) // 2])
        rows = load_journal(path)
        assert rows == {_KEY: _RESULT}

    def test_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        with path.open("a") as handle:
            handle.write("not json at all\n")
            handle.write('{"fp": "x"}\n')  # incomplete row
            handle.write('{"fp": 3, "big": "ten"}\n')  # wrong types
            handle.write('[1, 2, 3]\n')  # not an object
            handle.write("\n")
        assert load_journal(path) == {_KEY: _RESULT}

    def test_duplicate_keys_last_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        newer = InstanceResult(period=9.5, big_used=1, little_used=1)
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
            journal.record(_KEY, newer)
        assert load_journal(path) == {_KEY: newer}

    def test_replay_into_warms_memo(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        memo = MemoCache()
        journal = CheckpointJournal(path)
        assert journal.replay_into(memo) == 1
        assert memo.get(_KEY) == _RESULT

    def test_replay_into_once_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        journal = CheckpointJournal(path)
        memo = MemoCache()
        assert journal.replay_into_once(memo) == 1
        assert journal.replay_into_once(memo) == 0

    def test_close_is_repeatable(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record(_KEY, _RESULT)
        journal.close()
        journal.close()
        assert journal.rows_written == 1


class TestMixedJournal:
    """A single journal holding legacy two-type rows and ``counts`` rows: the
    key carries the full type signature, and both layouts stay readable."""

    _K3_KEY = ("fp0", (10, 4, 2), "ktype_ref")
    _K3_RESULT = InstanceResult(
        period=7.25, big_used=2, little_used=1, extra_used=(2,)
    )

    def test_mixed_rows_roundtrip(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(_LEGACY_LINE + "\n")
        with CheckpointJournal(path) as journal:
            journal.record(self._K3_KEY, self._K3_RESULT)
        rows = load_journal(path)
        assert rows == {_KEY: _RESULT, self._K3_KEY: self._K3_RESULT}

    def test_two_type_rows_keep_legacy_layout(self, tmp_path):
        """k=2 rows spelled the pre-k-type way (big/little keys, no counts
        field) stay readable, and load to the entry the writer's own
        ``counts`` spelling of the same row loads to."""
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text(_LEGACY_LINE + "\n")
        current = tmp_path / "current.jsonl"
        with CheckpointJournal(current) as journal:
            journal.record(_KEY, _RESULT)
        assert load_journal(legacy) == load_journal(current) == {_KEY: _RESULT}

    def test_every_row_is_written_in_the_counts_layout(self, tmp_path):
        """One writer layout whatever the platform."""
        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
            journal.record(self._K3_KEY, self._K3_RESULT)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert lines[0] == {
            "fp": "fp0",
            "counts": [10, 4],
            "strategy": "fertac",
            "period": _RESULT.period,
            "used": [3, 1],
        }
        assert lines[1] == {
            "fp": "fp0",
            "counts": [10, 4, 2],
            "strategy": "ktype_ref",
            "period": 7.25,
            "used": [2, 1, 2],
        }

    def test_same_prefix_budgets_do_not_collide(self, tmp_path):
        """A (10, 4) and a (10, 4, 2) instance of the same chain/strategy are
        different platforms and must replay to different memo entries."""
        path = tmp_path / "mixed.jsonl"
        two_key = ("fpX", (10, 4), "fertac")
        three_key = ("fpX", (10, 4, 2), "fertac")
        two = InstanceResult(period=3.0, big_used=1, little_used=1)
        three = InstanceResult(
            period=2.0, big_used=1, little_used=1, extra_used=(1,)
        )
        with CheckpointJournal(path) as journal:
            journal.record(two_key, two)
            journal.record(three_key, three)
        memo = MemoCache()
        assert CheckpointJournal(path).replay_into(memo) == 2
        assert memo.get(two_key) == two
        assert memo.get(three_key) == three

    def test_torn_ktype_tail_is_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(self._K3_KEY, self._K3_RESULT)
        full_line = path.read_text()
        path.write_text(full_line + full_line[: len(full_line) // 2])
        assert load_journal(path) == {self._K3_KEY: self._K3_RESULT}


class TestEngineJournaling:
    def test_campaign_is_journaled_per_instance(self, tmp_path):
        chains = _chains(5)
        resources = Resources(2, 2)
        path = tmp_path / "run.jsonl"
        engine = CampaignEngine(jobs=1, journal=path)
        engine.solve_instances(chains, resources, ("fertac", "herad"))
        engine.journal.close()
        assert len(load_journal(path)) == 10  # 5 chains x 2 strategies

    def test_resume_replays_bitwise(self, tmp_path):
        chains = _chains(6)
        resources = Resources(2, 2)
        reference = CampaignEngine(jobs=1, memo=False).solve_instances(
            chains, resources, ("fertac",)
        )

        path = tmp_path / "run.jsonl"
        first = CampaignEngine(jobs=1, journal=path)
        _assert_same_arrays(
            first.solve_instances(chains, resources, ("fertac",)), reference
        )
        first.journal.close()

        # A fresh engine (fresh memo) resumes purely from the journal.
        second = CampaignEngine(jobs=1, journal=path)
        _assert_same_arrays(
            second.solve_instances(chains, resources, ("fertac",)), reference
        )
        assert second.memo is not None
        assert second.memo.stats.hits >= len(chains)
        second.journal.close()

    def test_journal_implies_memo(self, tmp_path):
        engine = CampaignEngine(
            jobs=1, memo=False, journal=tmp_path / "run.jsonl"
        )
        assert engine.memo is not None

    def test_certify_bypasses_journal_replay(self, tmp_path):
        """Cached scalars cannot be audited: --certify re-solves everything.

        A journal poisoned with a corrupt row must not leak into a certified
        run's arrays.
        """
        chains = _chains(3)
        resources = Resources(2, 2)
        reference = CampaignEngine(jobs=1, memo=False).solve_instances(
            chains, resources, ("fertac",)
        )

        path = tmp_path / "run.jsonl"
        first = CampaignEngine(jobs=1, journal=path)
        first.solve_instances(chains, resources, ("fertac",))
        first.journal.close()

        # Poison every journaled period.
        poisoned = load_journal(path)
        with CheckpointJournal(path) as journal:
            for key, result in poisoned.items():
                journal.record(
                    key,
                    InstanceResult(
                        period=result.period * 0.5,
                        big_used=result.big_used,
                        little_used=result.little_used,
                    ),
                )

        # Control: without certify the poisoned rows do replay.
        replayed = CampaignEngine(jobs=1, journal=path)
        tampered = replayed.solve_instances(chains, resources, ("fertac",))
        replayed.journal.close()
        assert tampered["fertac"].periods[0] == pytest.approx(
            reference["fertac"].periods[0] * 0.5
        )

        certified = CampaignEngine(jobs=1, journal=path)
        arrays = certified.solve_instances(
            chains, resources, ("fertac",), certify=True
        )
        certified.journal.close()
        _assert_same_arrays(arrays, reference)  # fresh solves, not the poison
