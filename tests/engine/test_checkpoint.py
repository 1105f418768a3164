"""Tests for journaled checkpoints and --resume (repro.engine.checkpoint)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.errors import CertificationError, InvalidParameterError
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    CheckpointJournal,
    InstanceResult,
    MemoCache,
    load_journal,
)
from repro.engine.batch import solve_instance
from repro.engine.checkpoint import JournalRow
from repro.engine.memo import make_key
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


def _contents(path):
    """A journal's rows without their line numbers."""
    return {key: row[:2] for key, row in load_journal(path).items()}


_KEY = ("fp0", (10, 4), "fertac")
#: An awkward float: shortest-repr JSON must round-trip it bitwise.
_RESULT = InstanceResult(period=0.1 + 0.2, big_used=3, little_used=1)
_STAGES = ((0, 4, 3, 0), (5, 7, 1, 1))
#: The row's first line, for tests that append foreign lines after it.
_LINE = (
    '{"fp":"fp0","counts":[10,4],"strategy":"fertac","period":0.30000000000000004,'
    '"used":[3,1],"stages":[[0,4,3,0],[5,7,1,1]]}'
)


class TestJournalFile:
    def test_roundtrip_is_bitwise(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT, _STAGES)
            journal.commit()
        assert path.read_text() == _LINE + "\n"
        rows = load_journal(path)
        assert rows[_KEY].result.period == _RESULT.period  # exact, not approx
        assert rows == {_KEY: JournalRow(_RESULT, _STAGES, 1)}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_journal(tmp_path / "absent.jsonl") == {}

    def test_torn_tail_is_skipped(self, tmp_path):
        """A crash mid-write leaves a truncated final line — never fatal."""
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT, _STAGES)
        full_line = path.read_text()
        path.write_text(full_line + full_line[: len(full_line) // 2])
        assert load_journal(path) == {_KEY: JournalRow(_RESULT, _STAGES, 1)}

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            '{"fp": "x"}',
            '{"fp": 3, "counts": "ten"}',
            "[1, 2, 3]",
            _LINE.replace(',"stages":[[0,4,3,0],[5,7,1,1]]', ""),
            _LINE.replace("[5,7,1,1]", "[5,7,1]"),
            _LINE.replace('"used":[3,1]', '"used":[3.0,1]'),
            '{"fp":"fp0","big":10,"little":4,"strategy":"fertac",'
            '"period":0.3,"big_used":3,"little_used":1}',
        ],
        ids=[
            "not-json", "incomplete", "wrong-types", "not-an-object",
            "no-stages", "short-stage", "float-usage", "legacy-two-type",
        ],
    )
    def test_foreign_lines_are_typed_errors(self, tmp_path, line):
        """Only a torn *final* line is dropped: any other unusable line —
        the legacy two-type layout and a row without its stage list
        included — names the file and the line."""
        path = tmp_path / "run.jsonl"
        path.write_text(f"{_LINE}\n\n{line}\n{_LINE}\n")
        with pytest.raises(InvalidParameterError, match=r"run\.jsonl, line 3: "):
            load_journal(path)

    def test_duplicate_keys_last_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        newer = InstanceResult(period=9.5, big_used=1, little_used=1)
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT, _STAGES)
            journal.record(_KEY, newer, ((0, 7, 1, 0),))
        assert load_journal(path) == {_KEY: JournalRow(newer, ((0, 7, 1, 0),), 2)}

    def test_replay_into_warms_memo(self, tmp_path):
        (chain,) = _chains(1)
        resources = Resources(2, 2)
        key = make_key(chain, resources, "fertac")
        cell = solve_instance(
            ChainProfile(chain), resources, ("fertac",), journal=True
        )["fertac"]
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(key, *cell)
        memo = MemoCache()
        journal = CheckpointJournal(path)
        assert journal.replay_into(memo, [(key, chain)], resources) == 1
        assert memo.get(key) == cell.result

    def test_replay_into_once_is_idempotent(self, tmp_path):
        """A row is audited and replayed once; later campaigns asking for
        its key find it in the memo."""
        (chain,) = _chains(1)
        resources = Resources(2, 2)
        key = make_key(chain, resources, "fertac")
        cell = solve_instance(
            ChainProfile(chain), resources, ("fertac",), journal=True
        )["fertac"]
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(key, *cell)
        journal = CheckpointJournal(path)
        memo = MemoCache()
        assert journal.replay_into(memo, [(key, chain)], resources) == 1
        assert journal.replay_into(memo, [(key, chain)], resources) == 0

    def test_close_is_repeatable(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record(_KEY, _RESULT, _STAGES)
        journal.close()
        journal.close()
        assert journal.rows_written == 1


class TestMixedJournal:
    """A single journal holding two-type and k-type rows: the key carries
    the full type signature."""

    _K3_KEY = ("fp0", (10, 4, 2), "ktype_ref")
    _K3_RESULT = InstanceResult(
        period=7.25, big_used=2, little_used=1, extra_used=(2,)
    )
    _K3_STAGES = ((0, 2, 2, 0), (3, 3, 1, 1), (4, 7, 2, 2))

    def test_mixed_rows_roundtrip(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT, _STAGES)
            journal.record(self._K3_KEY, self._K3_RESULT, self._K3_STAGES)
        assert load_journal(path) == {
            _KEY: JournalRow(_RESULT, _STAGES, 1),
            self._K3_KEY: JournalRow(self._K3_RESULT, self._K3_STAGES, 2),
        }

    def test_legacy_two_type_row_is_a_typed_error(self, tmp_path):
        """The pre-k-type layout (big/little keys, no counts, no stages)
        has no schedule to audit: resuming from it fails loudly, naming the
        line, instead of trusting its period."""
        legacy = {
            "fp": "fp0", "big": 10, "little": 4, "strategy": "fertac",
            "period": _RESULT.period, "big_used": 3, "little_used": 1,
        }
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps(legacy) + "\n")
        with pytest.raises(InvalidParameterError, match=r"legacy\.jsonl, line 1"):
            load_journal(path)

    def test_every_row_is_written_in_the_counts_layout(self, tmp_path):
        """One writer layout whatever the platform."""
        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT, _STAGES)
            journal.record(self._K3_KEY, self._K3_RESULT, self._K3_STAGES)
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
            "stages": [[0, 4, 3, 0], [5, 7, 1, 1]],
        }
        assert lines[1] == {
            "fp": "fp0",
            "counts": [10, 4, 2],
            "strategy": "ktype_ref",
            "period": 7.25,
            "used": [2, 1, 2],
            "stages": [[0, 2, 2, 0], [3, 3, 1, 1], [4, 7, 2, 2]],
        }

    def test_same_prefix_budgets_do_not_collide(self, tmp_path):
        """A (10, 4) and a (10, 4, 2) instance of the same chain/strategy are
        different platforms and must load to different entries."""
        path = tmp_path / "mixed.jsonl"
        two_key = ("fpX", (10, 4), "fertac")
        three_key = ("fpX", (10, 4, 2), "fertac")
        two = InstanceResult(period=3.0, big_used=1, little_used=1)
        three = InstanceResult(
            period=2.0, big_used=1, little_used=1, extra_used=(1,)
        )
        with CheckpointJournal(path) as journal:
            journal.record(two_key, two, ((0, 3, 1, 0), (4, 7, 1, 1)))
            journal.record(three_key, three, ((0, 3, 1, 0), (4, 7, 1, 2)))
        rows = load_journal(path)
        assert rows[two_key].result == two
        assert rows[three_key].result == three

    def test_torn_ktype_tail_is_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(self._K3_KEY, self._K3_RESULT, self._K3_STAGES)
        full_line = path.read_text()
        path.write_text(full_line + full_line[: len(full_line) // 2])
        assert load_journal(path) == {
            self._K3_KEY: JournalRow(self._K3_RESULT, self._K3_STAGES, 1)
        }


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
        assert second.journal.rows_written == 0

    def test_journal_implies_memo(self, tmp_path):
        engine = CampaignEngine(
            jobs=1, memo=False, journal=tmp_path / "run.jsonl"
        )
        assert engine.memo is not None

    def test_jobs_two_journals_the_rows_of_jobs_one(self, tmp_path):
        chains = _chains(4)
        resources = Resources(3, 2)
        names = ("herad", "fertac", "2catac")
        for jobs in (1, 2):
            with CampaignEngine(jobs=jobs, journal=tmp_path / f"{jobs}.jsonl") as engine:
                engine.solve_instances(chains, resources, names)
                engine.journal.close()
        assert _contents(tmp_path / "2.jsonl") == _contents(tmp_path / "1.jsonl")
        assert len(_contents(tmp_path / "1.jsonl")) == 12


class TestReplayAudit:
    """Journal rows come from disk: each is audited before it enters the
    memo, and one that fails is a typed error naming its file and line."""

    def _journal(self, tmp_path, chains, resources, names=("fertac",)):
        path = tmp_path / "run.jsonl"
        first = CampaignEngine(jobs=1, journal=path)
        first.solve_instances(chains, resources, names)
        first.journal.close()
        return path

    def _rewrite(self, path, edit):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(edit(row)) + "\n" for row in rows))

    def test_poisoned_period_raises_and_never_reaches_the_memo(self, tmp_path):
        chains = _chains(3)
        resources = Resources(2, 2)
        path = self._journal(tmp_path, chains, resources)
        self._rewrite(path, lambda row: {**row, "period": row["period"] * 0.5})
        resumed = CampaignEngine(jobs=1, journal=path)
        with pytest.raises(
            CertificationError, match=r"(?s)run\.jsonl, line 1: fertac: .*period-mismatch"
        ):
            resumed.solve_instances(chains, resources, ("fertac",))
        assert len(resumed.memo) == 0

    def test_poisoned_usage_raises(self, tmp_path):
        chains = _chains(2)
        resources = Resources(2, 2)
        path = self._journal(tmp_path, chains, resources)
        self._rewrite(path, lambda row: {**row, "used": [0, 0]})
        with pytest.raises(CertificationError, match="usage-mismatch"):
            CampaignEngine(jobs=1, journal=path).solve_instances(
                chains, resources, ("fertac",)
            )

    def test_broken_stage_list_raises(self, tmp_path):
        """A stage list that is not a schedule fails its audit too."""
        chains = _chains(2)
        resources = Resources(2, 2)
        path = self._journal(tmp_path, chains, resources)
        self._rewrite(path, lambda row: {**row, "stages": [[0, 2, 1, 0], [4, 7, 1, 0]]})
        with pytest.raises(CertificationError, match=r"(?s)line 1: fertac: .*contiguous"):
            CampaignEngine(jobs=1, journal=path).solve_instances(
                chains, resources, ("fertac",)
            )

    def test_row_moved_to_a_smaller_budget_fails_its_audit(self, tmp_path):
        """The audit runs against the budget of the campaign that asks:
        a row relabelled to a budget it overruns is caught."""
        chains = _chains(2)
        path = self._journal(tmp_path, chains, Resources(4, 4), ("herad",))
        self._rewrite(path, lambda row: {**row, "counts": [1, 1]})
        with pytest.raises(CertificationError, match="budget"):
            CampaignEngine(jobs=1, journal=path).solve_instances(
                chains, Resources(1, 1), ("herad",)
            )

    def test_rows_another_campaign_asks_for_wait_for_it(self, tmp_path):
        """A row is audited by the first campaign that looks it up; a
        poisoned row of a budget this campaign does not solve stays unread."""
        chains = _chains(2)
        path = self._journal(tmp_path, chains, Resources(2, 2))
        lines = path.read_text().splitlines()
        poisoned = json.loads(lines[0])
        poisoned.update(counts=[3, 3], period=poisoned["period"] * 0.5)
        path.write_text("\n".join([*lines, json.dumps(poisoned)]) + "\n")
        engine = CampaignEngine(jobs=1, journal=path)
        engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        assert engine.journal.rows_written == 0
        with pytest.raises(CertificationError, match=r"line 3: fertac"):
            engine.solve_instances(chains, Resources(3, 3), ("fertac",))
