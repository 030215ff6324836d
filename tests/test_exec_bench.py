"""Tests for the ``repro bench`` record trajectory and profiling helpers.

The expensive path (a full ``run_bench``) is exercised through the CLI
smoke test; here we pin the pure record plumbing: picking the latest
prior record, the warn-and-seed behavior on an empty trajectory, delta
reporting, and the cProfile table shape.
"""

import datetime
import io
import json

from repro.exec import RunPoint, compare_with_previous, profile_grid
from repro.exec.bench import (
    _record_timestamp,
    latest_bench_record,
    write_bench_record,
)
from repro.experiments import ExperimentConfig

SMALL = ExperimentConfig(n_clients=8, n_ionodes=4, workload_scale=0.05)


def fake_record(**overrides):
    record = {
        "kind": "repro-bench",
        "serial_seconds": 2.0,
        "parallel_seconds": 1.0,
        "warm_seconds": 0.01,
        "events_per_sec": 100000.0,
    }
    record.update(overrides)
    return record


class TestLatestBenchRecord:
    def test_empty_dir_is_none(self, tmp_path):
        assert latest_bench_record(tmp_path) is None
        assert latest_bench_record(tmp_path / "missing") is None

    def test_picks_newest_by_timestamp_name(self, tmp_path):
        for stamp in ("20260101T000000", "20260301T000000", "20260201T000000"):
            (tmp_path / f"BENCH_{stamp}.json").write_text("{}")
        latest = latest_bench_record(tmp_path)
        assert latest is not None
        assert latest.name == "BENCH_20260301T000000.json"

    def test_exclude_skips_the_record_just_written(self, tmp_path):
        older = tmp_path / "BENCH_20260101T000000.json"
        newer = tmp_path / "BENCH_20260301T000000.json"
        older.write_text("{}")
        newer.write_text("{}")
        assert latest_bench_record(tmp_path, exclude=newer) == older
        assert latest_bench_record(tmp_path, exclude=older) == newer

    def test_exclude_only_record_is_none(self, tmp_path):
        only = tmp_path / "BENCH_20260101T000000.json"
        only.write_text("{}")
        assert latest_bench_record(tmp_path, exclude=only) is None


class TestRecordTimestamp:
    UTC = datetime.timezone.utc

    def test_parses_utc_z_stamp(self, tmp_path):
        path = tmp_path / "BENCH_20260808T120102Z.json"
        assert _record_timestamp(path) == datetime.datetime(
            2026, 8, 8, 12, 1, 2, tzinfo=self.UTC
        )

    def test_legacy_naive_stamp_read_as_utc(self, tmp_path):
        path = tmp_path / "BENCH_20260101T000000.json"
        assert _record_timestamp(path) == datetime.datetime(
            2026, 1, 1, tzinfo=self.UTC
        )

    def test_unparseable_name_sorts_to_the_epoch(self, tmp_path):
        garbage = _record_timestamp(tmp_path / "BENCH_notastamp.json")
        real = _record_timestamp(tmp_path / "BENCH_19700101T000001.json")
        assert garbage < real

    def test_mixed_legacy_and_utc_ordered_by_instant(self, tmp_path):
        """The bugfix scenario: a naive local stamp from a timezone ahead
        of UTC sorts lexically *after* a newer Z stamp ('...Z' suffix),
        but the parsed instants order them correctly either way round."""
        legacy_old = tmp_path / "BENCH_20260301T000000.json"
        utc_new = tmp_path / "BENCH_20260401T000000Z.json"
        for p in (legacy_old, utc_new):
            p.write_text("{}")
        assert latest_bench_record(tmp_path) == utc_new

        legacy_new = tmp_path / "BENCH_20260501T000000.json"
        legacy_new.write_text("{}")
        assert latest_bench_record(tmp_path) == legacy_new

    def test_stray_file_never_shadows_a_real_record(self, tmp_path):
        real = tmp_path / "BENCH_20260101T000000Z.json"
        stray = tmp_path / "BENCH_zzzzlexicallylast.json"
        for p in (real, stray):
            p.write_text("{}")
        assert latest_bench_record(tmp_path) == real


class TestCompareWithPrevious:
    def test_empty_trajectory_warns_and_seeds(self, tmp_path):
        """No prior record must never crash the bench — it warns and the
        fresh record becomes the baseline."""
        err = io.StringIO()
        outcome = compare_with_previous(fake_record(), tmp_path, out=err)
        assert outcome is None
        assert "seeds the trajectory" in err.getvalue()

    def test_unreadable_prior_warns_not_raises(self, tmp_path):
        (tmp_path / "BENCH_20260101T000000.json").write_text("not json{")
        err = io.StringIO()
        outcome = compare_with_previous(fake_record(), tmp_path, out=err)
        assert outcome is None
        assert "warning" in err.getvalue()

    def test_deltas_against_prior(self, tmp_path):
        prior = tmp_path / "BENCH_20260101T000000.json"
        prior.write_text(json.dumps(fake_record(
            serial_seconds=4.0, events_per_sec=50000.0,
        )))
        err = io.StringIO()
        outcome = compare_with_previous(fake_record(), tmp_path, out=err)
        assert outcome is not None
        assert outcome["previous"] == prior.name
        deltas = outcome["deltas"]
        assert deltas["serial_seconds"] == -0.5     # 4.0s -> 2.0s
        assert deltas["events_per_sec"] == 1.0      # 50k -> 100k
        text = err.getvalue()
        assert prior.name in text
        assert "serial_seconds: 4 -> 2" in text

    def test_skips_metrics_absent_from_either_side(self, tmp_path):
        prior = tmp_path / "BENCH_20260101T000000.json"
        prior.write_text(json.dumps({"kind": "repro-bench",
                                     "serial_seconds": 4.0}))
        outcome = compare_with_previous(
            fake_record(), tmp_path, out=io.StringIO()
        )
        assert outcome is not None
        assert "events_per_sec" not in outcome["deltas"]
        assert "serial_seconds" in outcome["deltas"]


class TestWriteBenchRecord:
    def test_round_trips_and_names_by_timestamp(self, tmp_path):
        path = write_bench_record(
            fake_record(created="2026-01-01T00:00:00"), tmp_path
        )
        assert path.name.startswith("BENCH_")
        assert json.loads(path.read_text())["kind"] == "repro-bench"

    def test_utc_created_stamp_names_a_z_file(self, tmp_path):
        """Current records carry Z-suffixed UTC stamps end to end."""
        path = write_bench_record(
            fake_record(created="2026-08-08T01:02:03Z"), tmp_path
        )
        assert path.name == "BENCH_20260808T010203Z.json"
        assert _record_timestamp(path) == datetime.datetime(
            2026, 8, 8, 1, 2, 3, tzinfo=datetime.timezone.utc
        )


class TestProfileGrid:
    def test_profile_table_per_point(self):
        points = [RunPoint("sar", "simple", False, SMALL)]
        blocks = profile_grid(points, top=5)
        assert len(blocks) == 1
        label, table = blocks[0]
        assert label == "sar/simple/plain"
        # A real pstats table sorted by tottime.
        assert "tottime" in table
        assert "function calls" in table
