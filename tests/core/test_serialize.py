"""Lock-table serialization round trips."""

import pytest
from hypothesis import given, settings

from repro.core.errors import ReproError
from repro.core.serialize import (
    FORMAT_VERSION,
    check_version,
    dumps,
    loads,
    table_from_dict,
    table_to_dict,
)
from tests.properties.test_invariants import apply_ops, ops_strategy


class TestRoundTrip:
    def test_example_41(self, example_41_table):
        clone = table_from_dict(table_to_dict(example_41_table))
        assert str(clone) == str(example_41_table)

    def test_indexes_rebuilt(self, example_41_table):
        clone = table_from_dict(table_to_dict(example_41_table))
        assert clone.blocked_at(7) == "R1"
        assert not clone.blocked_in_queue(1)
        assert clone.held_by(3) == {"R1"}

    def test_json_round_trip(self, example_51_table):
        clone = loads(dumps(example_51_table))
        assert str(clone) == str(example_51_table)

    def test_empty_table(self):
        from repro.lockmgr.lock_table import LockTable

        assert table_to_dict(LockTable()) == {"v": 1, "resources": []}
        assert len(table_from_dict({"resources": []})) == 0

    @given(ops=ops_strategy)
    @settings(max_examples=60)
    def test_random_tables_round_trip(self, ops):
        table = apply_ops(ops)
        clone = table_from_dict(table_to_dict(table))
        assert str(clone) == str(table)
        assert sorted(clone.blocked_tids()) == sorted(table.blocked_tids())

    @given(ops=ops_strategy)
    @settings(max_examples=40)
    def test_rebuilt_tables_verify_clean(self, ops):
        from repro.core.verify import verify_table

        clone = table_from_dict(table_to_dict(apply_ops(ops)))
        assert verify_table(clone) == []


class TestVersionedEnvelope:
    def test_dumps_carry_current_version(self, example_41_table):
        assert table_to_dict(example_41_table)["v"] == FORMAT_VERSION
        assert '"v": 1' in dumps(example_41_table)

    def test_versioned_round_trip(self, example_41_table):
        data = table_to_dict(example_41_table)
        assert data["v"] == 1
        clone = table_from_dict(data)
        assert str(clone) == str(example_41_table)
        # The round trip preserves the envelope too.
        assert table_to_dict(clone) == data

    def test_legacy_dump_without_version_accepted(self, example_51_table):
        data = table_to_dict(example_51_table)
        del data["v"]
        clone = table_from_dict(data)
        assert str(clone) == str(example_51_table)

    @pytest.mark.parametrize("version", [0, 2, 99, "1", None])
    def test_unknown_version_rejected(self, example_51_table, version):
        data = table_to_dict(example_51_table)
        data["v"] = version
        with pytest.raises(ReproError, match="version"):
            table_from_dict(data)

    def test_check_version_names_the_artifact(self):
        with pytest.raises(ReproError, match="wire frame"):
            check_version({"v": 7}, "wire frame")


class TestValidation:
    def test_corrupted_total_rejected(self, example_51_table):
        data = table_to_dict(example_51_table)
        data["resources"][0]["total"] = "X"
        with pytest.raises(ReproError):
            table_from_dict(data)

    def test_missing_blocked_defaults_nl(self):
        table = table_from_dict(
            {
                "resources": [
                    {
                        "rid": "R",
                        "holders": [{"tid": 1, "granted": "S"}],
                        "queue": [],
                    }
                ]
            }
        )
        assert not table.existing("R").holder_entry(1).is_blocked

    def test_repeated_resource_rejected(self, example_51_table):
        data = table_to_dict(example_51_table)
        data["resources"].append(dict(data["resources"][0]))
        with pytest.raises(ReproError, match="already present"):
            table_from_dict(data)
