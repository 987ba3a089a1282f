"""The ``python -m repro bench`` suite: records, fixpoint gate, regression check."""

import json

import pytest

from repro.harness import bench
from repro.harness.bench import check_regression, main


@pytest.fixture()
def sink(tmp_path, monkeypatch):
    target = tmp_path / "bench.json"
    monkeypatch.setenv("REPRO_BENCH_JSON", str(target))
    return target


#: a tiny profile so the suite stays fast under pytest
_TINY = {
    "dense": [6, 8],
    "equality": [6],
    "boolean": 4,
    "econfig": 8,
    "ivm": [8],
    # 32, not smaller: the --check gate's 5x floor vs the quadratic full
    # closure only clears with comfortable margin from this size up
    "magic": 32,
}


class TestBenchSuite:
    def test_smoke_profile_records_all_workloads(self, sink, monkeypatch):
        monkeypatch.setitem(bench.PROFILES, "smoke", _TINY)
        assert main(["--profile", "smoke"]) == 0
        document = json.loads(sink.read_text())
        records = document["records"]
        assert set(records) >= {
            "engine_tc_dense[smoke]",
            "engine_tc_equality[smoke]",
            "engine_tc_boolean[smoke]",
            "equality_econfig_baseline[smoke]",
            "compile_stats[smoke]",
        }
        dense = records["engine_tc_dense[smoke]"]
        largest = dense["per_size"][str(max(_TINY["dense"]))]
        assert largest["identical_fixpoints"] is True
        assert set(largest["columns"]) == {
            "all_on",
            "all_off",
            "no_join_planner",
            "no_index_probes",
            "no_compile",
        }
        assert largest["speedup_compile"] > 0
        assert records["equality_econfig_baseline[smoke]"]["agree"] is True
        cache = records["compile_stats[smoke]"]
        assert cache["setup_speedup_warm"] >= 5
        assert cache["cold_setup_s"] > cache["warm_setup_s"] > 0
        ivm = records["ivm_stats[smoke]"]
        cell = ivm["per_size"][str(max(_TINY["ivm"]))]
        assert cell["identical_fixpoints"] is True
        assert cell["maintained_s"] > 0 and cell["scratch_s"] > 0
        assert cell["ivm_derived_added"] == max(_TINY["ivm"]) + 1
        magic = records["magic_stats[smoke]"]
        assert magic["identical_answers"] is True
        assert magic["warm_plan_hit"] is True
        assert magic["cone_tuples"] < magic["full_tuples"]

    def test_check_passes_against_own_baseline(self, sink, monkeypatch):
        monkeypatch.setitem(bench.PROFILES, "smoke", _TINY)
        assert main(["--profile", "smoke"]) == 0
        # a run checked against its own freshly-written numbers at a huge
        # threshold must pass
        assert (
            main(["--profile", "smoke", "--check", "95", "--baseline", str(sink)])
            == 0
        )


class TestRegressionCheck:
    def _doc(self, ratio):
        return {"records": {"engine_tc_dense": {"speedup_all_on": ratio}}}

    def test_regression_detected(self):
        failures = check_regression(self._doc(1.0), self._doc(4.0), 25)
        assert len(failures) == 1
        assert "engine_tc_dense" in failures[0]

    def test_within_threshold_passes(self):
        assert check_regression(self._doc(3.2), self._doc(4.0), 25) == []

    def test_improvement_passes(self):
        assert check_regression(self._doc(6.0), self._doc(4.0), 25) == []

    def test_missing_fresh_record_ignored(self):
        fresh = {"records": {}}
        assert check_regression(fresh, self._doc(4.0), 25) == []

    def test_non_engine_records_ignored(self):
        baseline = {"records": {"datalog_dense_scaling": {"speedup_all_on": 9.9}}}
        assert check_regression({"records": {}}, baseline, 25) == []

    def test_compile_ratio_gates_independently(self):
        fresh = {
            "records": {"engine_tc_dense": {"speedup_all_on": 4.0, "speedup_compile": 1.0}}
        }
        baseline = {
            "records": {"engine_tc_dense": {"speedup_all_on": 4.0, "speedup_compile": 2.0}}
        }
        failures = check_regression(fresh, baseline, 25)
        assert len(failures) == 1
        assert "::compile" in failures[0]

    def test_plan_cache_floor_enforced(self):
        fresh = {"records": {"compile_stats[full]": {"setup_speedup_warm": 3.2}}}
        failures = check_regression(fresh, {"records": {}}, 25)
        assert failures == [
            "compile_stats[full]: warm plan-cache setup speedup 3.2x below the 5x floor"
        ]

    def test_plan_cache_floor_passes(self):
        fresh = {"records": {"compile_stats[full]": {"setup_speedup_warm": 12.0}}}
        assert check_regression(fresh, {"records": {}}, 25) == []

    def test_ivm_floor_enforced_at_gated_sizes(self):
        fresh = {
            "records": {
                "ivm_stats[full]": {
                    "per_size": {
                        "8": {"speedup_maintained": 2.0},   # below min N: exempt
                        "32": {"speedup_maintained": 3.0},  # gated: fails
                        "64": {"speedup_maintained": 9.0},  # gated: passes
                    }
                }
            }
        }
        failures = check_regression(fresh, {"records": {}}, 25)
        assert failures == [
            "ivm_stats[full][N=32]: maintained-vs-scratch speedup 3.0x "
            "below the 5x floor"
        ]
