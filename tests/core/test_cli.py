"""Tests for the interactive shell (driven programmatically)."""

import io

from repro.cli import Shell


def run(lines):
    out = io.StringIO()
    shell = Shell(out=out)
    for line in lines:
        if not shell.handle(line):
            break
    return out.getvalue()


class TestShell:
    def test_help_and_quit(self):
        output = run([".help", ".quit"])
        assert ".theory" in output

    def test_rectangle_session(self):
        output = run([
            ".theory dense_order",
            ".relation R(n, x)",
            ".tuple R: n = 1 and 0 <= x and x <= 4",
            ".point R: 2, 9",
            ".query exists x . R(n, x) and x < 2",
            ".show R",
            ".list",
        ])
        assert "relation R/2 created" in output
        assert "tuple added" in output
        assert "point added" in output
        assert "n = 1" in output  # query result contains user 1
        assert "R/2: 2 tuples" in output

    def test_datalog_session(self):
        output = run([
            ".relation E(x, y)",
            ".point E: 1, 2",
            ".point E: 2, 3",
            ".rule T(x, y) :- E(x, y).",
            ".rule T(x, y) :- T(x, z), E(z, y).",
            ".run",
        ])
        assert "fixpoint" in output
        assert "T(" in output

    def test_theory_switch_resets(self):
        output = run([
            ".relation R(x)",
            ".theory equality",
            ".list",
        ])
        assert "theory set to equality" in output
        assert "R/1" not in output.split("theory set to equality")[1]

    def test_errors_reported_not_raised(self):
        output = run([
            ".show Nope",
            ".tuple R: x < 1",
            ".query R(x",
            ".theory bogus",
            ".bogus",
        ])
        assert output.count("error:") >= 3
        assert "unknown theory" in output
        assert "unknown command" in output

    def test_point_with_string_values(self):
        output = run([
            ".theory equality",
            ".relation Color(item, hue)",
            ".point Color: apple, red",
            ".query exists item . Color(item, hue)",
        ])
        assert "point added" in output

    def test_run_without_rules(self):
        assert "no rules" in run([".run"])


class TestEngineCommand:
    def test_show_defaults(self):
        output = run([".engine"])
        assert "join_planner=on" in output
        assert "index_probes=on" in output
        assert "pin_filter=on" in output

    def test_toggle_and_run(self):
        output = run([
            ".engine index_probes=off pin_filter=off",
            ".engine",
            ".relation E(x, y)",
            ".point E: 0, 1",
            ".point E: 1, 2",
            ".rule T(x, y) :- E(x, y).",
            ".rule T(x, y) :- T(x, z), E(z, y).",
            ".run",
        ])
        assert "index_probes=off" in output
        assert "pin_filter=off" in output
        assert "fixpoint in" in output

    def test_all_off_and_all_on(self):
        output = run([".engine all_off", ".engine all_on"])
        assert "theory_cache=off" in output
        assert output.count("join_planner=on") == 1

    def test_bad_flag_reports_usage(self):
        output = run([".engine warp_drive=on"])
        assert "usage: .engine" in output

    def test_bad_token_applies_no_flag(self):
        # every token is checked before any is applied: a valid flag next
        # to an unknown one changes nothing
        out = io.StringIO()
        shell = Shell(out=out)
        shell.handle(".engine index_probes=off bogus=on")
        shell.handle(".engine pin_filter=off parallel=off")
        assert out.getvalue().count("usage: .engine") == 2
        assert shell.engine.index_probes is True
        assert shell.engine.pin_filter is True

    def test_reports_plan_cache_state(self):
        from repro.core.compile import PLAN_CACHE

        PLAN_CACHE.clear()
        output = run([
            ".relation E(x, y)",
            ".point E: 1, 2",
            ".rule T(x, y) :- E(x, y).",
            ".run",
            ".run",
            ".engine",
        ])
        assert "compile_rules=on" in output
        assert "plan cache: 1 compiled program(s)" in output
        # first .run misses, second hits the prepared-query cache
        assert "1 hits, 1 misses" in output


class TestPlanCommand:
    _SESSION = [
        ".relation E(x, y)",
        ".relation T(x, y)",
        ".point E: 1, 2",
        ".point E: 2, 3",
        ".rule T(x, y) :- E(x, y).",
        ".rule T(x, y) :- T(x, z), E(z, y).",
    ]

    def test_plan_by_head_name_prints_all_matching_rules(self):
        output = run([*self._SESSION, ".plan T"])
        assert output.count("rule: T(") == 2
        assert "order: [0]" in output
        assert "step 0:" in output and "step 1:" in output
        assert "sizes: " in output

    def test_plan_by_index(self):
        output = run([*self._SESSION, ".plan 2"])
        assert output.count("rule: T(") == 1
        assert "T(x, z)" in output

    def test_plan_uses_live_sizes_for_tie_breaks(self):
        # T is empty before .run, populated after: the rendered sizes line
        # (the planner's greedy inputs) must track the live database
        before = run([*self._SESSION, ".plan 2"])
        after = run([*self._SESSION, ".run", ".plan 2"])
        assert "T=0" in before
        assert "T=3" in after

    def test_plan_errors(self):
        assert "no rules" in run([".plan T"])
        output = run([*self._SESSION, ".plan Q", ".plan 9", ".plan"])
        assert "no rule with head 'Q'" in output
        assert "out of range" in output
        assert "usage: .plan" in output


class TestViewCommand:
    _SESSION = [
        ".relation E(x, y)",
        ".point E: 0, 1",
        ".point E: 1, 2",
        ".rule T(x, y) :- E(x, y).",
        ".rule T(x, y) :- T(x, z), E(z, y).",
    ]

    def test_view_lifecycle(self):
        output = run([
            *self._SESSION,
            ".view on",
            ".insert E: x = 2 and y = 3",
            ".view",
            ".view off",
        ])
        assert "mode=incremental" in output
        assert "insert applied: +3/-0 derived" in output
        assert "view dropped" in output

    def test_retract_rederives_and_reports(self):
        output = run([
            *self._SESSION,
            ".view on",
            ".retract E: x = 0 and y = 1",
            ".show T",
        ])
        assert "retract applied: +0/-2 derived" in output
        assert "_0 = 0" not in output.split("retract applied")[1]

    def test_noop_deltas_reported(self):
        output = run([
            *self._SESSION,
            ".view on",
            ".retract E: x = 9 and y = 9",
            ".insert E: x = 0 and y = 1",
        ])
        assert "no-op (retract of a missing tuple)" in output
        assert "no-op (insert of a present tuple)" in output

    def test_view_blocks_direct_mutation(self):
        output = run([
            *self._SESSION,
            ".view on",
            ".point E: 7, 8",
            ".tuple E: x = 7 and y = 8",
            ".relation F(x)",
            ".rule U(x) :- E(x, y).",
            ".run",
        ])
        assert output.count("a live view is registered") == 4
        assert "already maintains the fixpoint" in output

    def test_view_usage_and_guards(self):
        output = run([
            ".view",
            ".insert E: x = 1 and y = 2",
            ".view banana",
            ".view off",
            ".view refresh",
            ".rule T(x, y) :- E(x, y).",
            ".view on",  # E does not exist yet -> shell error, not a crash
        ])
        assert "no view registered" in output
        assert "usage: .view" in output
        assert ".view on enables .insert" in output

    def test_refresh_after_budget_trip(self):
        output = run([
            ".relation E(x, y)",
            ".point E: 0, 1",
            ".rule T(x, y) :- E(x, y).",
            ".rule T(x, y) :- T(x, z), E(z, y).",
            ".budget tuples=4 fringe",
            ".view on",
            ".point E: 1, 2",  # blocked (view active) -- state unchanged
            ".insert E: x = 1 and y = 2",
            ".insert E: x = 2 and y = 0",  # cycle: blows the 4-tuple budget
            ".view",
            ".insert E: x = 5 and y = 6",  # stale -> shell error line
            ".budget off",
            ".view refresh",
        ])
        assert "STALE" in output
        assert "error:" in output  # StaleViewError surfaced as a shell error


class TestMagicQueryRouting:
    SESSION = [
        ".relation E(x, y)",
        ".point E: 0, 1",
        ".point E: 1, 2",
        ".point E: 5, 6",
        ".rule T(x, y) :- E(x, y).",
        ".rule T(x, y) :- T(x, z), E(z, y).",
    ]

    def test_goal_routes_through_magic_without_run(self):
        output = run([*self.SESSION, ".query T(0, y)"])
        assert "2 answer(s) [T^bf" in output
        assert "magic rule(s)" in output
        assert "cone" in output

    def test_constraint_goal_binds_by_interval(self):
        output = run([*self.SESSION, ".query T(x, y), 4 < x, x < 6"])
        assert "1 answer(s) [T^bf" in output

    def test_magic_toggle_switches_to_oracle(self):
        output = run([
            *self.SESSION,
            ".engine magic=off",
            ".query T(0, y)",
            ".engine",
        ])
        assert "full fixpoint (magic off)" in output
        assert "query path: magic off (full-fixpoint oracle)" in output

    def test_quantified_queries_keep_the_calculus_path(self):
        output = run([*self.SESSION, ".query exists y . T(0, y) and y < 2"])
        # the calculus path answers over the *current database* (no rules
        # run), so the magic status line must not appear
        assert "cone" not in output

    def test_edb_goal_keeps_the_calculus_path(self):
        output = run([*self.SESSION, ".query E(0, y)"])
        assert "cone" not in output
        assert "y = 1" in output

    def test_view_goal_queries_live_edb(self):
        output = run([
            *self.SESSION,
            ".view on",
            ".insert E: x = 2 and y = 3",
            ".query T(0, y)",
        ])
        assert "3 answer(s) [T^bf" in output

    def test_help_documents_goal_routing(self):
        output = run([".help"])
        assert "demand-driven (magic sets)" in output
