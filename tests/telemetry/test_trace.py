"""Span tracer: nesting, ingest remapping, JSONL, rendering."""

import pytest

from repro.telemetry import Tracer, read_jsonl, render_tree, write_jsonl


class TestSpans:
    def test_events_emit_on_close_with_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        events = tracer.events()
        # Spans close inside-out, so the inner span records first.
        inner, outer = events
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert outer["duration_s"] >= inner["duration_s"] >= 0

    def test_yielded_attrs_are_mutable_until_close(self):
        tracer = Tracer()
        with tracer.span("solve", bound=36) as attrs:
            attrs["status"] = "UNSAT"
        (event,) = tracer.events()
        assert event["attrs"] == {"bound": 36, "status": "UNSAT"}

    def test_event_cap_bounds_memory(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.events()) == 2


class TestDrainAndIngest:
    def test_drain_empties_the_buffer(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.events() == []

    def test_ingest_remaps_ids_and_preserves_links(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        batch = worker.drain()

        parent = Tracer()
        with parent.span("local"):
            pass
        parent.ingest(batch)
        by_name = {e["name"]: e for e in parent.events()}
        ids = [e["span_id"] for e in parent.events()]
        assert len(set(ids)) == 3  # no collision with the local span
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None

    def test_ingest_orphans_become_roots(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
            worker.drain()  # inner already shipped; outer closes later
        leftover = worker.drain()
        parent = Tracer()
        parent.ingest(leftover)
        (event,) = parent.events()
        assert event["name"] == "outer" and event["parent_id"] is None

    def test_ingest_extra_attrs_tag_every_event(self):
        worker = Tracer()
        with worker.span("slice", worker_local="yes"):
            pass
        parent = Tracer()
        parent.ingest(worker.drain(), extra={"round": 3, "worker": 1})
        (event,) = parent.events()
        assert event["attrs"] == {"worker_local": "yes", "round": 3,
                                  "worker": 1}


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("compile", modes=4):
            with tracer.span("descent"):
                pass
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.events(), path)
        assert read_jsonl(path) == tracer.events()


class TestRenderTree:
    def test_tree_indents_children_and_shows_attrs(self):
        tracer = Tracer()
        with tracer.span("compile", modes=4):
            with tracer.span("descent.rung", bound=16):
                pass
        text = render_tree(tracer.events())
        lines = text.splitlines()
        assert lines[0].startswith("compile")
        assert "[modes=4]" in lines[0]
        assert lines[1].startswith("  descent.rung")
        assert "bound=16" in lines[1]

    def test_empty_trace_renders_placeholder(self):
        assert render_tree([]) == "(empty trace)"


class TestTolerantRead:
    def test_malformed_lines_are_skipped(self, tmp_path):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.events(), path)
        with open(path, "a") as handle:
            handle.write('{"torn": \n')      # crashed writer's tail
            handle.write("[1, 2, 3]\n")      # valid JSON, not a span
        events = read_jsonl(path)
        assert [e["name"] for e in events] == ["compile"]


class TestOrphanSpans:
    def test_orphan_spans_render_as_marked_roots(self):
        tracer = Tracer()
        with tracer.span("compile"):
            with tracer.span("descent.rung", bound=16):
                pass
        events = tracer.events()
        # Simulate a truncated file: the root span's line is lost.
        orphaned = [e for e in events if e["name"] != "compile"]
        text = render_tree(orphaned)
        assert "descent.rung" in text
        assert "(orphan: parent span missing)" in text

    def test_intact_trees_carry_no_marker(self):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        assert "orphan" not in render_tree(tracer.events())


class TestOpenSpans:
    def test_open_spans_visible_until_close(self):
        tracer = Tracer()
        with tracer.span("compile", modes=4):
            with tracer.span("descent.rung", bound=16):
                open_now = tracer.open_spans()
        assert [s["name"] for s in open_now] == ["compile", "descent.rung"]
        assert open_now[0]["age_s"] >= 0
        assert open_now[1]["attrs"]["bound"] == 16
        assert open_now[1]["parent_id"] == open_now[0]["span_id"]
        assert tracer.open_spans() == []  # all closed on exit

    def test_open_spans_survive_an_exception_unwind(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("compile"):
                raise RuntimeError("boom")
        assert tracer.open_spans() == []  # finally always unregisters
