"""Knowledge-flow measurements at scale (E9's simulator side)."""

import pytest

from repro.applications.knowledge_flow import (
    broadcast_knowledge_latency,
    latency_series,
    verify_chain_gating,
)


class TestLatency:
    def test_rows_cover_the_line(self):
        rows, trace = broadcast_knowledge_latency(line_length=6, seed=1)
        assert len(rows) == 6
        assert all(row.learned_at_step is not None for row in rows)

    def test_latency_monotone_in_distance(self):
        """Farther processes learn later — the sequential-transfer shape."""
        rows, _ = broadcast_knowledge_latency(line_length=8, seed=2)
        steps = [row.learned_at_step for row in rows]
        assert steps == sorted(steps)

    @pytest.mark.parametrize("line_length", [6, 16, 32])
    def test_chain_gating(self, line_length):
        rows, trace = broadcast_knowledge_latency(line_length=line_length, seed=3)
        assert verify_chain_gating(rows, trace, root="n0")

    def test_series_grows_with_line_length(self):
        series = latency_series(line_lengths=(4, 8, 16, 32), seed=0)
        lengths = [length for length, _ in series]
        steps = [step for _, step in series]
        assert lengths == [4, 8, 16, 32]
        assert steps == sorted(steps)
        assert steps[0] >= 4  # at least one event per hop

    def test_root_learns_at_its_first_event(self):
        rows, _ = broadcast_knowledge_latency(line_length=4, seed=4)
        assert rows[0].learned_at_step == 0
