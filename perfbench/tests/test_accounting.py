"""``failed`` counts operations: each fails once, whatever went wrong."""

from dataclasses import dataclass

from perfbench import metrics, workloads


def test_an_operation_failing_twice_counts_once():
    outcome = metrics.Outcome()
    outcome.attempt(3)
    outcome.fail("cell-a", "raised")
    outcome.fail("cell-a", "mismatch")
    outcome.fail("cell-b", "mismatch")
    assert outcome.failed == 2
    assert outcome.failures["cell-a"] == "raised"
    assert outcome.ok_frac == 1 / 3


@dataclass
class FakeVerdict:
    verdict: str
    states: int = 1
    edges: int = 1


def test_verify_grid_counts_a_raised_and_a_mismatched_cell_once_each(
    tmp_path, monkeypatch
):
    import repro.verify.checker as checker
    import repro.verify.library as library

    pinned = workloads.verify_cells()
    labels = sorted(pinned)
    raising, wrong = labels[0], labels[1]

    def explore(case, *args, **kwargs):
        if case == raising:
            raise RuntimeError("boom")
        verdict = pinned[case]
        if case == wrong:
            verdict = "proved" if verdict == "refuted" else "refuted"
        return FakeVerdict(verdict)

    monkeypatch.setattr(checker, "explore", explore)
    monkeypatch.setattr(library, "find_case", lambda label, slow=True: label)
    ctx = workloads.Context(
        seed=1, seconds=0.01, trace=False, work=tmp_path, outcome=metrics.Outcome()
    )
    result = workloads.verify(ctx)
    # Every timed rep re-checks every cell; each bad cell still counts once.
    assert ctx.outcome.attempted == len(labels) == 48
    assert ctx.outcome.failed == 2
    assert set(ctx.outcome.failures) == {raising, wrong}
    assert "RuntimeError: boom" in ctx.outcome.failures[raising]
    assert result["wall_s"] > 0
