"""The host-speed scaling arithmetic, on a fake clock."""

import pytest

import yardstick
from yardstick import REFERENCE_CHUNK_S, Yardstick


class StepClock:
    """Advances by ``step`` on every read."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_factor_is_reference_over_median_chunk(monkeypatch):
    monkeypatch.setattr(yardstick.Chunk, "__call__", lambda self: 0.0)
    # Each measure() reads the clock twice around the chunk: duration = step.
    yard = Yardstick(StepClock(2 * REFERENCE_CHUNK_S))
    yard.measure(3)
    assert yard.samples == pytest.approx([2 * REFERENCE_CHUNK_S] * 3)
    assert yard.factor(0) == pytest.approx(0.5)  # host at half speed
    first = yard.mark()
    yard.clock.step = REFERENCE_CHUNK_S / 2
    yard.measure(2)
    assert yard.factor(first) == pytest.approx(2.0)  # host at double speed


def test_tick_measures_only_after_the_interval(monkeypatch):
    monkeypatch.setattr(yardstick.Chunk, "__call__", lambda self: 0.0)
    clock = StepClock(0.01)
    yard = Yardstick(clock, interval_s=0.1)
    yard.tick()
    assert yard.samples == []
    clock.now += 0.2
    yard.tick()
    assert len(yard.samples) == 1
    with pytest.raises(ValueError):
        yard.factor(len(yard.samples))  # an empty window has no speed
