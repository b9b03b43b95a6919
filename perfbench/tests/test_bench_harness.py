"""Tests of the harness's timing: the yardstick's pairing and the spread of starts."""

import numpy as np

from perfbench import workloads as W


def _ops(yardstick, rnd, n):
    for _ in range(n):
        rnd.latencies_ns.append(1)
        yardstick.after_op(rnd)


def test_each_operation_is_paired_with_the_larger_sample_around_it():
    samples = iter([10.0, 30.0, 20.0])
    yardstick = W.Yardstick(lambda: next(samples), every_s=3600.0)
    yardstick.start()
    first = W.Round()
    _ops(yardstick, first, 3)  # no sample is due within the hour
    yardstick.close(first)
    second = W.Round()
    _ops(yardstick, second, 1)
    yardstick.close(second)
    assert first.yardsticks_ns == [30.0, 30.0, 30.0]
    assert second.yardsticks_ns == [30.0]


def test_a_due_sample_closes_the_stretch_and_an_empty_one_takes_none():
    samples = iter([5.0, 7.0, 6.0])
    yardstick = W.Yardstick(lambda: next(samples), every_s=0.0)
    yardstick.start()
    rnd = W.Round()
    _ops(yardstick, rnd, 2)
    yardstick.close(rnd)  # nothing waits: no sample, so the iterator is not exhausted
    assert rnd.yardsticks_ns == [7.0, 7.0]


def test_spread_ratios_put_one_start_in_each_slice():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ratios = sorted(W.spread_ratios(rng, (1.0, 2.0), 4))
        for i, r in enumerate(ratios):
            assert 1.0 + i / 4 <= r < 1.0 + (i + 1) / 4
