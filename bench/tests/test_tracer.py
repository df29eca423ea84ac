"""The tracer's span bookkeeping and its patching of gintools."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, summarize  # noqa: E402


def test_summarize_self_time_outermost_time_and_gin_samples():
    item = (0, 0)
    spans = [
        ["gin.gin", 0.0, 10.0, -1, item, None],
        ["groebner.initial_ideal", 1.0, 3.0, 0, item, None],
        ["groebner.buchberger", 1.5, 2.5, 1, item, 4],
        ["gin.gin", 4.0, 5.0, 0, item, None],          # nested, no sample
        ["gin.gin", 0.0, 1.0, -1, (1, 0), None],       # another group
    ]
    stats = summarize(spans, {item: 2.0, (1, 0): 1.0}, 0)
    assert stats["gin.gin"]["calls"] == 2
    assert stats["gin.gin"]["time"] == 20.0            # the nested span counts once
    assert stats["gin.gin"]["self"] == 20.0 - 4.0 - 2.0 + 2.0
    assert stats["groebner.initial_ideal"]["self"] == 4.0 - 2.0
    assert stats["groebner.buchberger"]["observed"] == 4
    assert stats["gin.samples"]["calls"] == 1
    assert stats["gin.hits"]["calls"] == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    groebner = importlib.import_module("gintools.groebner")
    gin_module = sys.modules["gintools.gin"]
    ring = importlib.import_module("gintools.ring")
    from gintools.parsing import parse_ideal

    original = groebner.intersect
    apply = vars(ring.LinearChange)["apply"]
    tracer = Tracer()
    tracer.item = ("test", 0)
    tracer.install()
    try:
        assert groebner.intersect is not original
        assert gin_module.intersect is groebner.intersect
        assert gin_module.intersect.__wrapped__ is original
        I = parse_ideal("x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2")
        gin_module.gin(I, seed=12345, votes=2)
    finally:
        tracer.uninstall()
    assert groebner.intersect is original
    assert gin_module.intersect is original
    assert vars(ring.LinearChange)["apply"] is apply
    stats = summarize(tracer.spans, {("test", 0): 1.0}, "test")
    assert stats["gin.gin"]["calls"] == 1
    assert stats["gin.samples"]["calls"] == 2
    assert stats["ring.change"]["calls"] == 2 * 3
    assert stats["groebner.normal_form"]["calls"] > 0
