from perfbench.trace import Tracer


def test_every_trace_hook_resolves():
    # the benchmark's traced run wraps engine functions by name and skips a
    # hook it cannot find, which would only drop per-layer metrics silently
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
