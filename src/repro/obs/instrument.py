"""Instrumentation helpers bridging the hot paths and the registry.

The counting kernels keep their existing :class:`~repro.util.timer.PhaseTimer`
plumbing (the benchmark harness consumes ``TCResult.phases``); the
observability layer rides along.  :func:`timed_phase` enters both the
timer phase and a registry span in one ``with``, so instrumenting an
algorithm is a one-line change per phase:

```python
with timed_phase(timer, "preprocess") as span:
    ...
    span.set("arcs", int(arcs))      # no-op when disabled
```

When observability is disabled the span is the shared null span whose
``set``/``add`` do nothing and whose ``enabled`` is ``False`` — guard
*expensive* attribute computation behind ``if span.enabled``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.registry import get_registry
from repro.obs.spans import Span
from repro.util.timer import PhaseTimer

__all__ = ["timed_phase", "root_span", "add_count", "observe", "set_gauge"]


@contextmanager
def timed_phase(
    timer: PhaseTimer | None, name: str, parent: Span | None = None, **attrs: Any
) -> Iterator[Span]:
    """Open a registry span and (optionally) a PhaseTimer phase together.

    ``parent`` is the span to nest under when the phase runs on another
    thread than the one that opened it (see
    :meth:`~repro.obs.registry.MetricsRegistry.span`).
    """
    registry = get_registry()
    with registry.span(name, parent=parent, **attrs) as span:
        if timer is None:
            yield span
        else:
            with timer.phase(name):
                yield span


@contextmanager
def root_span(name: str, **attrs: Any) -> Iterator[Span]:
    """Open a top-level (or nested, if one is already open) span."""
    with get_registry().span(name, **attrs) as span:
        yield span


def add_count(name: str, amount: int | float = 1) -> None:
    """Bump the named counter on the active registry (no-op when disabled)."""
    get_registry().counter(name).add(amount)


def observe(name: str, value: int | float) -> None:
    """Record one observation in the named histogram."""
    get_registry().histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set the named gauge."""
    get_registry().gauge(name).set(value)
