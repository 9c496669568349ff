"""Counter/gauge registry rendering the Prometheus text format.

Deliberately tiny — the service needs monotonic counters, point-in-time
gauges, and a ``GET /metrics`` text rendering, not histograms or client
pushes.  Values live in plain dicts keyed by label tuples; everything
renders deterministically (sorted by metric name, then label values) so
scrapes and tests see a stable document.

The registry is synchronous and unlocked: the control plane mutates it
only from the event-loop thread, and worker processes never touch it —
job workers report their tallies back inside the job result, and the
manager folds them in on completion.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

__all__ = ["Counter", "Gauge", "MetricsRegistry"]

LabelValues = Tuple[str, ...]


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return (value.replace("\\", "\\\\")
                 .replace("\n", "\\n")
                 .replace('"', '\\"'))


def _format_value(value: float) -> str:
    """Integers render bare (``17``), floats as repr (``0.25``)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared machinery: label handling and sample storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self.values: Dict[LabelValues, float] = {}

    def _key(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def value(self, **labels: str) -> float:
        return self.values.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelValues, float]]:
        return sorted(self.values.items())

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        if not self.values:
            if not self.labelnames:
                lines.append(f"{self.name} 0")
            return lines
        for key, value in self.samples():
            if self.labelnames:
                label_text = ",".join(
                    f'{name}="{_escape(v)}"'
                    for name, v in zip(self.labelnames, key))
                lines.append(f"{self.name}{{{label_text}}} "
                             f"{_format_value(value)}")
            else:
                lines.append(f"{self.name} {_format_value(value)}")
        return lines


class Counter(_Metric):
    """A monotonically-increasing sample per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount


class Gauge(_Metric):
    """A settable point-in-time sample per label combination."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self.values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = self._key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def dec(self, amount: float = 1, **labels: str) -> None:
        self.inc(-amount, **labels)


class MetricsRegistry:
    """Named metrics plus the ``GET /metrics`` text rendering."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def counter(self, name: str, help_text: str,
                labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name: str, help_text: str,
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def _register(self, metric: _Metric) -> "_Metric":
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric) or \
                    existing.labelnames != metric.labelnames:
                raise ValueError(
                    f"metric {metric.name!r} already registered with a "
                    f"different type or label set")
            return existing
        self._metrics[metric.name] = metric
        return metric

    def render(self) -> str:
        """The full registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"
