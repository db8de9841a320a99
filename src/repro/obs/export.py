"""Dependency-free Prometheus text-format exposition.

Renders the system's observability surfaces — MetricsRegistry
snapshots, live service telemetry, SLO reports, profiler dumps — as
Prometheus text exposition format 0.0.4, so any standard scraper
(Prometheus, VictoriaMetrics, a curl in a dashboard script) can
ingest a ``repro-serve`` fleet without this repo growing a client
dependency.

Three entry points:

* :func:`render_exposition` — pure function from snapshot dicts to
  exposition text; the server's ``metrics`` op calls this.
* ``python -m repro.obs.export`` — one-shot CLI: fetch a running
  server's exposition over the wire protocol, or render local
  snapshot JSON files.
* :func:`parse_exposition` — a strict validator/parser for the
  subset of the format we emit.  Tests run every rendering through
  it, so "output parses as valid Prometheus text" is enforced, not
  hoped.

Mapping conventions (the standard ones):

* counters  -> ``<ns>_<name>_total`` with ``# TYPE ... counter``;
* sparse histograms and per-op latency sketches -> summaries:
  ``<ns>_<name>`` samples labelled ``{quantile="0.5"}`` plus
  ``_sum``/``_count``;
* telemetry rates and gauges -> ``# TYPE ... gauge``;
* SLO state -> ``<ns>_slo_breach{objective="..."} 0|1`` plus
  per-window ``<ns>_slo_burn_rate{objective,window}``;
* profiles -> ``<ns>_profile_samples_total{phase="..."}``.

Metric and label names are sanitised to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``); dots in our internal names become
underscores.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from repro.obs.metrics import MetricsRegistry, get_metrics

#: Default namespace every exported metric is prefixed with.
NAMESPACE = "repro"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# One sample line: name{labels} value  — labels optional.
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{([^}]*)\})?"
    r" (-?(?:[0-9]*\.)?[0-9]+(?:[eE][+-]?[0-9]+)?|NaN|[+-]Inf)$"
)
_LABEL_PAIR = re.compile(
    r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$'
)


class ExpositionError(ValueError):
    """Text that does not conform to the exposition format."""


def sanitize_name(name: str) -> str:
    """Coerce an internal dotted metric name to the Prometheus
    grammar."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\")
            .replace('"', r'\"').replace("\n", r"\n"))


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


class _Writer:
    """Accumulates HELP/TYPE/sample lines, one family at a time."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._seen: set[str] = set()

    def family(self, name: str, kind: str, help_text: str) -> str:
        name = sanitize_name(name)
        if name not in self._seen:
            self._seen.add(name)
            self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {kind}")
        return name

    def sample(self, name: str, value, labels: dict | None = None,
               suffix: str = "") -> None:
        rendered = ""
        if labels:
            pairs = ",".join(
                f'{sanitize_name(k)}="{_escape_label(v)}"'
                for k, v in labels.items()
            )
            rendered = "{" + pairs + "}"
        self.lines.append(
            f"{sanitize_name(name) + suffix}{rendered} {_fmt(value)}"
        )

    def text(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def render_metrics(snapshot: dict, writer: _Writer,
                   namespace: str = NAMESPACE) -> None:
    """Counters and sparse histograms from a MetricsRegistry
    snapshot."""
    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        family = writer.family(
            f"{namespace}_{sanitize_name(name)}_total", "counter",
            f"repro counter {name}",
        )
        writer.sample(family, float(value))
    for name in sorted(snapshot.get("histograms", {})):
        bucket = snapshot["histograms"][name]
        total = sum(bucket.values())
        if not total:
            continue
        weighted = sum(
            float(value) * count for value, count in bucket.items()
        )
        family = writer.family(
            f"{namespace}_{sanitize_name(name)}", "summary",
            f"repro histogram {name}",
        )
        quantiles = snapshot.get("quantiles", {}).get(name, {})
        for label, q in (("0.5", "p50"), ("0.95", "p95"),
                         ("0.99", "p99")):
            if q in quantiles:
                writer.sample(family, float(quantiles[q]),
                              labels={"quantile": label})
        writer.sample(family, weighted, suffix="_sum")
        writer.sample(family, total, suffix="_count")


def render_telemetry(snapshot: dict, writer: _Writer,
                     namespace: str = NAMESPACE) -> None:
    """Service telemetry: series rates plus per-op latency summaries."""
    for series in ("gaps", "rules", "frames"):
        info = snapshot.get(series)
        if not info:
            continue
        family = writer.family(
            f"{namespace}_service_{series}_per_second", "gauge",
            f"windowed {series}/sec over the live window",
        )
        writer.sample(family, info.get("rate_per_sec", 0.0))
        family = writer.family(
            f"{namespace}_service_{series}_lifetime_total", "counter",
            f"lifetime {series} count",
        )
        writer.sample(family, info.get("lifetime", 0.0))
    ops = snapshot.get("ops", {})
    if ops:
        family = writer.family(
            f"{namespace}_service_op_latency_ms", "summary",
            "per-op frame latency (milliseconds, sketch-backed)",
        )
        for op in sorted(ops):
            info = ops[op]
            for label, q in (("0.5", "p50"), ("0.95", "p95"),
                             ("0.99", "p99")):
                value = info.get("quantiles_ms", {}).get(q)
                if value is not None:
                    writer.sample(
                        family, value,
                        labels={"op": op, "quantile": label},
                    )
            writer.sample(
                family,
                info.get("mean_ms", 0.0) * info.get("count", 0),
                labels={"op": op}, suffix="_sum",
            )
            writer.sample(family, info.get("count", 0),
                          labels={"op": op}, suffix="_count")
    for gauge in ("queue_depth", "uptime_seconds"):
        if gauge in snapshot:
            family = writer.family(
                f"{namespace}_service_{gauge}", "gauge",
                f"service {gauge}",
            )
            writer.sample(family, float(snapshot[gauge]))


def render_slo(report: dict, writer: _Writer,
               namespace: str = NAMESPACE) -> None:
    """SLO evaluation: breach flags and per-window burn rates."""
    objectives = report.get("objectives", [])
    if not objectives:
        return
    breach = writer.family(
        f"{namespace}_slo_breach", "gauge",
        "1 when the objective is in breach, else 0",
    )
    for result in objectives:
        writer.sample(breach, 1.0 if result["state"] == "breach"
                      else 0.0,
                      labels={"objective": result["name"]})
    burn = None
    for result in objectives:
        for window in result.get("windows", []):
            if burn is None:
                burn = writer.family(
                    f"{namespace}_slo_burn_rate", "gauge",
                    "error-budget burn rate per evaluation window",
                )
            writer.sample(
                burn, window["burn_rate"],
                labels={
                    "objective": result["name"],
                    "window": str(window["window_seconds"]),
                },
            )


def render_profile(snapshot: dict, writer: _Writer,
                   namespace: str = NAMESPACE) -> None:
    """Profiler: per-phase sample counts."""
    phases = snapshot.get("phases", {})
    if not phases:
        return
    family = writer.family(
        f"{namespace}_profile_samples_total", "counter",
        f"profiler samples by phase ({snapshot.get('hz', 0)}hz)",
    )
    for phase in sorted(phases):
        writer.sample(family, phases[phase].get("self_samples", 0),
                      labels={"phase": phase})
    family = writer.family(
        f"{namespace}_profile_wall_seconds", "gauge",
        "profiler wall-clock coverage",
    )
    writer.sample(family, snapshot.get("wall_seconds", 0.0))


def render_exposition(metrics: dict | None = None,
                      telemetry: dict | None = None,
                      slo: dict | None = None,
                      profile: dict | None = None,
                      namespace: str = NAMESPACE) -> str:
    """The full exposition page from whichever surfaces exist."""
    writer = _Writer()
    if metrics:
        render_metrics(metrics, writer, namespace)
    if telemetry:
        render_telemetry(telemetry, writer, namespace)
    if slo:
        render_slo(slo, writer, namespace)
    if profile:
        render_profile(profile, writer, namespace)
    return writer.text()


# -- validation ---------------------------------------------------------------


def parse_exposition(text: str) -> list:
    """Parse exposition text, strictly.

    Returns ``[(name, labels_dict, value)]`` samples.  Raises
    :class:`ExpositionError` on any grammar violation: bad names, bad
    label syntax, TYPE-less samples, unparsable values.
    """
    samples = []
    typed: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ExpositionError(
                    f"line {lineno}: malformed comment: {raw!r}"
                )
            if not _NAME_OK.match(parts[2]):
                raise ExpositionError(
                    f"line {lineno}: bad metric name {parts[2]!r}"
                )
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "summary",
                                    "histogram", "untyped"):
                    raise ExpositionError(
                        f"line {lineno}: bad type {parts[3]!r}"
                    )
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free comment
        match = _SAMPLE.match(line)
        if not match:
            raise ExpositionError(
                f"line {lineno}: unparsable sample: {raw!r}"
            )
        name, label_blob, value = match.groups()
        base = name
        for suffix in ("_sum", "_count", "_total", "_bucket"):
            if name.endswith(suffix) and name[:-len(suffix)] in typed:
                base = name[:-len(suffix)]
                break
        if base not in typed and name not in typed:
            raise ExpositionError(
                f"line {lineno}: sample {name!r} has no TYPE"
            )
        labels = {}
        if label_blob:
            for pair in _split_labels(label_blob, lineno):
                pair_match = _LABEL_PAIR.match(pair)
                if not pair_match:
                    raise ExpositionError(
                        f"line {lineno}: bad label pair {pair!r}"
                    )
                key, val = pair_match.groups()
                if not _LABEL_OK.match(key):
                    raise ExpositionError(
                        f"line {lineno}: bad label name {key!r}"
                    )
                labels[key] = val
        samples.append((name, labels, float(value)))
    return samples


def _split_labels(blob: str, lineno: int) -> list:
    """Split ``a="x",b="y"`` at commas outside quoted values."""
    parts = []
    current = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if in_quotes:
        raise ExpositionError(
            f"line {lineno}: unterminated label value in {blob!r}"
        )
    if current:
        parts.append("".join(current))
    return [p for p in parts if p]


# -- CLI ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="One-shot Prometheus exposition: fetch from a "
                    "running repro-serve, or render snapshot JSON.",
    )
    parser.add_argument("--socket", help="server unix socket path")
    parser.add_argument("--host", help="server TCP host")
    parser.add_argument("--port", type=int, help="server TCP port")
    parser.add_argument(
        "--metrics-json",
        help="render a MetricsRegistry snapshot JSON file",
    )
    parser.add_argument(
        "--profile-json",
        help="render a profiler snapshot JSON file",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="parse the output before printing (exit 1 on invalid)",
    )
    args = parser.parse_args(argv)

    if args.socket or args.host:
        from repro.service.client import RuleServiceClient

        address = (args.host, args.port) if args.host else None
        client = RuleServiceClient(
            socket_path=args.socket, address=address
        )
        try:
            response = client.metrics()
        finally:
            client.close()
        text = render_exposition(
            metrics=response.get("metrics"),
            telemetry=response.get("telemetry"),
            slo=response.get("slo"),
            profile=response.get("profile"),
        )
    else:
        metrics = None
        if args.metrics_json:
            with open(args.metrics_json, encoding="utf-8") as handle:
                metrics = json.load(handle)
        else:
            registry = get_metrics()
            if isinstance(registry, MetricsRegistry):
                metrics = registry.snapshot()
        profile = None
        if args.profile_json:
            with open(args.profile_json, encoding="utf-8") as handle:
                profile = json.load(handle)
        text = render_exposition(metrics=metrics, profile=profile)

    if args.validate:
        try:
            parse_exposition(text)
        except ExpositionError as exc:
            print(f"invalid exposition: {exc}", file=sys.stderr)
            return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
