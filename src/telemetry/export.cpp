#include "telemetry/export.hpp"

#include <fstream>
#include <ostream>

#include "telemetry/json.hpp"

namespace amri::telemetry {

namespace {

void histogram_json(JsonWriter& w, const Histogram& h) {
  w.field("count", h.count());
  w.field("sum", h.sum());
  w.field("mean", h.mean());
  w.field("max", h.max_observed());
  w.begin_array("buckets");
  const auto& bounds = h.bounds();
  const auto& buckets = h.bucket_counts();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    JsonWriter b;
    b.begin_object();
    if (i < bounds.size()) {
      b.field("le", bounds[i]);
    } else {
      b.field("le", "inf");
    }
    b.field("n", buckets[i]);
    b.end_object();
    w.value_raw(std::move(b).take());
  }
  w.end_array();
}

}  // namespace

std::string event_to_json(const Event& e) {
  JsonWriter w;
  w.begin_object();
  w.field("type", "event");
  w.field("kind", event_kind_name(e.kind));
  w.field("t", static_cast<std::int64_t>(e.t));
  w.field("stream", static_cast<std::uint64_t>(e.stream));
  w.field("seq", e.seq);
  if (!e.payload.empty()) w.raw_field("data", e.payload);
  w.end_object();
  return std::move(w).take();
}

void write_trace_jsonl(std::ostream& os, const Telemetry& telemetry) {
  const EventLog& log = telemetry.events();
  {
    JsonWriter w;
    w.begin_object();
    w.field("type", "trace_header");
    w.field("version", std::uint64_t{1});
    w.field("t_end", static_cast<std::int64_t>(telemetry.now()));
    w.field("events_total", log.total_emitted());
    w.field("events_retained", static_cast<std::uint64_t>(log.size()));
    w.field("events_overwritten", log.overwritten());
    w.end_object();
    os << w.str() << '\n';
  }
  for (const Event& e : log.snapshot()) {
    os << event_to_json(e) << '\n';
  }
  const TimeMicros t_end = telemetry.now();
  const MetricsRegistry& reg = telemetry.metrics();
  for (const auto& [name, c] : reg.counters()) {
    JsonWriter w;
    w.begin_object();
    w.field("type", "metric");
    w.field("kind", "counter");
    w.field("t", static_cast<std::int64_t>(t_end));
    w.field("name", name);
    w.field("value", c.value());
    w.end_object();
    os << w.str() << '\n';
  }
  for (const auto& [name, g] : reg.gauges()) {
    JsonWriter w;
    w.begin_object();
    w.field("type", "metric");
    w.field("kind", "gauge");
    w.field("t", static_cast<std::int64_t>(t_end));
    w.field("name", name);
    w.field("value", g.value());
    w.end_object();
    os << w.str() << '\n';
  }
  for (const auto& [name, h] : reg.histograms()) {
    JsonWriter w;
    w.begin_object();
    w.field("type", "metric");
    w.field("kind", "histogram");
    w.field("t", static_cast<std::int64_t>(t_end));
    w.field("name", name);
    histogram_json(w, h);
    w.end_object();
    os << w.str() << '\n';
  }
}

bool write_trace_file(const std::string& path, const Telemetry& telemetry) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_jsonl(out, telemetry);
  return static_cast<bool>(out);
}

}  // namespace amri::telemetry
