// The run-trace exporter: a hand-rolled JSON-lines writer of the events and
// the final metrics. It is deterministic — events in emission order,
// metrics sorted by name — so two run traces can be diffed line by line to
// localise a regression.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/telemetry.hpp"

namespace amri::telemetry {

/// JSON-lines run trace: one header line, one line per retained event
/// (time-ordered), then one line per metric carrying the final registry
/// state. Every line is a standalone JSON object.
void write_trace_jsonl(std::ostream& os, const Telemetry& telemetry);

/// Convenience: write_trace_jsonl to `path`; returns false when the file
/// cannot be opened.
bool write_trace_file(const std::string& path, const Telemetry& telemetry);

/// One event rendered as a standalone JSON object (the trace line format,
/// minus the trailing newline). Exposed for tests and streaming sinks.
std::string event_to_json(const Event& e);

}  // namespace amri::telemetry
