#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace amri::telemetry {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(JsonWriter, BuildsNestedObjects) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "a\"b");  // embedded quote must be escaped
  w.field("n", std::uint64_t{7});
  w.field("ok", true);
  w.begin_array("xs");
  w.value(1.5);
  w.value(2.5);
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).take(),
            "{\"name\":\"a\\\"b\",\"n\":7,\"ok\":true,\"xs\":[1.5,2.5]}");
}

TEST(JsonEscape, ControlCharactersAndBackslash) {
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
}

TEST(EventToJson, EmptyAndNonEmptyPayload) {
  Event e;
  e.kind = EventKind::kMigrationStart;
  e.t = 123;
  e.stream = 2;
  e.seq = 9;
  const std::string no_payload = event_to_json(e);
  EXPECT_NE(no_payload.find("\"kind\":\"migration_start\""), std::string::npos);
  EXPECT_NE(no_payload.find("\"t\":123"), std::string::npos);
  EXPECT_NE(no_payload.find("\"seq\":9"), std::string::npos);
  e.payload = "{\"tuples\":5}";
  const std::string with_payload = event_to_json(e);
  EXPECT_NE(with_payload.find("\"data\":{\"tuples\":5}"), std::string::npos);
}

TEST(WriteTraceJsonl, HeaderEventsThenMetrics) {
  Telemetry telemetry;
  telemetry.emit(EventKind::kRunStart, 0);
  telemetry.emit(EventKind::kSample, 0, "{\"outputs\":3}");
  telemetry.metrics().counter("eddy.decisions").add(12);
  telemetry.metrics().histogram("h", {1.0, 2.0}).observe(1.5);

  std::ostringstream out;
  write_trace_jsonl(out, telemetry);
  const auto lines = lines_of(out.str());
  // header + 2 events + 3 metrics (the ring-overwrite counter
  // telemetry.events.dropped always exists).
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"type\":\"trace_header\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"events_total\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"run_start\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"sample\""), std::string::npos);
  // Metric lines follow the events; sorted by name.
  EXPECT_NE(lines[3].find("\"name\":\"eddy.decisions\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"value\":12"), std::string::npos);
  EXPECT_NE(lines[4].find("\"name\":\"telemetry.events.dropped\""),
            std::string::npos);
  EXPECT_NE(lines[4].find("\"value\":0"), std::string::npos);
  EXPECT_NE(lines[5].find("\"kind\":\"histogram\""), std::string::npos);
  // Every line is a standalone object.
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

}  // namespace
}  // namespace amri::telemetry
