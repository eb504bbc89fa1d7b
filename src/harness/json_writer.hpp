// Streaming JSON emitter shared by the bench binaries and demos.
//
// Every machine-readable artifact the repo produces (BENCH_fig3.json,
// BENCH_service.json, BENCH_waste.json, ad-hoc --json output) used to
// hand-roll its own braces and commas; this is the one place that owns
// escaping, comma placement, and the common result-file header
// (schema_version / machine / build) so the files stay mutually
// parseable by the same tooling.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace optibfs {

/// Comma- and nesting-tracking writer over any std::ostream. Values in
/// an object must be preceded by key(); values in an array are emitted
/// directly. raw() splices a pre-rendered JSON value (e.g. a
/// CounterSnapshot::to_json() or ServiceStats::to_json() string).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }

  /// Splices `json` verbatim as the next value (caller guarantees it is
  /// well-formed). Empty strings splice as {}.
  JsonWriter& raw(const std::string& json);

  static std::string escape(const std::string& text);

 private:
  void pre_value();

  struct Scope {
    bool is_object = false;
    int count = 0;
  };
  std::ostream& out_;
  std::vector<Scope> stack_;
  bool after_key_ = false;
};

/// Emits the shared result-file header onto an open top-level object:
///   "schema_version": 3,
///   "machine": {cpu, logical_cpus, ram_mb, os, sockets,
///               topology_detected, pinning,
///               huge_pages: {thp_mode, supported}},
///   "build": {compiler, build_type, telemetry, git_sha, dirty}
/// so every BENCH_*.json self-describes the environment it came from.
/// v3 added the memory-topology block (DESIGN.md §13); v4 the source
/// commit, read with git from the source tree at run time ("unknown"
/// outside a checkout).
void write_result_header(JsonWriter& w);

}  // namespace optibfs
