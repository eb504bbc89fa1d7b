#include "harness/json_writer.hpp"

#include <cstdio>

#include "harness/machine_info.hpp"
#include "runtime/mem_topology.hpp"

namespace optibfs {

namespace {

/// Output of `git <args>` run in the source tree the binary was built
/// from ("" when git or the checkout is unavailable).
std::string git_output(const char* args) {
#if defined(OPTIBFS_SOURCE_DIR)
  const std::string cmd =
      std::string("git -C '") + OPTIBFS_SOURCE_DIR + "' " + args +
      " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
#else
  (void)args;
  return {};
#endif
}

}  // namespace

std::string JsonWriter::escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void JsonWriter::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty() && stack_.back().count++ > 0) out_ << ", ";
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ << '{';
  stack_.push_back({/*is_object=*/true, 0});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  stack_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ << '[';
  stack_.push_back({/*is_object=*/false, 0});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  stack_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (!stack_.empty() && stack_.back().count++ > 0) out_ << ", ";
  out_ << '"' << escape(name) << "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  pre_value();
  out_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& json) {
  pre_value();
  out_ << (json.empty() ? "{}" : json);
  return *this;
}

void write_result_header(JsonWriter& w) {
  // v3: adds the memory-topology facts (sockets/pinning/huge_pages) so
  // BENCH files from NUMA and flat machines are distinguishable.
  // v4: adds the source commit (build.git_sha / build.dirty).
  w.key("schema_version").value(std::int64_t{4});
  const MachineInfo machine = detect_machine();
  const mem::PhysicalTopology& topo = mem::system_topology();
  w.key("machine").begin_object();
  w.key("cpu").value(machine.cpu_model);
  w.key("logical_cpus").value(machine.logical_cpus);
  w.key("ram_mb").value(static_cast<std::int64_t>(machine.total_ram_mb));
  w.key("os").value(machine.os);
  w.key("sockets").value(static_cast<std::int64_t>(topo.nodes.size()));
  w.key("topology_detected").value(topo.detected);
  w.key("pinning").value(mem::pinning_available());
  w.key("huge_pages").begin_object();
  w.key("thp_mode").value(std::string(mem::thp_mode_name(mem::thp_mode())));
  w.key("supported").value(mem::huge_pages_supported());
  w.end_object();
  w.end_object();
  w.key("build").begin_object();
#if defined(__clang__)
  w.key("compiler").value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.key("compiler").value(std::string("gcc ") + __VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
#if defined(NDEBUG)
  w.key("build_type").value("release");
#else
  w.key("build_type").value("debug");
#endif
#if defined(OPTIBFS_TELEMETRY)
  w.key("telemetry").value(true);
#else
  w.key("telemetry").value(false);
#endif
  // The commit the sources came from, and whether tracked files were
  // modified against it: a BENCH number is only comparable to the code
  // it was measured on.
  const std::string sha = git_output("rev-parse HEAD");
  w.key("git_sha").value(sha.empty() ? std::string("unknown") : sha);
  w.key("dirty").value(
      !git_output("status --porcelain --untracked-files=no").empty());
  w.end_object();
}

}  // namespace optibfs
