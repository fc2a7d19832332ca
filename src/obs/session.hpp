// obs/session.hpp — the telemetry front end of zsdetect, zssim and
// zslived.
//
// The three tools take the same telemetry options and run the same
// steps around their own work. A Session owns both:
//
//   --metrics-out FILE       registry snapshot at exit: Prometheus text
//                            for a .prom path, zsobs-v1 JSON otherwise
//   --trace-out FILE         the span tree (zsobs-trace-v1) at exit
//   --journal-out FILE       the NDJSON event journal (read it with
//                            zsreport)
//   --journal-categories C   comma list of journal categories (default
//                            all)
//   --http-port N            serve the zsobs endpoints and /tsdb/* while
//                            running (0 = ephemeral)
//   --profile-out FILE       zsprof folded stacks of the whole run
//   --heap-out FILE          the zsheap-v1 allocation report of the run
//   --version                print the build identity and exit
//
// parse() walks the command line once and hands every other argument
// to the tool; a missing or malformed value, in a shared option or in
// one of the tool's own, makes it return false, and the tool prints
// usage and exits 2. start() begins the profiler and heap sessions and
// opens the journal; serve() starts the HTTP server and its
// time-series store once the tool has registered its own endpoints,
// probes and rules on http() and tsdb(); finish() writes the metrics
// and trace files and closes the journal; stop(), also run by the
// destructor, stops the server and then the store.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "obs/heap.hpp"
#include "obs/http.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"
#include "obs/tsdb.hpp"

namespace zombiescope::obs {

class Session {
 public:
  enum class Kind {
    /// zsdetect, zssim: one thread emits, so the journal pumps itself
    /// (autopump); the store samples only while HTTP serves it.
    kBatch,
    /// zslived: shard workers must never take the journal's consumer
    /// mutex, so the tool's main loop pumps; the store always samples,
    /// because its alert rules also journal.
    kDaemon,
  };

  /// The usage lines of the shared options, for the tools' usage text.
  static constexpr const char* kUsage =
      "          [--metrics-out FILE] [--trace-out FILE] [--journal-out FILE]\n"
      "          [--journal-categories LIST] [--http-port N]\n"
      "          [--profile-out FILE] [--heap-out FILE] [--version]\n";

  /// A tool's own argument: `value()` consumes and returns the next
  /// argument (throwing when there is none). Returns false for an
  /// argument the tool does not know; a throw means a malformed value.
  using OwnArg = std::function<bool(const std::string& arg,
                                    const std::function<std::string()>& value)>;

  Session(std::string tool, Kind kind) : tool_(std::move(tool)), kind_(kind) {}
  ~Session() { stop(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// --version anywhere prints the identity line and exits 0. Returns
  /// false, after naming the bad argument on stderr, when an argument
  /// is unknown or a value is missing or malformed.
  bool parse(int argc, char* const* argv, const OwnArg& own);

  bool serving_http() const { return http_port_ >= 0; }
  HttpServer& http() { return http_; }
  Tsdb& tsdb() { return tsdb_; }

  /// Starts the profiler and heap sessions and the journal writer.
  /// False (error on stderr) when the journal file cannot be opened.
  bool start();
  /// Starts the HTTP server, printing "serving http://127.0.0.1:PORT"
  /// + `path`, and the store. False when the port cannot be bound.
  bool serve(std::string_view path);
  /// Writes the metrics and trace files, then closes the journal.
  /// False (error on stderr) when a file cannot be written.
  bool finish();
  /// Stops the HTTP server, then the store. Idempotent.
  void stop();

 private:
  std::string tool_;
  Kind kind_;
  std::string metrics_out_;
  std::string trace_out_;
  std::string journal_out_;
  std::uint32_t journal_categories_ = kCatAll;
  int http_port_ = -1;  // -1 = no HTTP server
  std::string profile_out_;
  std::string heap_out_;

  // Destroyed in reverse: the server and the store stop before the
  // heap report and then the profile are written.
  std::optional<ScopedProfileSession> profile_;
  std::optional<ScopedHeapSession> heap_;
  Tsdb tsdb_;
  HttpServer http_;
};

}  // namespace zombiescope::obs
