#include "obs/session.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "obs/build_info.hpp"
#include "obs/export.hpp"

namespace zombiescope::obs {

namespace {

int parse_port(const std::string& text) {
  int port = -1;
  const char* end = text.data() + text.size();
  const auto [next, ec] = std::from_chars(text.data(), end, port);
  if (ec != std::errc{} || next != end || port < 0 || port > 65535)
    throw std::invalid_argument(text);
  return port;
}

}  // namespace

bool Session::parse(int argc, char* const* argv, const OwnArg& own) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::puts(identity_line(tool_).c_str());
      std::exit(0);
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::function<std::string()> value = [&] {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return std::string(argv[++i]);
    };
    try {
      if (arg == "--metrics-out") metrics_out_ = value();
      else if (arg == "--trace-out") trace_out_ = value();
      else if (arg == "--journal-out") journal_out_ = value();
      else if (arg == "--journal-categories")
        journal_categories_ = parse_categories(value()).value();
      else if (arg == "--http-port") http_port_ = parse_port(value());
      else if (arg == "--profile-out") profile_out_ = value();
      else if (arg == "--heap-out") heap_out_ = value();
      else if (!own(arg, value)) {
        std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: missing or malformed value for %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

bool Session::start() {
  profile_.emplace(profile_out_);
  heap_.emplace(heap_out_);
  if (journal_out_.empty()) return true;
  Journal& journal = Journal::global();
  try {
    journal.attach_writer(std::make_unique<JournalWriter>(journal_out_));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
  journal.set_enabled_categories(journal_categories_);
  journal.set_autopump(kind_ == Kind::kBatch);
  return true;
}

bool Session::serve(std::string_view path) {
  if (serving_http()) {
    tsdb_.attach_http(http_);
    if (!http_.start(static_cast<std::uint16_t>(http_port_))) {
      std::fprintf(stderr, "error: cannot bind HTTP port %d\n", http_port_);
      return false;
    }
    std::fprintf(stderr, "serving http://127.0.0.1:%u%.*s\n", http_.port(),
                 static_cast<int>(path.size()), path.data());
  }
  if (serving_http() || kind_ == Kind::kDaemon) tsdb_.start();
  return true;
}

bool Session::finish() {
  bool ok = true;
  try {
    if (!metrics_out_.empty()) write_metrics_file(metrics_out_);
    if (!trace_out_.empty()) write_trace_file(trace_out_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    ok = false;
  }
  if (!journal_out_.empty()) {
    Journal& journal = Journal::global();
    journal.close_writer();
    std::fprintf(stderr, "journal: %llu event(s) written to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(journal.emitted()), journal_out_.c_str(),
                 static_cast<unsigned long long>(journal.dropped()));
  }
  return ok;
}

void Session::stop() {
  http_.stop();
  tsdb_.stop();
}

}  // namespace zombiescope::obs
