// Tests for the telemetry front end zsdetect, zssim and zslived share:
// option parsing and its error policy, serving the time-series store
// over HTTP, and the files finish() leaves behind.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "netbase/json.hpp"
#include "netbase/reactor.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

namespace zombiescope::obs {
namespace {

/// Runs Session::parse over `args` (argv[0] is added) and records what
/// reached the tool: "--option=value" for an option that took a value.
struct Parsed {
  bool ok = false;
  std::vector<std::string> own;
};

Parsed parse(Session& session, std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  Parsed out;
  out.ok = session.parse(static_cast<int>(argv.size()), argv.data(),
                         [&](const std::string& arg, const auto& value) {
                           if (arg == "--name") out.own.push_back(arg + "=" + value());
                           else if (arg == "--count") out.own.push_back(std::to_string(std::stoi(value())));
                           else if (arg == "--flag") out.own.push_back(arg);
                           else return false;
                           return true;
                         });
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

int http_status(std::uint16_t port, const std::string& target) {
  const int fd = netbase::connect_tcp("127.0.0.1", port, 5000);
  if (fd < 0) return 0;
  std::string raw;
  if (netbase::send_all(fd, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n")) {
    char buf[4096];
    std::ptrdiff_t n;
    while ((n = netbase::recv_some(fd, buf, sizeof(buf))) > 0)
      raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return raw.rfind("HTTP/1.1 ", 0) == 0 ? std::atoi(raw.c_str() + 9) : 0;
}

TEST(ObsSession, ConsumesSharedOptionsAndLeavesTheRestToTheTool) {
  Session session("zstest", Session::Kind::kBatch);
  const Parsed parsed =
      parse(session, {"--name", "a", "--metrics-out", "m.prom", "--flag", "--trace-out", "t.json",
                      "--journal-out", "j.ndjson", "--journal-categories", "detector,run",
                      "--http-port", "0", "--profile-out", "p.folded", "--heap-out", "h.json",
                      "--count", "7"});
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.own, (std::vector<std::string>{"--name=a", "--flag", "7"}));
  EXPECT_TRUE(session.serving_http());

  Session quiet("zstest", Session::Kind::kBatch);
  ASSERT_TRUE(parse(quiet, {"--flag"}).ok);
  EXPECT_FALSE(quiet.serving_http());
}

TEST(ObsSession, MalformedValuesAreUsageErrorsNotExceptions) {
  const std::vector<std::vector<std::string>> bad = {
      {"--http-port", "x"},          {"--http-port", "80x"},
      {"--http-port", "70000"},      {"--http-port", "-1"},
      {"--journal-categories", "detector,bogus"},
      {"--metrics-out"},             {"--count", "x"},
      {"--name"},                    {"--unknown"},
      {"positional"},
  };
  for (const auto& args : bad) {
    Session session("zstest", Session::Kind::kBatch);
    Parsed parsed;
    EXPECT_NO_THROW(parsed = parse(session, args)) << args[0];
    EXPECT_FALSE(parsed.ok) << args[0];
  }
}

TEST(ObsSession, ServesTheTimeSeriesStoreOverHttp) {
  Session session("zstest", Session::Kind::kBatch);
  ASSERT_TRUE(parse(session, {"--http-port", "0"}).ok);
  ASSERT_TRUE(session.start());
  ASSERT_TRUE(session.serve("/metrics"));
  ASSERT_TRUE(session.http().running());
  EXPECT_TRUE(session.tsdb().running());
  EXPECT_EQ(http_status(session.http().port(), "/tsdb/metrics"), 200);
  EXPECT_EQ(http_status(session.http().port(), "/metrics"), 200);
  session.stop();
  EXPECT_FALSE(session.http().running());
  EXPECT_FALSE(session.tsdb().running());
}

TEST(ObsSession, BatchStoreSamplesOnlyWhileServedButDaemonStoreAlways) {
  Session batch("zstest", Session::Kind::kBatch);
  ASSERT_TRUE(parse(batch, {}).ok);
  ASSERT_TRUE(batch.start());
  ASSERT_TRUE(batch.serve("/metrics"));
  EXPECT_FALSE(batch.tsdb().running());

  Session daemon("zstest", Session::Kind::kDaemon);
  ASSERT_TRUE(parse(daemon, {}).ok);
  ASSERT_TRUE(daemon.start());
  ASSERT_TRUE(daemon.serve("/live/zombies"));
  EXPECT_FALSE(daemon.http().running());
  EXPECT_TRUE(daemon.tsdb().running());
}

TEST(ObsSession, FinishWritesEveryFileAndClosesTheJournal) {
  const std::string dir = ::testing::TempDir();
  const std::string prom = dir + "obs_session.prom";
  const std::string json = dir + "obs_session.json";
  const std::string trace = dir + "obs_session-trace.json";
  const std::string journal_path = dir + "obs_session.journal";
  Journal& journal = Journal::global();
  journal.reset();

  JournalEvent event;
  event.type = JournalEventType::kRunMeta;
  event.time = 1718000000;
  event.a = 42;
  {
    Session session("zstest", Session::Kind::kBatch);
    ASSERT_TRUE(parse(session, {"--metrics-out", prom, "--trace-out", trace, "--journal-out",
                                journal_path, "--journal-categories", "run"})
                    .ok);
    ASSERT_TRUE(session.start());
    ASSERT_TRUE(session.serve("/metrics"));
    {
      ScopedSpan span("obs_session.work");
      journal.emit<kCatRun>(event);
      journal.emit<kCatDetector>(event);  // not an enabled category
    }
    ASSERT_TRUE(session.finish());
  }
  EXPECT_TRUE(prometheus_format_ok(read_file(prom)));
  EXPECT_NE(read_file(prom).find("# HELP zs_build_info"), std::string::npos);
  EXPECT_NE(read_file(trace).find("\"schema\": \"zsobs-trace-v1\""), std::string::npos);
  EXPECT_NE(read_file(trace).find("obs_session.work"), std::string::npos);
  EXPECT_EQ(read_journal_file(journal_path), std::vector<JournalEvent>{event});

  // Closed: later events no longer reach the file.
  journal.emit<kCatRun>(event);
  journal.pump();
  EXPECT_EQ(read_journal_file(journal_path).size(), 1u);

  {
    Session session("zstest", Session::Kind::kBatch);
    ASSERT_TRUE(parse(session, {"--metrics-out", json}).ok);
    ASSERT_TRUE(session.start());
    ASSERT_TRUE(session.finish());
  }
  const auto doc = netbase::parse_json(read_file(json));
  ASSERT_TRUE(doc.has_value());
  const netbase::JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "zsobs-v1");

  journal.set_enabled_categories(0);
  journal.reset();
  for (const std::string& path : {prom, json, trace, journal_path}) std::remove(path.c_str());
}

TEST(ObsSession, FinishReportsAnUnwritableFile) {
  Session session("zstest", Session::Kind::kBatch);
  ASSERT_TRUE(parse(session, {"--metrics-out", "/nonexistent-dir/m.prom"}).ok);
  ASSERT_TRUE(session.start());
  EXPECT_FALSE(session.finish());
}

TEST(ObsSession, UnopenableJournalFailsStart) {
  Session session("zstest", Session::Kind::kBatch);
  ASSERT_TRUE(parse(session, {"--journal-out", "/nonexistent-dir/j.ndjson"}).ok);
  EXPECT_FALSE(session.start());
}

}  // namespace
}  // namespace zombiescope::obs
