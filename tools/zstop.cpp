// zstop — a top(1)-style live console for a zombiescope daemon.
//
//   zstop --port N [--host 127.0.0.1] [--interval-ms 1000]
//         [--range SECONDS] [--once] [--no-color] [--version]
//
// Polls the daemon's embedded HTTP port (zslived --http-port, or a
// zssim/zsdetect run with one) and renders a fixed set of panels from
// the /tsdb time-series store and the /alerts rule engine:
//
//   throughput   live.records_total as a rate, with a sparkline
//   stage p99    every latency:*:p99 series the store knows about
//   queue        live.queue_depth + the live.ingest_dropped_total rate
//   zombies      live.active_zombies
//   peers        /peers feed-quality counts, noisy-count series, and the
//                worst stuck-probability offenders (when the daemon
//                serves the zspeerq table)
//   alerts       every rule with state / value / threshold, firing first
//
// Capability detection goes through GET / (the endpoint index): a
// server that does not serve /tsdb (zsdetect and zssim serve it only
// while their HTTP port is up; other servers never do) has no
// /tsdb/query to poll, and zstop says so instead of rendering empty
// panels. Individual series that do not exist (yet) render as "n/a" —
// a daemon that has not published its first snapshot is not an error.
//
// --once renders a single frame without ANSI positioning and exits 0
// (CI-friendly: the soak in run_tier1.sh asserts it); the interactive
// mode redraws every --interval-ms until Ctrl-C. Exits non-zero only
// when the server cannot be reached at all. Requests go through the
// shared blocking client (netbase/reactor) and bodies parse with the
// shared reader (netbase/json).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netbase/json.hpp"
#include "netbase/reactor.hpp"
#include "obs/build_info.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

// ---------------------------------------------------------------- JSON

using zombiescope::netbase::JsonValue;

double number_or(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}
std::string string_or(const JsonValue* v, std::string fallback) {
  return v != nullptr && v->is_string() ? v->str : std::move(fallback);
}
bool flag(const JsonValue* v) { return v != nullptr && v->boolean; }

// ---------------------------------------------------------------- HTTP

// One blocking GET with Connection: close; returns false on any
// network failure, true with the status and body otherwise.
bool http_get(const std::string& host, int port, const std::string& path,
              int& status, std::string& body) {
  status = 0;
  body.clear();
  const int fd = zombiescope::netbase::connect_tcp(
      host, static_cast<std::uint16_t>(port), /*recv_timeout_ms=*/5000);
  if (fd < 0) return false;
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::string raw;
  bool ok = zombiescope::netbase::send_all(fd, request);
  char buf[4096];
  while (ok) {
    const std::ptrdiff_t n = zombiescope::netbase::recv_some(fd, buf, sizeof(buf));
    if (n < 0) ok = false;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
    if (raw.size() > 8 * 1024 * 1024) break;  // runaway guard
  }
  ::close(fd);
  if (!ok) return false;

  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  if (std::sscanf(raw.c_str(), "HTTP/1.%*d %d", &status) != 1) return false;
  body = raw.substr(header_end + 4);
  return true;
}

// ------------------------------------------------------------- display

const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};

// Maps the last `width` values onto 8 block heights; the scale floor
// is 0 so a flat-but-nonzero series still shows a bar.
std::string sparkline(const std::vector<double>& values, std::size_t width) {
  std::string out;
  if (values.empty()) return out;
  const std::size_t first = values.size() > width ? values.size() - width : 0;
  double max = 0.0;
  for (std::size_t i = first; i < values.size(); ++i)
    if (values[i] > max) max = values[i];
  for (std::size_t i = first; i < values.size(); ++i) {
    if (max <= 0.0) { out += kBlocks[0]; continue; }
    int level = static_cast<int>((values[i] / max) * 7.0 + 0.5);
    if (level < 0) level = 0;
    if (level > 7) level = 7;
    out += kBlocks[level];
  }
  return out;
}

// "12.4k", "3.02M", "870" — compact SI rendering for counters/rates.
std::string fmt_si(double v) {
  char buf[32];
  const double a = v < 0 ? -v : v;
  if (a >= 1e9) std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  else if (a >= 1e6) std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  else if (a >= 1e3) std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  else if (a >= 10) std::snprintf(buf, sizeof(buf), "%.0f", v);
  else std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string fmt_ms(double seconds) {
  char buf[32];
  const double ms = seconds * 1e3;
  if (ms >= 1000) std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  else if (ms >= 1) std::snprintf(buf, sizeof(buf), "%.2fms", ms);
  else std::snprintf(buf, sizeof(buf), "%.0fus", ms * 1e3);
  return buf;
}

struct Style {
  bool color = false;
  std::string red(const std::string& s) const { return color ? "\x1b[31m" + s + "\x1b[0m" : s; }
  std::string yellow(const std::string& s) const { return color ? "\x1b[33m" + s + "\x1b[0m" : s; }
  std::string green(const std::string& s) const { return color ? "\x1b[32m" + s + "\x1b[0m" : s; }
  std::string bold(const std::string& s) const { return color ? "\x1b[1m" + s + "\x1b[0m" : s; }
};

struct Series {
  bool ok = false;
  std::vector<double> values;
  double last = 0.0;
};

constexpr std::size_t kSparkWidth = 48;

// ------------------------------------------------------------- client

struct Client {
  std::string host;
  int port = 0;
  int range_seconds = 120;

  bool get_json(const std::string& path, JsonValue& out, int& status) const {
    std::string body;
    if (!http_get(host, port, path, status, body)) return false;
    if (status != 200) return true;  // reached the server; no JSON expected
    auto doc = zombiescope::netbase::parse_json(body);
    if (!doc) return false;
    out = std::move(*doc);
    return true;
  }

  Series query(const std::string& metric, const char* agg) const {
    Series s;
    std::string path = "/tsdb/query?metric=" + metric +
                       "&range=" + std::to_string(range_seconds) + "s&step=1s";
    if (agg != nullptr) path += std::string("&agg=") + agg;
    JsonValue doc;
    int status = 0;
    if (!get_json(path, doc, status) || status != 200) return s;
    const JsonValue* points = doc.find("points");
    if (points == nullptr || !points->is_array()) return s;
    for (const JsonValue& p : points->array) {
      if (!p.is_array() || p.array.size() != 2) continue;
      s.values.push_back(number_or(&p.array[1], 0.0));
    }
    if (!s.values.empty()) {
      s.ok = true;
      s.last = s.values.back();
    }
    return s;
  }
};

void render_series_row(std::string& out, const char* label, const std::string& name,
                       const Series& s, const std::string& value_text) {
  char head[128];
  std::snprintf(head, sizeof(head), "%-10s %-28s %10s  ", label, name.c_str(),
                s.ok ? value_text.c_str() : "n/a");
  out += head;
  out += sparkline(s.values, kSparkWidth);
  out += '\n';
}

// One full frame of panels. Returns false only when the server is
// unreachable (connection-level failure on the endpoint index).
bool render_frame(const Client& client, const Style& style, std::string& out) {
  out.clear();

  JsonValue index;
  int status = 0;
  if (!client.get_json("/", index, status)) return false;
  bool has_tsdb = false;
  bool has_alerts = false;
  bool has_peers = false;
  bool has_sessions = false;
  if (const JsonValue* endpoints = index.find("endpoints");
      endpoints != nullptr && endpoints->is_array()) {
    for (const JsonValue& e : endpoints->array) {
      const JsonValue* path = e.find("path");
      if (path == nullptr) continue;
      if (path->str == "/tsdb/query") has_tsdb = true;
      if (path->str == "/alerts") has_alerts = true;
      if (path->str == "/peers") has_peers = true;
      if (path->str == "/sessions") has_sessions = true;
    }
  }

  char now_text[64];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc = {};
  gmtime_r(&now, &tm_utc);
  std::strftime(now_text, sizeof(now_text), "%Y-%m-%d %H:%M:%S UTC", &tm_utc);
  out += style.bold("zstop") + " — " + client.host + ":" + std::to_string(client.port) +
         " — " + now_text + "\n\n";

  if (!has_tsdb) {
    out += "no /tsdb endpoints on this server — it does not serve\n"
           "the time-series store. Nothing to render.\n";
    return true;
  }

  const Series throughput = client.query("live.records_total", "rate");
  render_series_row(out, "throughput", "live.records_total /s", throughput,
                    fmt_si(throughput.last) + "/s");

  // Every latency:<stage>:p99 series the store has — the set depends on
  // which pipeline stages have run, so discover instead of hard-coding.
  JsonValue metrics_doc;
  std::vector<std::string> p99_names;
  if (client.get_json("/tsdb/metrics", metrics_doc, status) && status == 200) {
    if (const JsonValue* metrics = metrics_doc.find("metrics");
        metrics != nullptr && metrics->is_array()) {
      for (const JsonValue& m : metrics->array) {
        const JsonValue* name = m.find("name");
        if (name == nullptr || !name->is_string()) continue;
        const std::string& n = name->str;
        if (n.rfind("latency:", 0) == 0 && n.size() > 4 &&
            n.compare(n.size() - 4, 4, ":p99") == 0)
          p99_names.push_back(n);
      }
    }
  }
  if (p99_names.empty()) {
    Series none;
    render_series_row(out, "stage p99", "(no latency series yet)", none, "");
  } else {
    const char* label = "stage p99";
    for (const std::string& name : p99_names) {
      const Series s = client.query(name, nullptr);
      const std::string stage = name.substr(8, name.size() - 8 - 4);
      render_series_row(out, label, stage, s, fmt_ms(s.last));
      label = "";
    }
  }

  const Series depth = client.query("live.queue_depth", nullptr);
  render_series_row(out, "queue", "depth", depth, fmt_si(depth.last));
  const Series drops = client.query("live.ingest_dropped_total", "rate");
  const std::string drops_text = fmt_si(drops.last) + "/s";
  render_series_row(out, "", "drops /s", drops,
                    drops.last > 0 ? style.red(drops_text) : drops_text);

  const Series zombies = client.query("live.active_zombies", nullptr);
  render_series_row(out, "zombies", "active", zombies, fmt_si(zombies.last));

  // PEERS: the zspeerq feed-quality table — who is feeding, who is
  // statistically noisy, who went silent, worst offenders first.
  if (has_peers) {
    out += '\n';
    JsonValue peers;
    if (client.get_json("/peers", peers, status) && status == 200) {
      const auto count_of = [&peers](const char* key) {
        return static_cast<int>(number_or(peers.find(key), 0));
      };
      const int feeding = count_of("feeding_count");
      const int noisy = count_of("noisy_count");
      const int silent = count_of("silent_count");
      const std::string noisy_text = std::to_string(noisy) + " noisy";
      const std::string silent_text = std::to_string(silent) + " silent";
      out += "peers      " + std::to_string(feeding) + " feeding, " +
             (noisy > 0 ? style.red(style.bold(noisy_text)) : style.green(noisy_text)) +
             ", " + (silent > 0 ? style.yellow(silent_text) : silent_text) + "\n";
      const Series noisy_series = client.query("peer.noisy_count", nullptr);
      render_series_row(out, "", "noisy count", noisy_series,
                        fmt_si(noisy_series.last));
      // Worst stuck probabilities, noisy and silent rows always shown.
      if (const JsonValue* rows = peers.find("peers");
          rows != nullptr && rows->is_array()) {
        std::vector<const JsonValue*> ranked;
        for (const JsonValue& r : rows->array) ranked.push_back(&r);
        std::sort(ranked.begin(), ranked.end(),
                  [](const JsonValue* a, const JsonValue* b) {
                    return number_or(a->find("probability"), 0) >
                           number_or(b->find("probability"), 0);
                  });
        int shown = 0;
        for (const JsonValue* r : ranked) {
          const bool is_noisy = flag(r->find("noisy"));
          const bool is_silent = flag(r->find("silent"));
          if (shown >= 3 && !is_noisy && !is_silent) break;
          const double p = number_or(r->find("probability"), 0);
          const double lo = number_or(r->find("wilson_low"), 0);
          const double hi = number_or(r->find("wilson_high"), 0);
          char row[192];
          std::snprintf(row, sizeof(row),
                        "  AS%-8d %-24s p=%.3f [%.3f,%.3f] stuck %-6d%s%s\n",
                        static_cast<int>(number_or(r->find("asn"), 0)),
                        string_or(r->find("address"), "?").c_str(),
                        p, lo, hi,
                        static_cast<int>(number_or(r->find("stuck"), 0)),
                        is_noisy ? " NOISY" : "", is_silent ? " SILENT" : "");
          const std::string text(row);
          out += is_noisy ? style.red(text) : is_silent ? style.yellow(text) : text;
          ++shown;
        }
      }
    } else {
      out += "peers      n/a\n";
    }
  }

  // SESSIONS: the zswire BGP speaker — who is peered over a real
  // socket, what was negotiated, and which ghosts are retaining stale
  // routes (the zombie-manufacturing state, so stale > 0 is loud).
  if (has_sessions) {
    out += '\n';
    JsonValue sessions;
    if (client.get_json("/sessions", sessions, status) && status == 200) {
      const auto count_of = [&sessions](const char* key) {
        return static_cast<int>(number_or(sessions.find(key), 0));
      };
      const int established = count_of("established");
      const int stale = count_of("stale_routes");
      const std::string stale_text = std::to_string(stale) + " stale";
      out += "sessions   AS" + std::to_string(count_of("local_asn")) + ", " +
             std::to_string(established) + " established, " +
             (stale > 0 ? style.red(style.bold(stale_text)) : style.green(stale_text)) +
             "\n";
      if (const JsonValue* rows = sessions.find("sessions");
          rows != nullptr && rows->is_array()) {
        int shown = 0;
        for (const JsonValue& r : rows->array) {
          const std::string state = string_or(r.find("state"), "?");
          const bool ghost = state == "GrStale";
          if (shown >= 6 && !ghost) continue;  // ghosts always shown
          const bool gr = flag(r.find("gr"));
          const bool llgr = flag(r.find("llgr"));
          char row[192];
          std::snprintf(row, sizeof(row),
                        "  AS%-8d %-24s %-12s hold %-5d routes %-6d%s%s%s\n",
                        static_cast<int>(number_or(r.find("asn"), 0)),
                        string_or(r.find("address"), "?").c_str(),
                        state.c_str(),
                        static_cast<int>(number_or(r.find("hold"), 0)),
                        static_cast<int>(number_or(r.find("routes"), 0)),
                        llgr ? " LLGR" : gr ? " GR" : "",
                        flag(r.find("bridged")) ? " bridge" : "",
                        ghost ? " GHOST" : "");
          const std::string text(row);
          out += ghost ? style.yellow(text) : text;
          ++shown;
        }
      }
    } else {
      out += "sessions   n/a\n";
    }
  }

  out += '\n';
  if (!has_alerts) {
    out += "alerts     (no /alerts endpoint)\n";
    return true;
  }
  JsonValue alerts;
  if (!client.get_json("/alerts", alerts, status) || status != 200) {
    out += "alerts     n/a\n";
    return true;
  }
  const int firing = static_cast<int>(number_or(alerts.find("firing"), 0));
  const std::string firing_text = std::to_string(firing) + " firing";
  out += "alerts     " + (firing > 0 ? style.red(style.bold(firing_text)) : style.green(firing_text)) + "\n";
  if (const JsonValue* rules = alerts.find("rules");
      rules != nullptr && rules->is_array()) {
    // Firing first, then pending, then ok — the interesting rows on top.
    auto rank = [](const std::string& state) {
      return state == "firing" ? 0 : state == "pending" ? 1 : 2;
    };
    std::vector<const JsonValue*> sorted;
    for (const JsonValue& r : rules->array) sorted.push_back(&r);
    for (int pass = 0; pass < 3; ++pass) {
      for (const JsonValue* r : sorted) {
        const std::string state = string_or(r->find("state"), "?");
        if (rank(state) != pass) continue;
        const std::string name = string_or(r->find("name"), "?");
        const double value = number_or(r->find("value"), 0);
        const double threshold = number_or(r->find("threshold"), 0);
        char row[192];
        std::snprintf(row, sizeof(row), "  %-8s %-28s value %-10s threshold %s\n",
                      state.c_str(), name.c_str(), fmt_si(value).c_str(),
                      fmt_si(threshold).c_str());
        const std::string text(row);
        out += state == "firing" ? style.red(text)
               : state == "pending" ? style.yellow(text)
                                    : text;
      }
    }
  }
  return true;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host HOST] [--interval-ms N]\n"
               "          [--range SECONDS] [--once] [--no-color] [--version]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Client client;
  client.host = "127.0.0.1";
  int interval_ms = 1000;
  bool once = false;
  bool no_color = false;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::puts(zombiescope::obs::identity_line("zstop").c_str());
      return 0;
    } else if (arg == "--port") client.port = std::stoi(need_value(i));
    else if (arg == "--host") client.host = need_value(i);
    else if (arg == "--interval-ms") interval_ms = std::stoi(need_value(i));
    else if (arg == "--range") client.range_seconds = std::stoi(need_value(i));
    else if (arg == "--once") once = true;
    else if (arg == "--no-color") no_color = true;
    else usage(argv[0]);
  }
  if (client.port <= 0 || client.port > 65535) usage(argv[0]);
  if (interval_ms < 100) interval_ms = 100;
  if (client.range_seconds < 2) client.range_seconds = 2;

  Style style;
  style.color = !no_color && ::isatty(STDOUT_FILENO) != 0;
  const bool ansi = !once && ::isatty(STDOUT_FILENO) != 0;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (ansi) std::fputs("\x1b[?25l", stdout);  // hide cursor
  int rc = 0;
  std::string frame;
  while (true) {
    if (!render_frame(client, style, frame)) {
      if (ansi) std::fputs("\x1b[?25h", stdout);
      std::fprintf(stderr, "zstop: cannot reach http://%s:%d/\n", client.host.c_str(),
                   client.port);
      return 1;
    }
    if (ansi) std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home
    std::fputs(frame.c_str(), stdout);
    std::fflush(stdout);
    if (once || g_stop) break;
    // Sleep in small slices so Ctrl-C exits promptly.
    for (int waited = 0; waited < interval_ms && !g_stop; waited += 50)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_stop) break;
  }
  if (ansi) std::fputs("\x1b[?25h\n", stdout);  // restore cursor
  return rc;
}
