#include "obs/lathist.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>

#include "netbase/json.hpp"

namespace zombiescope::obs {

namespace {

std::string format_double(double v) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << v;
  return out.str();
}

}  // namespace

double LatSnapshot::quantile_ns(double q) const noexcept {
  if (count == 0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil) in the cumulative
  // bucket walk.
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    seen += counts[i];
    if (seen < rank) continue;
    // Interpolate linearly within [lower, upper] by how far into the
    // bucket the rank lands, then clamp to the observed extremes so a
    // single-value histogram reports that value, not a bucket edge.
    double lower = static_cast<double>(lat_bucket_lower(i));
    double upper = static_cast<double>(lat_bucket_upper(i));
    std::uint64_t before = seen - counts[i];
    double frac = counts[i] == 0
                      ? 1.0
                      : static_cast<double>(rank - before) /
                            static_cast<double>(counts[i]);
    double v = lower + (upper - lower) * frac;
    v = std::clamp(v, static_cast<double>(min_ns), static_cast<double>(max_ns));
    return v;
  }
  return static_cast<double>(max_ns);
}

void LatSnapshot::merge(const LatSnapshot& other) {
  if (other.count == 0) return;
  if (counts.empty()) counts.assign(kLatBucketCount, 0);
  for (std::size_t i = 0; i < counts.size() && i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  min_ns = count == 0 ? other.min_ns : std::min(min_ns, other.min_ns);
  max_ns = count == 0 ? other.max_ns : std::max(max_ns, other.max_ns);
  count += other.count;
  sum_ns += other.sum_ns;
}

LatSnapshot LatSnapshot::diff_since(const LatSnapshot& earlier) const {
  LatSnapshot out;
  if (count <= earlier.count) return out;
  out.counts.assign(kLatBucketCount, 0);
  std::uint64_t lo = ~0ull, hi = 0;
  for (std::size_t i = 0; i < out.counts.size(); ++i) {
    std::uint64_t a = i < counts.size() ? counts[i] : 0;
    std::uint64_t b = i < earlier.counts.size() ? earlier.counts[i] : 0;
    std::uint64_t d = a > b ? a - b : 0;
    out.counts[i] = d;
    if (d != 0) {
      lo = std::min(lo, lat_bucket_lower(i));
      hi = std::max(hi, lat_bucket_upper(i));
    }
  }
  out.count = count - earlier.count;
  out.sum_ns = sum_ns >= earlier.sum_ns ? sum_ns - earlier.sum_ns : 0;
  // min/max are not differentiable; approximate from the surviving
  // bucket edges (exact to within the bucket quantization).
  out.min_ns = lo == ~0ull ? 0 : lo;
  out.max_ns = hi;
  return out;
}

std::string LatSnapshot::to_json() const {
  std::string out = "{\"count\":" + std::to_string(count);
  out += ",\"sum_ns\":" + std::to_string(sum_ns);
  out += ",\"min_ns\":" + std::to_string(empty() ? 0 : min_ns);
  out += ",\"max_ns\":" + std::to_string(max_ns);
  out += ",\"mean_ns\":" + format_double(mean_ns());
  out += ",\"p50_ns\":" + format_double(quantile_ns(0.50));
  out += ",\"p95_ns\":" + format_double(quantile_ns(0.95));
  out += ",\"p99_ns\":" + format_double(quantile_ns(0.99));
  out += "}";
  return out;
}

LatSnapshot LatHist::snapshot() const {
  LatSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  snap.counts.resize(kLatBucketCount);
  for (std::size_t i = 0; i < kLatBucketCount; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  std::uint64_t mn = min_ns_.load(std::memory_order_relaxed);
  snap.min_ns = mn == ~0ull ? 0 : mn;
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  return snap;
}

void LatHist::reset() noexcept {
  for (std::size_t i = 0; i < kLatBucketCount; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(~0ull, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

struct LatRegistry::Impl {
  mutable std::mutex mu;
  // Leaked LatHist cells so handles survive any teardown order, same
  // as Registry::global()'s cells.
  std::map<std::string, LatHist*, std::less<>> hists;
};

LatRegistry& LatRegistry::global() {
  // Leaked: histograms are recorded into from worker threads that may
  // still be draining at exit.
  static LatRegistry* reg = new LatRegistry();
  return *reg;
}

LatRegistry::Impl* LatRegistry::impl() {
  static Impl* impl = new Impl();
  return impl;
}

const LatRegistry::Impl* LatRegistry::impl() const {
  return const_cast<LatRegistry*>(this)->impl();
}

LatHist& LatRegistry::get(std::string_view name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->hists.find(name);
  if (it == i->hists.end()) {
    it = i->hists.emplace(std::string(name), new LatHist()).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, LatSnapshot>> LatRegistry::snapshot_all()
    const {
  const Impl* i = impl();
  std::vector<std::pair<std::string, LatHist*>> hists;
  {
    std::lock_guard<std::mutex> lock(i->mu);
    hists.reserve(i->hists.size());
    for (const auto& [name, hist] : i->hists) hists.emplace_back(name, hist);
  }
  std::vector<std::pair<std::string, LatSnapshot>> out;
  out.reserve(hists.size());
  for (const auto& [name, hist] : hists) {
    out.emplace_back(name, hist->snapshot());
  }
  return out;
}

std::string LatRegistry::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, snap] : snapshot_all()) {
    if (snap.empty()) continue;
    if (!first) out += ",";
    first = false;
    out += '"';
    netbase::append_json_escaped(out, name);
    out += "\":" + snap.to_json();
  }
  out += "}";
  return out;
}

std::string LatRegistry::to_folded() const {
  std::string out;
  for (const auto& [name, snap] : snapshot_all()) {
    if (snap.empty()) continue;
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] == 0) continue;
      out += name + ";le_" + std::to_string(lat_bucket_upper(i)) + "ns " +
             std::to_string(snap.counts[i]) + "\n";
    }
    out += name + ";count " + std::to_string(snap.count) + "\n";
  }
  return out;
}

void LatRegistry::reset_all() {
  const Impl* i = impl();
  std::vector<LatHist*> hists;
  {
    std::lock_guard<std::mutex> lock(i->mu);
    for (const auto& [name, hist] : i->hists) hists.push_back(hist);
  }
  for (LatHist* h : hists) h->reset();
}

}  // namespace zombiescope::obs
