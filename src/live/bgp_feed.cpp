#include "live/bgp_feed.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "wire/bridge.hpp"

namespace zombiescope::live {

namespace {

netbase::TimePoint system_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BgpFeedSource::BgpFeedSource(wire::SpeakerConfig config, std::uint16_t port)
    : config_(config), speaker_(config, /*listen=*/true, port) {}

void BgpFeedSource::attach_http(obs::HttpServer& http) {
  http.add_endpoint("/sessions", [this](std::string_view) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = speaker_.sessions_json();
    return response;
  });
}

void BgpFeedSource::submit_or_queue(LiveService& service, FeedItem&& item,
                                    std::optional<std::uint64_t> sequence,
                                    RunStats& stats) {
  // Bridge records re-sequence: the archive order must survive the
  // kernel's cross-socket interleaving for live == batch equivalence.
  // Every parked record is past next_sequence_, so one that is not
  // goes first.
  if (sequence.has_value() && *sequence > next_sequence_) {
    std::uint64_t slot = parked_.size();
    if (free_slots_.empty()) {
      parked_.push_back(std::move(item));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      parked_[slot] = std::move(item);
    }
    tickets_.push_back(Ticket{*sequence, slot});
    std::push_heap(tickets_.begin(), tickets_.end(), ticket_after);
    return;
  }
  ++stats.records;
  service.submit(std::move(item));
  if (!sequence.has_value()) return;
  if (*sequence == next_sequence_) ++next_sequence_;
  while (!tickets_.empty() && tickets_.front().sequence <= next_sequence_) {
    if (tickets_.front().sequence == next_sequence_) ++next_sequence_;
    release_top(service, stats);
  }
}

void BgpFeedSource::release_top(LiveService& service, RunStats& stats) {
  std::pop_heap(tickets_.begin(), tickets_.end(), ticket_after);
  const std::uint64_t slot = tickets_.back().slot;
  tickets_.pop_back();
  free_slots_.push_back(slot);
  ++stats.records;
  service.submit(std::move(parked_[slot]));
}

void BgpFeedSource::bridge_state(LiveService& service, bgp::SessionState new_state,
                                 RunStats& stats) {
  if (new_state == bgp::SessionState::kOpenConfirm) {
    ++bridge_sessions_;
    return;
  }
  if (new_state != bgp::SessionState::kIdle || bridge_sessions_ == 0 || --bridge_sessions_ > 0)
    return;
  while (!tickets_.empty()) release_top(service, stats);
  parked_.clear();
  free_slots_.clear();
  next_sequence_ = 0;
}

FeedSource::RunStats BgpFeedSource::run(LiveService& service) {
  RunStats stats;

  speaker_.on_update([this, &service, &stats](
                         const wire::SessionRef& ref, bgp::UpdateMessage&& update,
                         std::chrono::steady_clock::time_point ingest) {
    const auto stamp = wire::extract_stamp(update);
    const auto state = wire::extract_state(update);
    const auto sequence =
        stamp ? std::optional<std::uint64_t>(stamp->sequence) : std::nullopt;
    if (state.has_value()) {
      // An attr-253 empty UPDATE: a Bgp4mpStateChange in transit.
      mrt::Bgp4mpStateChange change;
      change.timestamp = stamp ? stamp->timestamp : system_seconds();
      change.peer_asn = ref.peer_asn;
      change.local_asn = config_.local_asn;
      change.peer_address = ref.peer_address;
      change.old_state = static_cast<bgp::SessionState>(state->first);
      change.new_state = static_cast<bgp::SessionState>(state->second);
      submit_or_queue(service, FeedItem{mrt::MrtRecord{std::move(change)}, ingest},
                      sequence, stats);
      return;
    }
    mrt::Bgp4mpMessage message;
    message.timestamp = stamp ? stamp->timestamp : system_seconds();
    message.peer_asn = ref.peer_asn;
    message.local_asn = config_.local_asn;
    message.peer_address = ref.peer_address;
    message.update = std::move(update);
    submit_or_queue(service, FeedItem{mrt::MrtRecord{std::move(message)}, ingest},
                    sequence, stats);
  });

  speaker_.on_state([this, &service, &stats](const wire::SessionRef& ref,
                                             bgp::SessionState old_state,
                                             bgp::SessionState new_state,
                                             bool retained) {
    // Bridge transport flaps are not routing events, but they bound a
    // replay stream; a GR-retained drop deliberately hides from the
    // detector (the RIB kept the routes — that is the zombie being
    // manufactured).
    if (ref.bridged) {
      bridge_state(service, new_state, stats);
      return;
    }
    if (retained) return;
    mrt::Bgp4mpStateChange change;
    change.timestamp = system_seconds();
    change.peer_asn = ref.peer_asn;
    change.local_asn = config_.local_asn;
    change.peer_address = ref.peer_address;
    change.old_state = old_state;
    change.new_state = new_state;
    ++stats.records;
    service.submit(FeedItem{mrt::MrtRecord{std::move(change)},
                            std::chrono::steady_clock::now()});
  });

  speaker_.on_flush([this, &service, &stats](const wire::SessionRef& ref,
                                             std::vector<netbase::Prefix>&& prefixes,
                                             wire::FlushReason) {
    // Retention ended (End-of-RIB sweep, restart or LLGR expiry): the
    // stale routes leave the RIB now, as explicit withdrawals.
    mrt::Bgp4mpMessage message;
    message.timestamp = system_seconds();
    message.peer_asn = ref.peer_asn;
    message.local_asn = config_.local_asn;
    message.peer_address = ref.peer_address;
    message.update.withdrawn = std::move(prefixes);
    ++stats.records;
    service.submit(FeedItem{mrt::MrtRecord{std::move(message)},
                            std::chrono::steady_clock::now()});
  });

  speaker_.run();

  // Anything still parked in the reorder heap (a bridge died mid-run)
  // flushes in sequence order rather than vanishing.
  while (!tickets_.empty()) release_top(service, stats);
  return stats;
}

}  // namespace zombiescope::live
