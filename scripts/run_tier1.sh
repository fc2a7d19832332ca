#!/usr/bin/env bash
# Tier-1 verification: the plain build (every target, warnings as
# errors: -DZOMBIESCOPE_WERROR=ON) + full test suite, then the obs
# subsystem's tests again under ThreadSanitizer (its hot paths — the
# metrics cells, the span ring, the journal MPSC ring, the causal
# tracer's hop ring, and the zsprof sample rings + SIGPROF handler —
# are the only code that promises
# lock-free cross-thread use — plus zslive's MPSC shard queues, epoch
# snapshots, and SSE fanout) and under AddressSanitizer+UBSan (the
# journal codec, the HTTP server, and the NDJSON feed parse external
# bytes; the zsprof stack walk reads raw stack memory). The ASan+UBSan
# leg also runs the MRT codec and its fuzz suites (truncated and
# bit-flipped archives), the batch long-lived, interval and
# looking-glass detectors, whose one fold keeps raw pointers into the
# caller's records that the interval and looking-glass reads
# dereference, and the codec suites under them: the
# byte reader's inline bounds checks, prefixes, and the AS path's
# shared, reference-counted block through the UPDATE codec and its
# round trips. It also encodes a whole simulated v4+v6 archive
# (RisScenario.ProducesCoherentArchive, which pins its bytes), so the
# one-pass UPDATE encoder's in-place writes and back-patched lengths
# run over every message shape the simulator makes, and reads that
# archive's pinned interval and looking-glass results
# (RisScenario.DetectorFindsZombiesAndDuplicates). These are
# single-threaded, so the TSan leg skips them. Both legs run the JSON
# reader's suite (RIS-Live NDJSON is network input), and the UBSan leg
# adds -fsanitize=float-cast-overflow (see CMakeLists.txt). Both legs
# run the socket reactor's suite and the WireE2E socket tests (the BGP
# speaker, the bridge's burst writes, the feed's ticket reorder heap
# and its stream restart, which counts a bridge session from its OPEN,
# over real loopback sessions); WireE2EReplay
# is excluded there because its longlived2024 set-up alone takes
# minutes under TSan (the plain build runs it). Each sanitizer leg ends
# with a 30-second zslived tap-demo soak under concurrent curl clients,
# which also writes the metrics, trace and journal files at exit. The
# plain leg ends by replaying the default archive through one shard
# behind a 64-slot queue: a replay must drop nothing.
#
# Usage: scripts/run_tier1.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TSAN_DIR="${BUILD_DIR}-tsan"
ASAN_DIR="${BUILD_DIR}-asan"

echo "== tier-1: plain build (-Werror) + ctest (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S . -DZOMBIESCOPE_WERROR=ON
cmake --build "${BUILD_DIR}" -j
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# A replay is an archive, not a wire: it waits out a full shard queue
# instead of dropping, so its zombie set is batch's at any --speed and
# queue depth. One shard behind 64 slots is the tightest backpressure
# the CLI can ask for.
echo "== tier-1: lossless zslived --replay (${BUILD_DIR})"
"${BUILD_DIR}/tools/zssim" longlived2024 "${BUILD_DIR}/replay-check" \
  >"${BUILD_DIR}/replay-check.log" 2>&1
replay_out=$("${BUILD_DIR}/tools/zslived" --replay "${BUILD_DIR}/replay-check.updates.mrt" \
  --schedule fifteen --start 2024-06-10 --end 2024-06-23 --shards 1 --queue-depth 64 2>&1)
case "${replay_out}" in
  *', 0 dropped,'*) echo "== tier-1: replay OK ($(grep -o 'feed done:.*' <<<"${replay_out}"))" ;;
  *) echo "zslived --replay dropped records: ${replay_out}"; exit 1 ;;
esac

# realtime_test runs under both legs for the detector's lazily deleted
# deadline-heap entries and alerted-route map (the ObsLive* suites in
# live_test cover the snapshot vectors shared across threads).
#
# heap_test runs under both sanitizer legs deliberately: the zsheap
# allocator interposition compiles itself out under ASan/TSan (the
# sanitizer owns malloc) and start() refuses at runtime via the weak
# __sanitizer symbols — the session tests skip there, while the
# report/rendering tests still run. This proves the step-aside path,
# not just the happy path.
OBS_TARGETS="json_test reactor_test obs_test journal_test session_test http_test prof_test \
  benchdiff_test heap_test heap_compileout_test lathist_test tsdb_test \
  causal_test causal_e2e_test live_test realtime_test \
  wire_test wire_e2e_test wirefault_test zswire zslived zstop zsreport"
# Single-threaded suites for the ASan+UBSan leg only.
ASAN_ONLY_TARGETS="netbase_test bgp_test mrt_test zombie_test fuzz_codec_test scenarios_test"

# A 30-second zslived soak under the instrumented build: the tap demo
# feeds a live simulation through the sharded service while curl
# clients hammer all three /live endpoints — the exact concurrent
# surface (MPSC queues, snapshot publication, SSE fanout) the
# sanitizers exist to check. Fails on a nonzero daemon exit (sanitizer
# reports make the runtime exit nonzero), on any report text in the
# logs, if a /live/zombies epoch ever moves backwards, or if the last
# populated /peers body has no closed beacon cycle or no peer seen in
# one. The daemon writes its metrics, trace and journal files on the
# way out, so the exit path and shutdown order run under the sanitizer
# too.
soak_zslived() {
  local build_dir="$1" label="$2"
  local log="${build_dir}/zslived-soak.stderr"
  echo "== tier-1: zslived 30s tap-demo soak (${label})"
  "${build_dir}/tools/zslived" --tap-demo --speed 120 --duration 30 \
    --http-port 0 --metrics-out "${build_dir}/soak.prom" \
    --trace-out "${build_dir}/soak-trace.json" --journal-out "${build_dir}/soak.journal" \
    >"${build_dir}/zslived-soak.stdout" 2>"${log}" &
  local pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's|^serving http://127.0.0.1:\([0-9]*\)/.*|\1|p' "${log}" | head -1)
    [ -n "${port}" ] && break
    sleep 0.2
  done
  if [ -z "${port}" ]; then
    echo "zslived (${label}) never started serving"; cat "${log}"
    kill "${pid}" 2>/dev/null || true
    exit 1
  fi
  curl -sN --max-time 28 "http://127.0.0.1:${port}/live/events" \
    >"${build_dir}/zslived-soak.events" || true &
  local sse_pid=$!
  local last_epoch=0 epoch lag_p99="" lag
  local alerts_json="" rate_series="" p99_series="" peers_json="" zstop_rc="" i
  for i in $(seq 1 25); do
    epoch=$(curl -s --max-time 5 "http://127.0.0.1:${port}/live/zombies" |
      sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')
    lag=$(curl -s --max-time 5 "http://127.0.0.1:${port}/live/stats" |
      sed -n 's/.*"lag_p99":\([0-9.]*\).*/\1/p' | head -1)
    [ -n "${lag}" ] && lag_p99="${lag}"
    # zstsdb surface: keep the latest /alerts body and 1 s-resolution
    # series (rate-derived throughput + e2e p99). A response with
    # points supersedes an empty one — sparse series (e2e fills only
    # after transitions flow) may legitimately gap early in the soak.
    alerts_json=$(curl -s --max-time 5 "http://127.0.0.1:${port}/alerts" || true)
    body=$(curl -s --max-time 5 \
      "http://127.0.0.1:${port}/tsdb/query?metric=live.records_total&range=30s&step=1s&agg=rate" || true)
    case "${body}" in *'"points":[['*) rate_series="${body}" ;; *) : "${rate_series:=${body}}" ;; esac
    body=$(curl -s --max-time 5 \
      "http://127.0.0.1:${port}/tsdb/query?metric=latency:live.e2e:p99&range=30s&step=1s" || true)
    case "${body}" in *'"points":[['*) p99_series="${body}" ;; *) : "${p99_series:=${body}}" ;; esac
    # zspeerq surface: keep the latest populated /peers table. A body
    # with at least one row supersedes an empty one (the table fills
    # once the first shard snapshot publishes).
    body=$(curl -s --max-time 5 "http://127.0.0.1:${port}/peers" || true)
    case "${body}" in *'"peers":[{'*) peers_json="${body}" ;; *) : "${peers_json:=${body}}" ;; esac
    if [ "${i}" -eq 15 ]; then
      # The live console must render a frame against the running
      # daemon and exit 0 (its CI mode).
      "${build_dir}/tools/zstop" --port "${port}" --once --no-color \
        >"${build_dir}/zstop-once.out" 2>&1 && zstop_rc=0 || zstop_rc=$?
    fi
    if [ -n "${epoch}" ]; then
      if [ "${epoch}" -lt "${last_epoch}" ]; then
        echo "zslived (${label}) epoch moved backwards: ${last_epoch} -> ${epoch}"
        kill "${pid}" 2>/dev/null || true
        exit 1
      fi
      last_epoch="${epoch}"
    fi
    sleep 1
  done
  wait "${sse_pid}" || true
  if ! wait "${pid}"; then
    echo "zslived (${label}) exited nonzero"; cat "${log}"
    exit 1
  fi
  # The exit writes: a Prometheus file (the .prom path picks the
  # format), a trace file, and a journal zsreport can read.
  if ! grep -q '^# HELP zs_build_info' "${build_dir}/soak.prom" ||
    ! grep -q '^zs_live_records_total' "${build_dir}/soak.prom"; then
    echo "zslived (${label}) soak metrics file incomplete"; exit 1
  fi
  if ! grep -q '"schema": "zsobs-trace-v1"' "${build_dir}/soak-trace.json"; then
    echo "zslived (${label}) soak trace file lacks its schema line"; exit 1
  fi
  if ! "${build_dir}/tools/zsreport" "${build_dir}/soak.journal" \
    >"${build_dir}/zsreport-soak.out" 2>&1; then
    echo "zslived (${label}) zsreport could not read the soak journal"
    cat "${build_dir}/zsreport-soak.out"
    exit 1
  fi
  if grep -E 'ThreadSanitizer|AddressSanitizer|LeakSanitizer|runtime error' \
    "${log}" "${build_dir}/zslived-soak.stdout" "${build_dir}/zsreport-soak.out"; then
    echo "zslived (${label}) soak produced sanitizer reports"
    exit 1
  fi
  if [ "${last_epoch}" -eq 0 ]; then
    echo "zslived (${label}) served no snapshot epochs"; exit 1
  fi
  # Ingest-lag p99 must stay under a generous bound: a stalled shard
  # worker can keep publishing epochs while its queue ages — the lag
  # quantile is what catches it. 5s is far above healthy tap-demo lag
  # (milliseconds) but far below a wedged worker (tens of seconds).
  if [ -z "${lag_p99}" ]; then
    echo "zslived (${label}) /live/stats never reported lag_p99"; exit 1
  fi
  if ! awk -v lag="${lag_p99}" 'BEGIN { exit !(lag < 5.0) }'; then
    echo "zslived (${label}) ingest-lag p99 too high: ${lag_p99}s (bound 5.0s)"
    exit 1
  fi
  if ! grep -q 'event: emerge' "${build_dir}/zslived-soak.events"; then
    echo "zslived (${label}) SSE stream carried no emerge events"
    exit 1
  fi
  # zstsdb: a healthy soak must end with zero firing alerts, a working
  # zstop --once render, and non-empty monotonically-timestamped 1 s
  # series for the throughput rate and the e2e p99.
  case "${alerts_json}" in
    *'"firing":0'*) ;;
    *) echo "zslived (${label}) /alerts not clean: ${alerts_json}"; exit 1 ;;
  esac
  if [ "${zstop_rc}" != "0" ]; then
    echo "zslived (${label}) zstop --once failed (rc=${zstop_rc:-unset})"
    cat "${build_dir}/zstop-once.out" 2>/dev/null || true
    exit 1
  fi
  if ! grep -q 'throughput' "${build_dir}/zstop-once.out"; then
    echo "zslived (${label}) zstop --once rendered no panels"
    cat "${build_dir}/zstop-once.out"
    exit 1
  fi
  assert_series() {  # assert_series <label> <metric-desc> <json>
    local desc="$2" json="$3"
    case "${json}" in
      *'"points":[['*) ;;
      *) echo "zslived ($1) /tsdb/query ${desc} series empty: ${json}"; exit 1 ;;
    esac
    # Point timestamps must be sorted (sort -c exits nonzero otherwise).
    if ! printf '%s\n' "${json}" | grep -oE '\[[0-9]+\.[0-9]{3},' |
      tr -d '[,' | sort -c -n 2>/dev/null; then
      echo "zslived ($1) /tsdb/query ${desc} timestamps not monotone: ${json}"
      exit 1
    fi
  }
  assert_series "${label}" "live.records_total rate" "${rate_series}"
  assert_series "${label}" "latency:live.e2e:p99" "${p99_series}"
  # zspeerq: the peer table must be populated (the tap demo's simulated
  # collectors all feed), count closed beacon cycles with at least one
  # peer seen in them, and classify nobody noisy. The cycles are the
  # shard detectors' window closes; the tap demo's 4 beacons share
  # withdraw times, so several windows close at one instant. The noisy
  # check cannot fail on this demo: the soak closes about 8 cycles,
  # under live::kNoisyMinCycles (20), and the lossy session's peers
  # stay stuck in most cycles, which holds the median near 0.75.
  case "${peers_json}" in
    *'"peers":[{'*) ;;
    *) echo "zslived (${label}) /peers table empty: ${peers_json}"; exit 1 ;;
  esac
  case "${peers_json}" in
    *'"total_cycles":'[1-9]*) ;;
    *) echo "zslived (${label}) /peers closed no beacon cycles: ${peers_json}"; exit 1 ;;
  esac
  case "${peers_json}" in
    *'"ann_seen":'[1-9]*) ;;
    *) echo "zslived (${label}) /peers saw no peer in any closed cycle: ${peers_json}"; exit 1 ;;
  esac
  case "${peers_json}" in
    *'"noisy_count":0'*) ;;
    *) echo "zslived (${label}) /peers classified peers noisy on the clean tap demo: ${peers_json}"
       exit 1 ;;
  esac
  echo "== tier-1: zslived soak (${label}) OK (final epoch ${last_epoch}, lag p99 ${lag_p99}s, alerts clean, peers clean, cycles counted, exit files written)"
}

# A short BGP loopback soak under the instrumented build: zslived as a
# real BGP-4 collector (--bgp-listen) with a zswire peer holding a live
# session and announcing a prefix across it — the socket reader, FSM,
# retention, and /sessions snapshot path under the sanitizer. Asserts
# /healthz answers ok, /peers is served, and /sessions shows the peer
# Established with its announced route.
soak_bgp() {
  local build_dir="$1" label="$2"
  local log="${build_dir}/zslived-bgp.stderr"
  echo "== tier-1: zslived BGP loopback soak (${label})"
  "${build_dir}/tools/zslived" --bgp-listen 0 --http-port 0 --duration 20 \
    --gr-restart 5 >"${build_dir}/zslived-bgp.stdout" 2>"${log}" &
  local pid=$!
  local http_port="" bgp_port=""
  for _ in $(seq 1 100); do
    http_port=$(sed -n 's|^serving http://127.0.0.1:\([0-9]*\)/.*|\1|p' "${log}" | head -1)
    bgp_port=$(sed -n 's|^BGP feed on port \([0-9]*\).*|\1|p' "${log}" | head -1)
    [ -n "${http_port}" ] && [ -n "${bgp_port}" ] && break
    sleep 0.2
  done
  if [ -z "${http_port}" ] || [ -z "${bgp_port}" ]; then
    echo "zslived (${label}) BGP mode never started serving"; cat "${log}"
    kill "${pid}" 2>/dev/null || true
    exit 1
  fi
  "${build_dir}/tools/zswire" peer 127.0.0.1 "${bgp_port}" --asn 65010 \
    --address 198.51.100.10 --announce 203.0.113.0/24 --wait 12 \
    >"${build_dir}/zswire-peer.out" 2>&1 &
  local peer_pid=$!
  # Poll /sessions until the peer session is Established with its route.
  local sessions="" i
  for i in $(seq 1 40); do
    sessions=$(curl -s --max-time 5 "http://127.0.0.1:${http_port}/sessions" || true)
    case "${sessions}" in
      *'"established":1'*'"asn":65010'*'"routes":1'*) break ;;
    esac
    sleep 0.25
  done
  case "${sessions}" in
    *'"established":1'*'"asn":65010'*'"routes":1'*) ;;
    *) echo "zslived (${label}) /sessions never showed the established peer: ${sessions}"
       kill "${pid}" "${peer_pid}" 2>/dev/null || true
       exit 1 ;;
  esac
  local health
  health=$(curl -s --max-time 5 "http://127.0.0.1:${http_port}/healthz" || true)
  case "${health}" in
    *'ok'*) ;;
    *) echo "zslived (${label}) /healthz not ok in BGP mode: ${health}"
       kill "${pid}" "${peer_pid}" 2>/dev/null || true
       exit 1 ;;
  esac
  local peers
  peers=$(curl -s --max-time 5 "http://127.0.0.1:${http_port}/peers" || true)
  case "${peers}" in
    *'"peers":'*) ;;
    *) echo "zslived (${label}) /peers not served in BGP mode: ${peers}"
       kill "${pid}" "${peer_pid}" 2>/dev/null || true
       exit 1 ;;
  esac
  wait "${peer_pid}" || {
    echo "zslived (${label}) zswire peer exited nonzero"
    cat "${build_dir}/zswire-peer.out"
    kill "${pid}" 2>/dev/null || true
    exit 1
  }
  if ! wait "${pid}"; then
    echo "zslived (${label}) BGP soak exited nonzero"; cat "${log}"
    exit 1
  fi
  if grep -E 'ThreadSanitizer|AddressSanitizer|LeakSanitizer|runtime error' \
    "${log}" "${build_dir}/zslived-bgp.stdout" "${build_dir}/zswire-peer.out"; then
    echo "zslived (${label}) BGP soak produced sanitizer reports"
    exit 1
  fi
  echo "== tier-1: zslived BGP soak (${label}) OK (session established, healthz ok)"
}

echo "== tier-1: obs tests under ThreadSanitizer (${TSAN_DIR})"
cmake -B "${TSAN_DIR}" -S . -DZS_SANITIZE=thread
# shellcheck disable=SC2086
cmake --build "${TSAN_DIR}" -j --target ${OBS_TARGETS}
ctest --test-dir "${TSAN_DIR}" --output-on-failure -R '^Obs|^Json|^Reactor|^Wire|^RealTime' \
  -E '^WireE2EReplay'
soak_zslived "${TSAN_DIR}" "tsan"
soak_bgp "${TSAN_DIR}" "tsan"

echo "== tier-1: obs, BGP/MRT codec and batch detector tests under ASan+UBSan (${ASAN_DIR})"
cmake -B "${ASAN_DIR}" -S . -DZS_SANITIZE=address,undefined
# shellcheck disable=SC2086
cmake --build "${ASAN_DIR}" -j --target ${OBS_TARGETS} ${ASAN_ONLY_TARGETS}
# Parameterized suites are named Seeds/CodecFuzz.*, so CodecFuzz and
# UpdateRoundTrip are unanchored.
ctest --test-dir "${ASAN_DIR}" --output-on-failure \
  -R '^Obs|^Json|^Reactor|^Wire|^RealTime|MrtCodec|MrtRoundTrip|CodecFuzz|^LongLived\.|^Lifespan\.|^IntervalDetector\.|^LookingGlass\.|^AsPath|^UpdateCodec|UpdateRoundTrip|^Bytes\.|^Prefix|^RisScenario\.ProducesCoherentArchive$|^RisScenario\.DetectorFindsZombiesAndDuplicates$' \
  -E '^WireE2EReplay'
soak_zslived "${ASAN_DIR}" "asan"
soak_bgp "${ASAN_DIR}" "asan"

echo "== tier-1: OK"
