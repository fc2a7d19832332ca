// Verifies the ZS_HEAP_ENABLED=0 build really compiles the allocation
// profiler out: this target recompiles heap.cpp (plus the
// trace/stacksample/prof/metrics sources trace.cpp drags in) with the
// macro forced to 0 (see tests/CMakeLists.txt) instead of linking
// zs_obs. The decisive check is symbol-level: malloc must resolve to
// libc, not to an interposed definition in this executable.

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cstring>

#include "obs/heap.hpp"
#include "obs/trace.hpp"

namespace obs = zombiescope::obs;

static_assert(!obs::kHeapCompiledIn,
              "this test must be built with ZS_HEAP_ENABLED=0");

// Sanitizer runtimes interpose malloc themselves, so symbol-residency
// checks against libc are meaningless there (same weak-symbol runtime
// detection heap.cpp uses).
extern "C" {
__attribute__((weak)) void __asan_init();
__attribute__((weak)) void __tsan_init();
__attribute__((weak)) void __msan_init();
}

namespace {

bool sanitizer_runtime_linked() {
  return &__asan_init != nullptr || &__tsan_init != nullptr ||
         &__msan_init != nullptr;
}

TEST(ObsHeapCompileOut, EveryEntryPointIsInert) {
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  EXPECT_FALSE(obs::HeapProfiler::interposition_compiled());
  EXPECT_FALSE(obs::HeapProfiler::interposition_available());
  EXPECT_FALSE(profiler.start());
  EXPECT_FALSE(profiler.running());
  EXPECT_EQ(profiler.allocs_observed(), 0u);
  const obs::HeapReport report = profiler.stop();
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.allocs, 0u);
}

TEST(ObsHeapCompileOut, HooksAreInlineNoOps) {
  // Spans reach zsheap only through the stack-sampling core's span
  // stack; the one heap hook left outside the allocator is inert.
  obs::heap_publish_metrics();
  EXPECT_FALSE(obs::HeapProfiler::global().running());
}

TEST(ObsHeapCompileOut, NoInterposedAllocatorSymbols) {
  // The proof the issue asks for: with ZS_HEAP_ENABLED=0 this binary
  // must carry no strong malloc/free override, so a global-scope
  // symbol lookup resolves malloc back to libc — not this executable.
  // (dlsym, not &malloc: taking the address in the executable yields
  // its PLT stub, which dladdr attributes to the executable.)
  if (sanitizer_runtime_linked()) {
    GTEST_SKIP() << "a sanitizer runtime owns malloc; libc residency "
                    "cannot be asserted here";
  }
  for (const char* symbol : {"malloc", "free", "calloc", "realloc"}) {
    void* addr = dlsym(RTLD_DEFAULT, symbol);
    ASSERT_NE(addr, nullptr) << symbol;
    Dl_info info{};
    ASSERT_NE(dladdr(addr, &info), 0) << symbol;
    ASSERT_NE(info.dli_fname, nullptr) << symbol;
    EXPECT_NE(std::strstr(info.dli_fname, "libc"), nullptr)
        << symbol << " resolves to " << info.dli_fname
        << " — an interposed definition survived the compile-out";
  }
}

TEST(ObsHeapCompileOut, SpansStillWork) {
  // ScopedSpan pushes the span stack zsprof and zsheap share, which
  // does not depend on the allocator hooks, so tracing is unaffected.
  {
    obs::ScopedSpan outer("heap_compileout.outer");
    obs::ScopedSpan inner("heap_compileout.inner");
  }
  const auto spans = obs::Tracer::global().snapshot();
  bool saw_outer = false;
  bool saw_inner = false;
  for (const auto& span : spans) {
    if (span.name == "heap_compileout.outer") saw_outer = true;
    if (span.name == "heap_compileout.inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(ObsHeapCompileOut, ScopedHeapSessionDegradesGracefully) {
  obs::ScopedHeapSession session("/tmp/zs_heap_compileout_never_written");
  EXPECT_FALSE(session.active());
}

TEST(ObsHeapCompileOut, ReportRenderingStillAvailable) {
  // Rendering (used by zsbenchdiff fixtures) stays compiled in even
  // when the hooks are not.
  obs::HeapReport report;
  report.valid = true;
  report.total_bytes = 1024;
  report.allocs = 3;
  report.span_bytes["phase"] = {512, 2};
  report.top_sites.push_back({"phase;site", 256, 1});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"zsheap-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"total_bytes\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": {\"bytes\": 512"), std::string::npos);
  EXPECT_NE(report.to_folded().find("phase;site 256\n"), std::string::npos);
  EXPECT_NE(report.top_report().find("phase"), std::string::npos);
}

}  // namespace
