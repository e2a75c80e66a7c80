#include "common/inline_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/completion.hpp"
#include "common/types.hpp"

namespace sst {
namespace {

/// Capture that counts live instances: construction (including move
/// construction) increments, destruction decrements. A count that returns
/// to zero and never goes negative means each instance died exactly once.
struct Counted {
  explicit Counted(int* live) : live(live) { ++*live; }
  Counted(Counted&& other) noexcept : live(other.live) { ++*live; }
  Counted(const Counted&) = delete;
  ~Counted() {
    --*live;
    EXPECT_GE(*live, 0);
  }
  int* live;
};

/// A callable of exactly `Bytes` bytes whose heap allocations are counted
/// through a class-level operator new.
template <std::size_t Bytes>
struct Sized {
  static inline int allocations = 0;
  static void* operator new(std::size_t n) {
    ++allocations;
    return ::operator new(n);
  }
  static void operator delete(void* p) { ::operator delete(p); }

  int operator()(int x) const { return x + static_cast<int>(pad[0]); }
  unsigned char pad[Bytes]{};
};

constexpr std::size_t kInline = InlineFn<void()>::kInlineBytes;
static_assert(sizeof(Sized<kInline>) == kInline);
static_assert(sizeof(Sized<kInline + 1>) == kInline + 1);

/// Lifetimes of a capture padded to `Pad` extra bytes: Pad = 0 stays
/// inline, a Pad past kInlineBytes takes the heap fallback.
template <std::size_t Pad>
void check_capture_lifetimes() {
  int live = 0;
  auto make = [&live] {
    return [c = Counted(&live), pad = std::array<unsigned char, Pad>{}]() {
      (void)c;
      (void)pad;
    };
  };

  // reset() destroys the capture and empties the callable.
  {
    InlineFn<void()> fn = make();
    EXPECT_EQ(live, 1);
    fn.reset();
    EXPECT_EQ(live, 0);
    EXPECT_FALSE(fn);
    fn.reset();  // resetting an empty callable is a no-op
    EXPECT_EQ(live, 0);
  }

  // Move-assignment destroys the target's old capture and relocates the
  // source's; the moved-from callable is empty.
  {
    InlineFn<void()> a = make();
    InlineFn<void()> b = make();
    EXPECT_EQ(live, 2);
    b = std::move(a);
    EXPECT_EQ(live, 1);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b);
    InlineFn<void()> c(std::move(b));
    EXPECT_EQ(live, 1);
    c();
  }
  EXPECT_EQ(live, 0);

  // Destruction releases the capture.
  {
    InlineFn<void()> fn = make();
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineFn, InlineCaptureDestroyedExactlyOnce) { check_capture_lifetimes<0>(); }

TEST(InlineFn, HeapCaptureDestroyedExactlyOnce) { check_capture_lifetimes<kInline + 8>(); }

TEST(InlineFn, VoidSignatureDiscardsResult) {
  int calls = 0;
  InlineFn<void()> fn = [&calls] { return ++calls; };
  fn();
  EXPECT_EQ(calls, 1);
}

TEST(InlineFn, MoveOnlyCapture) {
  InlineFn<int()> fn = [p = std::make_unique<int>(7)]() { return *p; };
  EXPECT_EQ(fn(), 7);
  InlineFn<int()> moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved(), 7);
}

TEST(InlineFn, ConstCallThroughNonMutableWrapper) {
  SimTime seen_time = 0;
  IoStatus seen_status = IoStatus::kOk;
  IoCompletion inner = [&](SimTime t, IoStatus s) {
    seen_time = t;
    seen_status = s;
  };
  // The wrapper is not `mutable`, so `prev` is const inside it.
  IoCompletion outer = [prev = std::move(inner)](SimTime t, IoStatus s) { prev(t, s); };
  outer(42, IoStatus::kTimeout);
  EXPECT_EQ(seen_time, 42u);
  EXPECT_EQ(seen_status, IoStatus::kTimeout);

  // A `mutable` callable keeps its state across calls through a const ref.
  const InlineFn<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
}

TEST(InlineFn, NullptrConstructionAndAssignment) {
  InlineFn<void()> fn = nullptr;
  EXPECT_FALSE(fn);
  int live = 0;
  fn = [c = Counted(&live)]() { (void)c; };
  EXPECT_TRUE(fn);
  EXPECT_EQ(live, 1);
  fn = nullptr;
  EXPECT_FALSE(fn);
  EXPECT_EQ(live, 0);
}

TEST(InlineFn, FunctorUpToInlineBytesNeverAllocates) {
  using Small = Sized<kInline>;
  Small::allocations = 0;
  InlineFn<int(int)> fn = Small{};
  InlineFn<int(int)> moved = std::move(fn);
  fn = std::move(moved);
  EXPECT_EQ(fn(3), 3);
  fn.reset();
  EXPECT_EQ(Small::allocations, 0);
}

TEST(InlineFn, LargerFunctorAllocatesExactlyOnce) {
  using Large = Sized<kInline + 1>;
  Large::allocations = 0;
  InlineFn<int(int)> fn = Large{};
  EXPECT_EQ(Large::allocations, 1);
  InlineFn<int(int)> moved = std::move(fn);
  fn = std::move(moved);
  EXPECT_EQ(fn(3), 3);
  fn.reset();
  EXPECT_EQ(Large::allocations, 1);
}

}  // namespace
}  // namespace sst
