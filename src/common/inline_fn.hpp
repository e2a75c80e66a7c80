// Move-only type-erased callable with inline storage.
//
// InlineFn<R(Args...)> is the one callable type the per-request path hands
// between layers: scheduled tasks (exec::TaskFn) and I/O completions
// (IoCompletion) are both aliases of it. Callables up to kInlineBytes live
// inside the object; larger ones, or ones whose move may throw, fall back to
// a single heap allocation. Invoke, relocate and destroy go through a static
// per-type table, so moving an InlineFn between slab slots never allocates
// — the zero-steady-state-allocation invariant of the event engine depends
// on it.
//
// As with the standard library's function wrapper, operator() is const and
// the stored callable is mutable: a `mutable` lambda may change its
// captures, and a completion captured by value in a non-`mutable` lambda
// can still be called.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace sst {

template <typename Signature>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                 std::is_invocable_r_v<R, D&, Args...>,
                             int> = 0>
  // NOLINTNEXTLINE(google-explicit-constructor) — callable adaptor by design
  InlineFn(F&& fn) {
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    assert(ops_ != nullptr);
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-construct the callable at `dst` from `src`, destroying `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  /// Call `fn`, discarding its result when R is void.
  template <typename D>
  static R call(D& fn, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(fn, std::forward<Args>(args)...);
    } else {
      return std::invoke(fn, std::forward<Args>(args)...);
    }
  }
  template <typename D>
  static D& inline_target(void* s) {
    return *std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static D*& heap_target(void* s) {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) {
        return call(inline_target<D>(s), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        D& from = inline_target<D>(src);
        ::new (dst) D(std::move(from));
        from.~D();
      },
      [](void* s) { inline_target<D>(s).~D(); }};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s, Args&&... args) {
        return call(*heap_target<D>(s), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) { ::new (dst) D*(heap_target<D>(src)); },
      [](void* s) { delete heap_target<D>(s); }};

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) mutable unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace sst
