// Inline-buffer callback storage for transaction hooks.
//
// Commit hooks fire on essentially every tree update (retire an unlinked
// node, publish a violation, settle a size estimate) and capture at most a
// couple of pointers. Storing them as std::vector<std::function<void()>>
// pays a heap allocation whenever the vector's buffer is stolen at commit
// and whenever a capture outgrows std::function's small buffer. SmallHook keeps
// the callable inline (48 bytes of capture, enough for several pointers)
// and HookVec keeps the first few hooks in the object itself, so the common
// one-or-two-hook transaction allocates nothing.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sftree::stm {

class SmallHook {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallHook() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallHook>>>
  SmallHook(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      static constexpr Ops ops = {
          [](void* p) { (*static_cast<Fn*>(p))(); },
          [](void* p) { static_cast<Fn*>(p)->~Fn(); },
          [](void* dst, void* src) {
            new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          },
      };
      new (buf_) Fn(std::forward<F>(f));
      ops_ = &ops;
    } else {
      // Oversized capture: one heap block, pointer stored inline.
      static constexpr Ops ops = {
          [](void* p) { (**static_cast<Fn**>(p))(); },
          [](void* p) { delete *static_cast<Fn**>(p); },
          [](void* dst, void* src) {
            *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
          },
      };
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &ops;
    }
  }

  SmallHook(SmallHook&& o) noexcept { moveFrom(o); }
  SmallHook& operator=(SmallHook&& o) noexcept {
    if (this != &o) {
      reset();
      moveFrom(o);
    }
    return *this;
  }

  SmallHook(const SmallHook&) = delete;
  SmallHook& operator=(const SmallHook&) = delete;

  ~SmallHook() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    // Moves the callable from src into dst's (raw) buffer and ends src's
    // lifetime; dst takes the same ops.
    void (*relocate)(void* dst, void* src);
  };

  void moveFrom(SmallHook& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// A sequence of SmallHooks with inline storage for the first few. clear()
// keeps the overflow vector's capacity, so a reused transaction descriptor
// reaches a steady state with zero allocation per transaction.
class HookVec {
 public:
  static constexpr std::size_t kInlineHooks = 4;

  HookVec() = default;
  HookVec(HookVec&& o) noexcept : count_(o.count_) {
    const std::size_t n = count_ < kInlineHooks ? count_ : kInlineHooks;
    for (std::size_t i = 0; i < n; ++i) {
      new (slot(i)) SmallHook(std::move(*o.slot(i)));
      o.slot(i)->~SmallHook();
    }
    overflow_ = std::move(o.overflow_);
    o.count_ = 0;
  }

  HookVec(const HookVec&) = delete;
  HookVec& operator=(const HookVec&) = delete;
  HookVec& operator=(HookVec&&) = delete;

  ~HookVec() { clear(); }

  template <typename F>
  void push(F&& f) {
    if (count_ < kInlineHooks) {
      new (slot(count_)) SmallHook(std::forward<F>(f));
    } else {
      overflow_.emplace_back(std::forward<F>(f));
    }
    ++count_;
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  // Invokes every hook in registration order. Hooks must not add hooks to
  // this same HookVec while running (commit hooks that may start new
  // transactions are stolen into a local HookVec first; see Tx).
  void runAll() {
    const std::size_t n = count_ < kInlineHooks ? count_ : kInlineHooks;
    for (std::size_t i = 0; i < n; ++i) (*slot(i))();
    for (auto& h : overflow_) h();
  }

  void clear() {
    const std::size_t n = count_ < kInlineHooks ? count_ : kInlineHooks;
    for (std::size_t i = 0; i < n; ++i) slot(i)->~SmallHook();
    overflow_.clear();  // keeps capacity
    count_ = 0;
  }

 private:
  SmallHook* slot(std::size_t i) {
    return std::launder(reinterpret_cast<SmallHook*>(
        inline_ + i * sizeof(SmallHook)));
  }

  std::size_t count_ = 0;
  alignas(SmallHook) unsigned char inline_[kInlineHooks * sizeof(SmallHook)];
  std::vector<SmallHook> overflow_;
};

}  // namespace sftree::stm
